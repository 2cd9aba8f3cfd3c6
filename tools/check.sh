#!/usr/bin/env bash
# Repository check, in order:
#   1. configure, build, and run the full test suite;
#   2. C frontend smoke: compile, verify and round-trip examples/corpus_c,
#      and diff the lowering against the committed fuzz/corpus/cc-*.ccra;
#   3. rebuild with ThreadSanitizer (-DCCRA_TSAN=ON) and rerun the tests
#      labeled 'concurrency';
#   4. Release perf_scaling: exits non-zero if the worklist simplifier ever
#      differs from the O(V^2) reference simplifier;
#   5. differential-fuzz smoke (ccra_fuzz --smoke): the fixed seed range CI
#      sweeps through the full oracle lattice, then the wire-v2 codec sweep;
#   6. service smokes: a live ccra_serve daemon driven through mixed
#      bursts (plain, Zipfian against a sharded cache, wire v2), each
#      bit-identity-checked and drained with SIGTERM;
#   7. perf_service: the mixed abuse soak, a mid-flight drain and the c10k
#      phase, each of which exits non-zero on a broken gate;
#   8. the benchmark's own output and trace checks (ccrabench/run.py on
#      cc-compile and large-fn), as in CI.
#
# Usage: tools/check.sh [extra cmake args...]
#   JOBS=N   parallel build jobs (default: nproc)
#   SOAK_REQUESTS=N   perf_service soak size (default: 10000)
#   C10K_CONNECTIONS=N   perf_service connection-scaling phase (default:
#                        10000; 0 skips it — useful under tight fd limits)

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "== build + full test suite =="
cmake -B build -S . "$@"
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure

echo "== C frontend smoke: compile, verify, round-trip the committed corpus =="
# Every examples/corpus_c program must compile through the C frontend,
# pass the IR verifier, and round-trip byte-exactly through the printer
# and parser (--check-corpus exits non-zero otherwise). Then recompile
# into a scratch dir and diff against the committed fuzz/corpus lowering:
# frontend changes must regenerate cc-*.ccra in the same commit.
./build/tools/ccra_cc --check-corpus examples/corpus_c/*.c
rm -rf build/cc-corpus-check
./build/tools/ccra_cc --emit-corpus=build/cc-corpus-check \
      examples/corpus_c/*.c > /dev/null
for f in build/cc-corpus-check/cc-*.ccra; do
  diff -u "fuzz/corpus/$(basename "$f")" "$f"
done

echo "== ThreadSanitizer: tests labeled 'concurrency' (tests/CMakeLists.txt) =="
cmake -B build-tsan -S . -DCCRA_TSAN=ON "$@"
cmake --build build-tsan -j "$JOBS" --target test_parallel test_telemetry \
      test_service test_cache test_binarycodec
ctest --test-dir build-tsan --output-on-failure -L concurrency

echo "== Release perf_scaling: worklist vs reference simplifier =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release "$@"
cmake --build build-release -j "$JOBS" --target perf_scaling
(cd build-release && ./bench/perf_scaling)

echo "== Differential-fuzz smoke: oracle lattice over the fixed seed range =="
cmake --build build-release -j "$JOBS" --target ccra_fuzz
# --smoke pins the seed range and shrink budget; the 10-minute box only
# guards against a pathological slowdown, it is not reached normally.
./build-release/tools/ccra_fuzz --smoke --time-budget=600 --keep-going

echo "== Codec sweep: wire v2 encode/decode equivalent to the text path =="
./build-release/tools/ccra_fuzz --codec-sweep=500

echo "== Service smokes: burst + drain via .github/scripts/service_smoke.sh =="
cmake --build build-release -j "$JOBS" --target ccra_serve ccra_client \
      perf_service
# 200 mixed requests (valid across the proxy/config grid, malformed
# frames, tiny deadlines) from 4 concurrent clients; every valid response
# is checked bit-identical to in-process allocation.
.github/scripts/service_smoke.sh --build-dir=build-release \
      --requests=200 --clients=4 --stats
# Zipf-sampled cases repeat, so the burst exits non-zero unless the
# daemon's STATS report a nonzero cache hit count AND every response
# (cached or cold) is bit-identical to in-process allocation.
.github/scripts/service_smoke.sh --build-dir=build-release \
      --requests=300 --clients=4 --serve-args="--shards=2" \
      --client-args="--zipf"
# The same mixed burst over the binary module codec (wire v2).
.github/scripts/service_smoke.sh --build-dir=build-release \
      --requests=200 --clients=4 --client-args="--wire=v2"

echo "== Service gate: abuse soak, mid-flight drain, c10k (perf_service) =="
(cd build-release && ./bench/perf_service \
      --requests="${SOAK_REQUESTS:-10000}" \
      --c10k-connections="${C10K_CONNECTIONS:-10000}")

echo "== Benchmark output and trace checks (ccrabench, Release) =="
# The same stage CI runs: every operation's output must match its
# reference bit for bit, and the traced run must pass its span
# self-check. run.py builds its own Release binary and exits non-zero
# otherwise.
for w in cc-compile large-fn; do
  python3 ccrabench/run.py --workload "$w" --seed 7 --seconds 5 --trace 1
done

echo "check.sh: all green"
