#!/usr/bin/env bash
# Repository check: configure, build, and run the full test suite; then
# rebuild with ThreadSanitizer (-DCCRA_TSAN=ON) and rerun the
# concurrency-sensitive tests — the thread pool, the parallel-vs-serial
# determinism suite, and the telemetry recorder — under it; finally run
# the Release-mode perf smokes: the grid-throughput benchmark
# (bench/perf_grid) and the per-function scaling benchmark
# (bench/perf_scaling), which exit non-zero if the shared cache and pool
# change a result bit or the worklist simplifier ever differs from the
# O(V^2) reference one; and last, the time-boxed differential-fuzz smoke
# (tools/ccra_fuzz --smoke): a fixed seed range through the full oracle
# lattice — the same range the CI smoke step sweeps, so a local pass
# predicts a CI pass; and the serving
# stack's gates: a live ccra_serve daemon driven through a mixed client
# burst (valid + malformed frames) and drained with SIGTERM, a cache
# smoke (a Zipfian burst against a cache-enabled sharded daemon that must
# produce a nonzero hit rate with every response still bit-identical),
# then the soak (bench/perf_service) whose every valid response must be
# bit-identical to in-process allocation and whose Zipf phase must clear
# 100x the committed pre-cache baseline; and last, the benchmark's own
# output and trace checks (ccrabench/run.py on cc-compile and large-fn),
# as in CI.
#
# Usage: tools/check.sh [extra cmake args...]
#   JOBS=N   parallel build jobs (default: nproc)
#   SOAK_REQUESTS=N   perf_service soak size (default: 10000)
#   ZIPF_REQUESTS=N   perf_service Zipf phase size (default: 20000)
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

echo "== Release perf smokes: bit-identity gates (perf_grid, perf_scaling) =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release "$@"
cmake --build build-release -j "$JOBS" --target perf_grid perf_scaling
(cd build-release && ./bench/perf_grid)
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

echo "== Service soak gate (perf_service -> BENCH_service.json) =="
(cd build-release && ./bench/perf_service \
      --requests="${SOAK_REQUESTS:-10000}" \
      --zipf-requests="${ZIPF_REQUESTS:-20000}" \
      --c10k-connections="${C10K_CONNECTIONS:-10000}")

echo "== Bench gate: fresh Release numbers vs committed baselines =="
tools/bench_gate --baseline BENCH_service.json \
      --fresh build-release/BENCH_service.json
tools/bench_gate --baseline BENCH_grid.json \
      --fresh build-release/BENCH_grid.json

echo "== Benchmark output and trace checks (ccrabench, Release) =="
# The same stage CI runs: every operation's output must match its
# reference bit for bit, and the traced run must pass its span
# self-check. run.py builds its own Release binary and exits non-zero
# otherwise.
for w in cc-compile large-fn; do
  python3 ccrabench/run.py --workload "$w" --seed 7 --seconds 5 --trace 1
done

echo "check.sh: all green"
