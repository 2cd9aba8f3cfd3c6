#!/usr/bin/env python3
"""Build ccra from source and run one benchmark workload.

    python3 ccrabench/run.py --workload cc-compile|large-fn|serve-zipf \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR when it
is set, else to .bench_build/, and is incremental: only the first run in a
checkout compiles everything. Build output goes to stderr; stdout carries
the workload's metric lines and, last, its JSON result line. The exit code
is the workload's: non-zero when the build fails, the sources are missing,
or a correctness check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cc-compile", "large-fn", "serve-zipf")
RUN_TIMEOUT_S = 170


def fail(message):
    print("ccrabench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds ccra_bench; returns the binary's path."""
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = "CMAKE_HOME_DIRECTORY:INTERNAL=" + BENCH_DIR
            stale = home not in f.read()
        if stale:  # configured for another checkout
            shutil.rmtree(out)
    if not os.path.exists(cache):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "ccra_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ccra sources next to the benchmark (expected src/ in %s)"
             % ROOT)
    binary = build(build_dir())
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--root", ROOT]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s"
             % (args.workload, RUN_TIMEOUT_S))


if __name__ == "__main__":
    sys.exit(main())
