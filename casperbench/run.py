#!/usr/bin/env python3
"""Build the Casper benchmark from source and run one workload.

    python3 casperbench/run.py --workload lunch_nn --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to .bench_build/ (CMake,
Release); its log goes to stderr. The benchmark's own stdout follows,
ending in one JSON line. Extra flags (--scale, --plant) pass through to
the binary; see README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "casperbench")
BINARY = os.path.join(BUILD_DIR, "casper_bench")


def build():
    """Configures (once) and incrementally builds the benchmark binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "casper_bench"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            return False
    return os.path.exists(BINARY)


def main():
    os.makedirs(BUILD_DIR, exist_ok=True)
    if not build():
        print("casperbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    result = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
