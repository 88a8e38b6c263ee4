#!/usr/bin/env python3
"""Build (if needed) and run the swcodegen end-to-end benchmark.

    python3 e2ebench/run.py --workload gemm-small --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --self-test

Run from the repository root.  The first run configures and builds the
benchmark and the swcodegen libraries in .bench_build/e2ebench at the fixed
Release build type; later runs only check that build is current.  Build
output goes to stderr, so the last line of stdout is always the benchmark's
JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the swcodegen sources (src/) are not next to e2ebench/; "
             "run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "e2ebench",
                  "--parallel", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def main():
    build()
    sys.stdout.flush()
    done = subprocess.run([BINARY] + sys.argv[1:])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
