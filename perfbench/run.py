#!/usr/bin/env python3
"""Builds and runs the MiniCost benchmark (one workload per process).

Run from the repository root:

    python3 perfbench/run.py --workload plan-greedy --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the MiniCost libraries plus
the benchmark binary) into .bench_build/; later runs rebuild incrementally.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Extra flags (--smoke, --perturb-bill) pass through to the
binary; see perfbench/README.md.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
BINARY = os.path.join(CMAKE_DIR, "minicost_perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target",
                  "minicost_perfbench", "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    command = [BINARY] + sys.argv[1:] + ["--work-dir", WORK_DIR]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
