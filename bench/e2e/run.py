#!/usr/bin/env python3
"""Builds bench_e2e from this checkout's sources and runs one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/e2e under the checkout root: configured
once, then rebuilt incrementally. Build output goes to stderr, so the last
stdout line stays the benchmark's JSON result. With --trace 1 the Chrome
trace lands in .bench_build/e2e/trace.json unless --trace-out names a file.

Exit codes are bench_e2e's (0 ok, 1 an output check failed, 2 bad command
line), plus 2 when the adavp sources are missing, 3 when the build fails
and 124 when the run exceeds its time limit.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
RUN_TIMEOUT_S = 170


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print(f"run.py: adavp sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(step), file=sys.stderr)
            return 3
    command = [os.path.join(BUILD, "bench_e2e"),
               "--trace-out", os.path.join(BUILD, "trace.json")] + sys.argv[1:]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: bench_e2e ran longer than {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
