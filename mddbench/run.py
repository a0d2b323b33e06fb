#!/usr/bin/env python3
"""Entry point of the mddsim benchmark.

    python3 mddbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the benchmark program and the library
from this checkout's sources (Release, incremental, in .bench_build/mddbench),
runs one workload, and passes its output through.  The last stdout line is
the result object; build output goes to stderr.  Exits non-zero, printing no
result, when the build, the run or the result line fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_JOBS = "2"
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"mddbench: {msg}", file=sys.stderr)
    return 1


def step(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(e, file=sys.stderr)
        return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")

    work = os.path.join(os.getcwd(), ".bench_build")
    build = os.path.join(work, "mddbench")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        if not step(["cmake", "-S", HERE, "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return fail("configure failed")
    if not step(["cmake", "--build", build, "--target", "mddbench",
                 "-j", BUILD_JOBS], BUILD_TIMEOUT_S):
        return fail("build failed")

    cmd = [os.path.join(build, "mddbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--workdir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        return fail(f"mddbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return fail("no result line")
    if set(result) != RESULT_KEYS:
        return fail(f"result keys {sorted(result)}")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
