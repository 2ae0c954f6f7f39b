#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

    python3 perfbench/run.py --workload kv-typed --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The executable is built with dune in
release profile into .bench_build/ (the shared dune cache is disabled, so
nothing is written outside the checkout); its arguments are passed on
unchanged and its exit code is returned.  The last line of standard output
is the benchmark's JSON result; build output goes to standard error.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"
RUN_TIMEOUT_S = 175


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = [
        "dune", "build", "--root", ".", "--profile", "release", "-j", "2",
        "--build-dir", BUILD_DIR, TARGET,
    ]
    try:
        done = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot start dune: {e}", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
