#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--trace-dir DIR]

The C++ benchmark (perfbench/src) is configured and built into
.bench_build/perfbench of the checkout on first use; later runs only check
that the build is current. The last line of standard output is the run's
JSON result; build output goes to standard error.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "hdiff", "jacobi3d_8dev", "fuzz")
# A run measures for --seconds and then checks its outputs; no workload
# needs more than this past its measured time.
RUN_SLACK_S = 150


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        # Two runs started side by side build once.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(max(1, min(os.cpu_count() or 1, 8)))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "sf_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--trace-dir")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: the StencilFlow sources (src/) are not next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return 2
    try:
        binary = build(os.path.join(ROOT, ".bench_build", "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"error: building the benchmark failed: {err}", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace_dir:
        command += ["--trace-dir", os.path.abspath(args.trace_dir)]
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=max(args.seconds, 0) + RUN_SLACK_S).returncode
    except subprocess.TimeoutExpired:
        print("error: the benchmark did not finish in time", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
