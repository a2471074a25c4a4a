#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2e_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2e_bench/run.py --selftest

Run it from the repository root. The engine library (../src) and the driver
are compiled with CMake in Release mode into $CARGO_TARGET_DIR/e2e_bench
(default .bench_build/e2e_bench) under the current directory; the first run
builds, later runs only check that the build is current. Build output goes
to stderr, so the driver's JSON result stays the last line of stdout.

Workloads: lake_dashboard, batch_shuffle, realtime_mix (see driver.cc).
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_TYPE = "Release"


def build(build_dir, target):
    """Configures (once) and builds `target`; returns its path or None."""
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(configure, **quiet).returncode != 0:
            return None
    jobs = str(len(os.sched_getaffinity(0)))
    command = ["cmake", "--build", build_dir, "--target", target, "-j", jobs]
    if subprocess.run(command, **quiet).returncode != 0:
        return None
    return os.path.join(build_dir, target)


def git_sha():
    """HEAD of the repository the benchmark sits in, without looking above it."""
    root = os.path.dirname(BENCH_DIR)
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "e2e_bench"))
    target = "e2e_selftest" if args.selftest else "e2e_driver"
    binary = build(build_dir, target)
    if binary is None:
        print("build of %s failed" % target, file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([binary]).returncode
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--scratch", build_dir, "--git-sha", git_sha(), "--build-type", BUILD_TYPE]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
