#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2e_bench/run.py --workload paper-fpga --seed 1 --seconds 15 --trace 0
    python3 e2e_bench/run.py --selftest

The build is a Release CMake build of e2e_bench/ (which compiles the
library under src/) into $CARGO_TARGET_DIR/e2e_bench, or
.bench_build/e2e_bench when that variable is unset; the first run
builds, later runs only check that the build is current.  Build output
goes to stderr, so the last line of stdout stays the benchmark's JSON
result.  Exits non-zero, without a result, when the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "e2e_bench")


def run_quiet(cmd):
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", out, *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out, "-j", jobs])
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out = build()
    if args.selftest:
        cmd = [os.path.join(out, "e2e_selftest")]
    else:
        cmd = [os.path.join(out, "e2e_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scratch", os.path.join(out, "scratch")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: {cmd[0]} did not finish in {RUN_TIMEOUT_S} s\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
