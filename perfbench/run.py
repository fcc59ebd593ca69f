#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload grid-etl|tpch-cold|point-serve \
        --seed N --seconds S --trace 0|1

The engine (src/) and the benchmark program (perfbench/src/) are built with
CMake in .bench_build/perfbench; a rebuild is a no-op when nothing changed. Build
output goes to stderr, so the last line of stdout is the program's JSON
result. The traced run (--trace 1) writes its spans under
.bench_build/perfbench/traces. --bite runs the bite check of the answer
checks: the reference is corrupted after set-up, so the run must report
failed statements and "correct": false.
"""
import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "dtl_perfbench"
WORKLOADS = ("grid-etl", "tpch-cold", "point-serve")
# A run must end within 180 s; leave room for process start and the build
# check.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "sql" / "session.h").is_file():
        fail(f"no engine sources under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--bite", action="store_true",
                        help="corrupt the reference answers; the run must fail")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", str(BUILD_DIR / "traces"), "--bite", "1" if args.bite else "0"]
    proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        print(f"perfbench: dtl_perfbench exited with {proc.returncode}", file=sys.stderr)
        sys.exit(proc.returncode if proc.returncode > 0 else 1)


if __name__ == "__main__":
    main()
