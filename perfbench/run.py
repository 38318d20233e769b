#!/usr/bin/env python3
"""Build and run one PASO benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the library from ../src)
into .bench_build/perfbench; later calls rebuild only what changed. The last
line of standard output is the run's JSON result. The exit code is non-zero
when the build fails, a check fails or the run exceeds its time limit.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("sim-query", "threaded-batch")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "paso_perfbench"
# A run must end within 180 s; the first one in a checkout, which also
# builds, within 900 s.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 700


def fail(message):
    print(message, file=sys.stderr)
    sys.exit(1)


def build():
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    # One build at a time per checkout.
    with open(BUILD_DIR.parent / "perfbench.lock", "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_LIMIT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {step[0:2]} failed: {e}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))
    if not BINARY.exists():
        fail(f"build produced no {BINARY.name}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("seed must be >= 0 and seconds > 0")

    build()
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(spans / f"{args.workload}.csv")]

    started = time.monotonic()
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_LIMIT_S} s")
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        fail(f"benchmark exited with {done.returncode} after "
             f"{time.monotonic() - started:.1f} s")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] \
            or result["correct"] is not True:
        fail("benchmark result is malformed or not correct")


if __name__ == "__main__":
    main()
