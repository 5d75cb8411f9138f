#!/usr/bin/env python3
"""Builds the engine and the benchmark driver from this checkout, then runs
one workload and passes its output through (the result object is the last
line of stdout).

    python3 perfbench/run.py --workload oltp_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Build tree: .bench_build/perfbench; database files: .bench_build/data;
traces and per-run reports: .bench_out. All three sit at the checkout root
and are ignored by git.
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
DATA_DIR = ROOT / ".bench_build" / "data"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("oltp_mix", "analytics_cold", "ingest_durable")
# A run must end within 180 s; the driver's own window plus set-up stays far
# below this, so hitting it means something hangs.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then rebuilds what changed. Serialised by a lock so
    concurrent invocations in one checkout do not race on the build tree."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"engine sources missing: {ROOT / 'src'}")
        return False
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_DIR.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                      "--target", "perfbench", "perfbench_selftest"])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
                return False
    return True


def run(cmd, timeout):
    """Runs `cmd`, forwarding its stdout; kills it past `timeout`. Database
    files the driver left behind (it removes its own unless killed) go too."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"timed out after {timeout} s: {' '.join(cmd)}")
        return 1
    finally:
        for leftover in DATA_DIR.glob(f"*-{proc.pid}.db*"):
            leftover.unlink()
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="run the checks' self-test instead of a workload")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1
    if args.selftest:
        return run([str(BUILD_DIR / "perfbench_selftest")], RUN_TIMEOUT_S)

    DATA_DIR.mkdir(parents=True, exist_ok=True)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return run([str(BUILD_DIR / "perfbench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--data-dir", str(DATA_DIR),
                "--out-dir", str(OUT_DIR)], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
