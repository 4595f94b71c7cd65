#!/usr/bin/env python3
"""Build and run the service benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the repository's libraries, xtalkd and the service_load load generator
(Release) into .bench_build/perfbench, then runs one workload. All
results come from service_load: its last stdout line is the JSON result.
Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_logged(cmd, log, timeout):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                          timeout=timeout).returncode == 0


def build():
    """Configure once, then build incrementally; False on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        ok = (os.path.exists(os.path.join(BUILD_DIR, "Makefile")) or
              run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"], log,
                         BUILD_TIMEOUT_S))
        ok = ok and run_logged(
            ["cmake", "--build", BUILD_DIR, "--target", "service_load",
             "xtalkd", "-j", jobs], log, BUILD_TIMEOUT_S)
    if not ok:
        with open(log_path) as log:
            sys.stderr.write(log.read()[-4000:])
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        if not build():
            sys.stderr.write("perfbench: build failed\n")
            return 1
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: build timed out\n")
        return 1

    cmd = [os.path.join(BUILD_DIR, "service_load"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--xtalkd", os.path.join(BUILD_DIR, "xtalk", "tools", "xtalkd"),
           "--out", os.path.relpath(BUILD_ROOT)]
    sys.stdout.flush()
    # Own process group, so a timeout also takes down a spawned xtalkd.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: run timed out\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
