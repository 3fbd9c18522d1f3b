#!/usr/bin/env python3
"""Builds and runs the armgemm GEMM benchmark for one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the perfbench binary from source into .bench_build/perfbench; later runs
only check that the build is current. With --trace 0 the last line of
standard output is the JSON result with the end-to-end metrics; set-up
time is the median over this run and SETUP_RUNS fresh set-up-only
processes. With --trace 1 it carries the per-layer metrics, and a Chrome
trace goes to .bench_build/traces/. The exit code is non-zero when the
build fails, a verification or roof check fails, or the tuner ran probes.
"""
import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
SETUP_RUNS = 4
RUN_TIMEOUT_S = 170


def build():
    """Configures once and builds; concurrent runs serialize on a lock."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(cmd))


def child_env():
    # Library knobs from the caller's environment would change what is
    # measured; the binary pins what it needs through the C API.
    return {k: v for k, v in os.environ.items() if not k.startswith("ARMGEMM_")}


def run_binary(args):
    """Runs the binary; returns (exit code, output lines before the last, last line)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True,
                          env=child_env(), timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    return proc.returncode, lines[:-1], lines[-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS):
            code, _, last = run_binary(common + ["--seconds", "1", "--trace", "0",
                                                 "--mode", "setup"])
            if code != 0:
                sys.exit("perfbench: set-up run failed: " + last)
            setups.append(json.loads(last)["setup_s"])

    run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        run_args += ["--trace-out",
                     os.path.join(TRACES, "%s-seed%d.json" % (args.workload, args.seed))]
    code, lines, last = run_binary(run_args)
    for line in lines:
        print(line)
    try:
        result = json.loads(last)
    except ValueError:
        sys.exit("perfbench: no result from the binary (exit %d): %s" % (code, last))
    if setups:
        setups.append(result["metrics"]["setup_s"]["value"])
        print("setup_s over %d processes: %s" % (len(setups),
                                                 ", ".join("%.4f" % s for s in setups)))
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result))
    sys.exit(0 if code == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
