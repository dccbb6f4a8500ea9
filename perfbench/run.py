#!/usr/bin/env python3
"""Broker-pipeline benchmark: build, generate the seed's inputs, run a workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_churn --seed 1 --seconds 14 --trace 0
    python3 perfbench/run.py --workload serve_churn --seed 1 --seconds 14 --trace 1
    python3 perfbench/run.py --selftest

The library is built from ../src into $CARGO_TARGET_DIR (default
.bench_build) with the repository's default settings; inputs are cached per
seed under <build>/inputs and traced runs write under <build>/results. Every
timed phase runs with BSR_THREADS=1. The last line of stdout is the JSON
result; build logs go to stderr. Exit status: 0 ok, 1 an output check
failed, 2 a usage, build or input error (no result printed).
"""

import argparse
import os
import pathlib
import subprocess
import sys

WORKLOADS = ("serve_churn", "stress")
HERE = pathlib.Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, target):
    cmake_dir = root / "cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", str(HERE), "-B", str(cmake_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(cmake_dir), "-j", jobs, "--target", target],
    )
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return cmake_dir / target


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=14)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, BSR_THREADS="1")
    if args.selftest:
        binary = build(root, "bsrbench_selftest")
        sys.exit(subprocess.run([str(binary), str(root / "selftest")], env=env).returncode)
    if args.workload is None:
        fail("--workload is required")

    binary = build(root, "bsrbench")
    inputs = root / "inputs" / f"seed-{args.seed}"
    gen = [str(binary), "gen", "--seed", str(args.seed), "--dir", str(inputs)]
    if args.workload == "stress":
        gen.append("--stress")
    if subprocess.run(gen, stdout=sys.stderr, env=env).returncode != 0:
        fail("input generation failed")

    cmd = [str(binary), "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inputs", str(inputs), "--out", str(root / "results")]
    try:
        status = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(status if status in (0, 1) else 2)


if __name__ == "__main__":
    main()
