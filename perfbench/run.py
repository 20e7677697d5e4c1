#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fig8-grid --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark is its own cargo package in
this directory; it is built from source into $CARGO_TARGET_DIR (default
`.bench_build`). The last line of standard output is the JSON result.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig8-grid", "contention", "trace-replay")
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {build.returncode})")

    work_dir = os.path.join(target, "perfbench-work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        run = subprocess.run(
            [os.path.join(target, "release", "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", args.trace,
             "--mix", os.path.join(ROOT, "configs", "mixes", "contention.mix"),
             "--work-dir", work_dir],
            cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
