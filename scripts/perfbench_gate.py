#!/usr/bin/env python3
"""Run repository-benchmark workloads once as a correctness gate.

    python3 scripts/perfbench_gate.py <workload> [<workload> ...]

Runs `perfbench/run.py --workload <w> --seed 7919 --seconds 1 --trace 0`
for each workload in turn from the repository root, echoes its output and
saves it to target/perfbench-<w>.txt. Exits non-zero unless every run
exits 0 and its final stdout line, the JSON verdict, has "correct": true
and "failed": 0.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def gate(workload):
    run = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7919", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    sys.stdout.write(run.stdout)
    os.makedirs(os.path.join(ROOT, "target"), exist_ok=True)
    with open(os.path.join(ROOT, "target", f"perfbench-{workload}.txt"), "w") as out:
        out.write(run.stdout)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"{workload}: perfbench exited {run.returncode}")
        return False
    verdict = json.loads(lines[-1])
    print(f"{workload}: correct: {verdict['correct']} failed: {verdict['failed']}")
    return verdict["correct"] is True and verdict["failed"] == 0


def main():
    if len(sys.argv) < 2:
        sys.exit("usage: perfbench_gate.py <workload> [<workload> ...]")
    results = [gate(w) for w in sys.argv[1:]]
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
