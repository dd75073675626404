"""Run every workload once, one after another, and print each metric by
name with its unit, plus the digest, fail share and per-command latencies.

    python3 perfbench/summary.py --seed 0 --seconds 30          # end to end
    python3 perfbench/summary.py --seed 0 --seconds 30 --trace  # per layer
"""

import argparse
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "1" if args.trace else "0"],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        print(f"== {workload}")
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:  # the last line is the JSON result
            print(f"   {line}")
        if proc.returncode != 0:
            print(proc.stderr, end="")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
