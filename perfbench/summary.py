"""Run every workload once, one after another, and print all their metrics.

    python3 perfbench/summary.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs as its own ``run.py`` process, exactly as a single
benchmark run would; this script only collects and prints what they report.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    status = 0
    for name in run.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            check=False,
        )
        print(f"== {name}")
        if proc.returncode != 0:
            print(f"  exit code {proc.returncode}: {proc.stderr[-500:]}")
            status = 1
            continue
        *notes, last = proc.stdout.strip().splitlines()
        result = json.loads(last)
        for line in notes:
            print(f"  {line}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:24} {m['value']:>16.6g} {m['unit']}")
        print(f"  correct={result['correct']} failed/attempted={result['failed']}/{result['attempted']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
