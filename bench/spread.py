"""Run the benchmark over several seeds and report each metric's spread.

Usage:
    python3 bench/spread.py --workload NAME --seeds 101-110 [--seconds S] [--out FILE]
    python3 bench/spread.py --load FILE

For every metric it prints the median, the quartiles and the spread
(third minus first quartile over the median, as
``statistics.quantiles(values, n=4)`` gives them).  ``--out`` saves the
raw results as JSON lines; ``--load`` summarises a saved file instead of
running.  Comparing two commits means running this on each with the same
seeds and settings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(rows: list[dict]) -> dict:
    """{workload: {metric: {median, q1, q3, spread, unit}}} over rows."""
    values: dict = {}
    for row in rows:
        for name, metric in row["result"]["metrics"].items():
            entry = values.setdefault(row["workload"], {}).setdefault(name, [metric["unit"]])
            entry.append(metric["value"])
    out = {}
    for workload, metrics in values.items():
        for name, (unit, *vals) in metrics.items():
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            median = statistics.median(vals)
            out.setdefault(workload, {})[name] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0, "unit": unit, "runs": len(vals),
            }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--out")
    parser.add_argument("--load")
    args = parser.parse_args()
    if args.load:
        rows = [json.loads(line) for line in Path(args.load).read_text().splitlines() if line]
    else:
        if not args.workload:
            parser.error("--workload is required unless --load is given")
        rows = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", args.seconds],
                stdout=subprocess.PIPE, text=True, check=True, timeout=900,
            )
            row = {"workload": args.workload, "seed": seed,
                   "result": json.loads(proc.stdout.strip().splitlines()[-1])}
            rows.append(row)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(row) + "\n")
    if not all(row["result"]["correct"] for row in rows):
        print("some runs were not correct")
    for workload, metrics in summarize(rows).items():
        for name, s in metrics.items():
            print(f"{workload:<7} {name:<16} median {s['median']:<12.5g} q1 {s['q1']:<12.5g} "
                  f"q3 {s['q3']:<12.5g} spread {s['spread']:.3f}  ({s['runs']} runs, {s['unit']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
