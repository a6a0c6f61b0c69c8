"""Tiny-size smoke check of the benchmark's output schema.

Usage: python3 bench/smoke.py

Runs every workload of BENCHMARK.json at tiny size, untraced and traced,
and checks that each run is correct and emits every metric the file
names, with the file's unit.  Timings are not checked.  Exits 1 on the
first problem, 0 when all runs pass (about half a minute).
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = spec["command"]
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = command + ["--workload", workload["name"], "--seed", "0",
                              "--seconds", "0.1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
            label = f"{workload['name']} --trace {trace}"
            if proc.returncode != 0:
                print(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                print(f"{label}: not correct: {result}")
                return 1
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    print(f"{label}: metric {metric['name']} missing or unit differs: {got}")
                    return 1
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                print(f"{label}: metrics not in BENCHMARK.json: {sorted(extra)}")
                return 1
            print(f"{label}: ok, {len(spec[key])} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
