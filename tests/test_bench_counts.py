"""Work budgets: the deterministic counts of a tiny traced benchmark run.

``bench/run.py --workload all --seed 101 --tiny --trace 1`` records, per
workload, how many calls each layer made, the bytes the CLI wrote and a
few ratios of counts.  Those metrics do not depend on timing or on the
hash seed, so any change in them is a change in the work the program
does.  This test pins them in ``golden/bench_counts.json``.  A change that
moves a count regenerates the file with UPDATE_GOLDEN=1 and names each
changed metric in CHANGES.md.

Left out: every ``*_ms`` metric and ``trace.overhead_frac``, which are
timings, and ``core.in_level_per_valuation``, which counts a call path
that ``valuation`` no longer takes and so reads 0 whatever the work.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
COUNTS = pathlib.Path(__file__).resolve().parent / "golden" / "bench_counts.json"
ARGV = ["bench/run.py", "--workload", "all", "--seed", "101", "--tiny", "--trace", "1"]
UNGATED = ("trace.overhead_frac", "core.in_level_per_valuation")


def _gated(name: str) -> bool:
    return not name.endswith("_ms") and not name.endswith(UNGATED)


def test_tiny_traced_benchmark_counts_match_the_committed_budget():
    proc = subprocess.run(
        [sys.executable, *ARGV], cwd=ROOT, stdout=subprocess.PIPE, text=True,
        check=True, timeout=300,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], f"{result['failed']} of {result['attempted']} requests failed"
    counts = {
        name: metric["value"] for name, metric in sorted(result["metrics"].items())
        if _gated(name)
    }
    if os.environ.get("UPDATE_GOLDEN"):
        COUNTS.write_text(json.dumps(counts, indent=2) + "\n", encoding="utf-8")
    committed = json.loads(COUNTS.read_text(encoding="utf-8"))
    changed = [
        f"{name}: committed {committed.get(name)!r}, now {counts.get(name)!r}"
        for name in sorted(committed.keys() | counts.keys())
        if committed.get(name) != counts.get(name)
    ]
    assert not changed, "work counts changed:\n" + "\n".join(changed)
    assert len(counts) == 90
