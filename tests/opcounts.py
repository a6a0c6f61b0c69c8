"""Executed bytecodes per benchmark workload: a work count that does not
move with the host.

    python tests/opcounts.py [--workload {deep,words,oracle,all}] [--tiny]

Each workload is counted in a fresh interpreter started with
``PYTHONHASHSEED=0`` and ``PYTHONDONTWRITEBYTECODE=1`` in the checkout
root, with the package imported from ``src``.  The workload's
``Workload`` and ``Runner`` come from ``bench/run.py``'s
``workload_module``, read only.  After 50 warm requests from
``generate(-1)``, ``sys.settrace`` with ``f_trace_opcodes`` counts every
bytecode that the ``Runner.execute`` calls run in Python frames, and
nothing else: not ``prepare``, not ``check``.  ``deep`` runs seed 4242,
batches 0-7; ``words`` and ``oracle`` run seed 4242, batch 0.  Every
result is checked as the benchmark checks it, so a count is the work of
requests that succeeded.  Work done in C (big-int arithmetic, ``re``)
counts nothing, so the count locates and gates work; wall time in
alternating pairs still decides a speedup.

The last line of standard output is one JSON object:
``{"python": "<major.minor>", "counts": {"<workload>.opcodes": n}}``.
Bytecode differs between CPython versions, so a count names the
interpreter it was taken on.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("deep", "words", "oracle")
SEED = 4242
BATCHES = {"deep": range(8), "words": range(1), "oracle": range(1)}
WARM_REQUESTS = 50
ENV = {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}


def count_workload(name: str, tiny: bool) -> int:
    """Bytecodes that the workload's Runner.execute calls run; this process only."""
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    import run

    module = run.workload_module(name)
    workload = module.Workload(ROOT, run.OUT, SEED, tiny)
    runner = module.Runner()
    for job in runner.prepare(workload.generate(-1)[:WARM_REQUESTS]):
        runner.execute(job)

    count = 0

    def opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return opcode

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return opcode

    for batch in BATCHES[name]:
        requests = workload.generate(batch)
        for i, job in enumerate(runner.prepare(requests)):
            sys.settrace(call)
            try:
                result = runner.execute(job)
            finally:
                sys.settrace(None)
            if not runner.check(requests, i, result):
                raise RuntimeError(f"{name}: request {requests[i]!r} failed: {result!r}"[:2000])
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--tiny", action="store_true",
                        help="the benchmark's small batches, for a quick check")
    args = parser.parse_args(argv)
    counts = {}
    if args.workload == "all" or any(os.environ.get(k) != v for k, v in ENV.items()):
        # one fresh interpreter per workload, so no count sees another's caches
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name] + (["--tiny"] if args.tiny else []),
                cwd=ROOT, env={**os.environ, **ENV}, stdout=subprocess.PIPE, text=True,
                check=True, timeout=600,
            )
            counts.update(json.loads(proc.stdout.strip().splitlines()[-1])["counts"])
    else:
        os.chdir(ROOT)
        counts[f"{args.workload}.opcodes"] = count_workload(args.workload, args.tiny)
    for metric, value in counts.items():
        print(f"  {metric:<16} {value:>12} count")
    python = "{}.{}".format(*sys.version_info)
    print(json.dumps({"python": python, "counts": counts}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
