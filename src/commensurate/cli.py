"""Command-line front end.

Commands: `instances`, `eval`, `table`, `psi`, `oracle`.  Exit codes:
0 success, 1 oracle mismatches, 2 parse/usage errors (expressions,
instance names, model files), 3 precision exhausted, 4 contract
violations (well-formed element data outside the instance's group).
Output is deterministic; randomized oracle runs are seeded from the
COMMENSURATE_SEED environment variable (default 0).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .core import CompletionElement, ContractViolation, PrecisionExhausted
from .expr import ExprError, PsiValue, evaluate
from .finitemodel import ModelError, finite_model_pair, load_model
from .oracle import run_model_suite
from .registry import (
    INSTANCE_PATTERNS,
    builtin_instances,
    resolve_instance,
    resolve_target,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_CONTRACT = 4


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _element_payload(name: str, pair, requested: int, f: CompletionElement) -> dict:
    levels = []
    for d in range(f.depth + 1):
        levels.append(
            {
                "level": d,
                "modulus_or_index": pair.level_index(d),
                "rep": pair.level_rep(f.rep, d),
            }
        )
    return {
        "instance": name,
        "requested_depth": requested,
        "attained_depth": f.depth,
        "rep": pair.format_element(f.rep),
        "levels": levels,
    }


def _level_lines(payload: dict) -> list[str]:
    return [
        f"level {row['level']}: modulus/index {row['modulus_or_index']}, "
        f"rep {row['rep']}"
        for row in payload["levels"]
    ]


def cmd_instances(args) -> int:
    pairs = builtin_instances()
    if args.json:
        _print_json(
            {
                "instances": [
                    {
                        "name": p.name,
                        "description": p.describe(),
                        "targets": p.target_names,
                    }
                    for p in pairs
                ],
                "patterns": [
                    {"pattern": pat, "description": desc}
                    for pat, desc in INSTANCE_PATTERNS
                ],
            }
        )
        return EXIT_OK
    for p in pairs:
        print(f"{p.name:<8} {p.describe()}")
        if p.target_names:
            print(f"{'':<8} targets: {', '.join(p.target_names)}")
    print()
    print("name patterns:")
    for pat, desc in INSTANCE_PATTERNS:
        print(f"  {pat:<14} {desc}")
    return EXIT_OK


def _print_psi(args, target: str, value) -> None:
    if args.json:
        _print_json(
            {
                "instance": args.instance,
                "target": target,
                "requested_depth": args.depth,
                "value": str(value),
            }
        )
    else:
        print(value)


def cmd_eval(args, table_only: bool = False) -> int:
    pair = resolve_instance(args.instance)
    result = evaluate(args.expr, pair, args.depth, resolve_target)
    if isinstance(result, PsiValue):
        _print_psi(args, result.target, result.value)
        return EXIT_OK
    payload = _element_payload(args.instance, pair, args.depth, result)
    if args.json:
        _print_json(payload)
        return EXIT_OK
    if not table_only:
        print(f"instance: {payload['instance']}")
        print(f"requested depth: {payload['requested_depth']}")
        print(f"attained depth: {payload['attained_depth']}")
        print(f"rep: {payload['rep']}")
    for line in _level_lines(payload):
        print(line)
    return EXIT_OK


def cmd_psi(args) -> int:
    pair = resolve_instance(args.instance)
    result = evaluate(args.expr, pair, args.depth, resolve_target)
    if isinstance(result, PsiValue):
        raise ExprError("psi(...) cannot be passed to psi", 0)
    _print_psi(args, args.target, resolve_target(pair, args.target).evaluate(result))
    return EXIT_OK


def cmd_oracle(args) -> int:
    pair = finite_model_pair(load_model(args.model))
    seed = int(os.environ.get("COMMENSURATE_SEED", "0"))
    report = run_model_suite(pair, args.trials, random.Random(seed))
    if args.json:
        print(report.to_json())
    else:
        print(f"model: {report.model}")
        print(f"trials: {report.trials}")
        print(f"mismatches: {len(report.mismatches)}")
        for entry_ in report.mismatches:
            print(
                f"  {entry_['op']}: inputs {entry_['inputs']}; "
                f"expected {entry_['expected']}; got {entry_['got']}"
            )
    return EXIT_OK if report.ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commensurate",
        description=(
            "Finite-precision arithmetic in group completions along "
            "commensurated subgroup chains."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("instances", help="list available instances and targets")
    p.add_argument("--json", action="store_true")

    for cmd, help_text in (
        ("eval", "evaluate an expression at a depth"),
        ("table", "per-level coset table of an expression"),
    ):
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument("instance")
        p.add_argument("expr")
        p.add_argument("--depth", type=int, default=8)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("psi", help="evaluate an expression through a target")
    p.add_argument("instance")
    p.add_argument("target")
    p.add_argument("expr")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("oracle", help="run the brute-force suites on a model file")
    p.add_argument("model")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--json", action="store_true")

    return parser


def entry(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "instances":
            return cmd_instances(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "table":
            return cmd_eval(args, table_only=True)
        if args.command == "psi":
            return cmd_psi(args)
        if args.command == "oracle":
            return cmd_oracle(args)
        raise AssertionError(args.command)
    except ContractViolation as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONTRACT
    except PrecisionExhausted as err:
        print(
            f"error: {err} (required depth {err.required_depth})", file=sys.stderr
        )
        return EXIT_PRECISION
    except KeyError as err:
        detail = err.args[0] if err.args else err
        print(f"error: {detail}", file=sys.stderr)
        return EXIT_USAGE
    except (ExprError, ModelError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(entry())
