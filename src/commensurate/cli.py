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
import functools
import json
import os
import random
import sys

from .core import CompletionElement, ContractViolation, PrecisionExhausted
from .expr import ExprError, PsiValue, evaluate
from .finitemodel import ModelError, finite_model_pair, load_model
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


def _displayed(what: str, show, *args) -> str:
    """show(*args), or one line naming ``what`` when it is too long to print.

    Python caps int-to-str conversion, so an exact value can be too long
    to show.  Commands pass every value through here before printing any,
    so a refusal leaves stdout empty.
    """
    try:
        return show(*args)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{what} exceeds the display limit of {limit} digits") from None


def _element_payload(name: str, pair, requested: int, f: CompletionElement) -> dict:
    levels = []
    for d in range(f.depth + 1):
        index = pair.level_index(d)
        _displayed(f"level {d}: modulus/index", str, index)
        rep = _displayed(f"level {d}: rep", pair.level_rep, f.rep, d)
        levels.append({"level": d, "modulus_or_index": index, "rep": rep})
    return {
        "instance": name,
        "requested_depth": requested,
        "attained_depth": f.depth,
        "rep": _displayed("rep", pair.format_element, f.rep),
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
    text = _displayed("psi value", str, value)
    if args.json:
        _print_json(
            {
                "instance": args.instance,
                "target": target,
                "requested_depth": args.depth,
                "value": text,
            }
        )
    else:
        print(text)


def cmd_eval(args, table_only: bool = False) -> int:
    pair = resolve_instance(args.instance)
    result = evaluate(args.expr, pair, args.depth)
    if isinstance(result, PsiValue):
        _print_psi(args, result.target, result.value)
        return EXIT_OK
    payload = _element_payload(args.instance, pair, args.depth, result)
    if args.json:
        _print_json(payload)
        return EXIT_OK
    lines = [] if table_only else [
        f"instance: {payload['instance']}",
        f"requested depth: {payload['requested_depth']}",
        f"attained depth: {payload['attained_depth']}",
        f"rep: {payload['rep']}",
    ]
    print("\n".join(lines + _level_lines(payload)))
    return EXIT_OK


def cmd_psi(args) -> int:
    pair = resolve_instance(args.instance)
    result = evaluate(args.expr, pair, args.depth)
    if isinstance(result, PsiValue):
        raise ExprError("psi(...) cannot be passed to psi", 0)
    _print_psi(args, args.target, resolve_target(pair, args.target).evaluate(result))
    return EXIT_OK


def run_model_suite(pair, trials: int, rng):
    """The oracle report for ``pair``; the oracle module loads on first use."""
    from .oracle import compare_engine

    return compare_engine(pair, trials, rng)


def cmd_oracle(args) -> int:
    if args.trials < 0:
        raise ValueError(f"trials must be >= 0, got {args.trials}")
    seed = os.environ.get("COMMENSURATE_SEED", "0")
    try:
        seed = int(seed)
    except ValueError:
        raise ValueError(f"COMMENSURATE_SEED must be an integer, got {seed!r}") from None
    pair = finite_model_pair(load_model(args.model))
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


@functools.cache  # built on the first entry() call, then shared by every call
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
    p.set_defaults(run=cmd_instances)
    p.add_argument("--json", action="store_true")

    for cmd, help_text, run in (
        ("eval", "evaluate an expression at a depth", cmd_eval),
        ("table", "per-level coset table of an expression",
         functools.partial(cmd_eval, table_only=True)),
    ):
        p = sub.add_parser(cmd, help=help_text)
        p.set_defaults(run=run)
        p.add_argument("instance")
        p.add_argument("expr")
        p.add_argument("--depth", type=int, default=8)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("psi", help="evaluate an expression through a target")
    p.set_defaults(run=cmd_psi)
    p.add_argument("instance")
    p.add_argument("target")
    p.add_argument("expr")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("oracle", help="run the brute-force suites on a model file")
    p.set_defaults(run=cmd_oracle)
    p.add_argument("model")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--json", action="store_true")

    return parser


def entry(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if [] in vars(args).values():
        # argparse before Python 3.13 reads a "--" after the "--" separator as []
        print("error: '--' is not a valid argument", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.run(args)
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
