"""Command-line front end.

Commands: `instances`, `eval`, `table`, `psi`, `oracle`.  Exit codes:
0 success, 1 oracle mismatches, 2 parse/usage errors (expressions,
instance names, model files), 3 precision exhausted, 4 contract
violations (well-formed element data outside the instance's group).
Each command returns (exit code, JSON payload, text lines) and prints
nothing; `entry` prints one of the two forms to stdout once the whole
result is built, so stdout stays empty on every error.  `entry(argv)`
returns the exit code for every argv, `--help` included, and never raises
SystemExit: an argument error is one `error: commensurate <cmd>: ...`
line on stderr with exit 2, like every other error.
Output is deterministic; randomized oracle runs are seeded from the
COMMENSURATE_SEED environment variable (default 0).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .core import ContractViolation, PrecisionExhausted, quoted, read_int
from .expr import ExprError, PsiValue, evaluate
from .registry import (
    INSTANCE_PATTERNS,
    builtin_instances,
    finite_model_pair,
    load_model,
    resolve_instance,
    resolve_target,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_CONTRACT = 4

#: Most trials one oracle run takes: 100 000 take about 2.2 s on models/s5.model
#: (Python 3.11, one core of a 2-vCPU Xeon host).
MAX_TRIALS = 100_000


def _displayed(what: str, show, *args) -> str:
    """show(*args), or one line naming ``what`` when it is too long to print.

    Python caps int-to-str conversion, so an exact value can be too long
    to show; with the cap lifted (0), only the exact-size bound refuses.
    A refusal raises while the result is being built, so stdout is empty.
    """
    try:
        return show(*args)
    except ValueError:
        from .core import MAX_EXACT_BITS

        limit = sys.get_int_max_str_digits()
        bound = f"the display limit of {limit} digits" if limit else f"the bound of {MAX_EXACT_BITS} bits"
        raise ValueError(f"{what} exceeds {bound}") from None


def cmd_instances(args):
    payload = {
        "instances": [
            {"name": p.name, "description": p.describe(), "targets": p.target_names}
            for p in builtin_instances()
        ],
        "patterns": [
            {"pattern": pat, "description": desc} for pat, desc in INSTANCE_PATTERNS
        ],
    }
    lines = []
    for row in payload["instances"]:
        lines.append(f"{row['name']:<8} {row['description']}")
        if row["targets"]:
            lines.append(f"{'':<8} targets: {', '.join(row['targets'])}")
    lines += ["", "name patterns:", *(f"  {pat:<14} {desc}" for pat, desc in INSTANCE_PATTERNS)]
    return EXIT_OK, payload, lines


def _psi_result(args, target: str, value):
    text = _displayed("psi value", str, value)
    payload = {
        "instance": args.instance,
        "target": target,
        "requested_depth": args.depth,
        "value": text,
    }
    return EXIT_OK, payload, [text]


def cmd_eval(args):
    pair = resolve_instance(args.instance)
    result = evaluate(args.expr, pair, args.depth)
    if isinstance(result, PsiValue):
        return _psi_result(args, result.target, result.value)
    levels, level_lines = [], []
    for d in range(result.depth + 1):
        index = pair.level_index(d)
        index_text = _displayed(f"level {d}: modulus/index", str, index)
        rep = _displayed(f"level {d}: rep", pair.level_rep, result.rep, d)
        levels.append({"level": d, "modulus_or_index": index, "rep": rep})
        level_lines.append(f"level {d}: modulus/index {index_text}, rep {rep}")
    rep = _displayed("rep", pair.format_element, result.rep)
    payload = {
        "instance": args.instance,
        "requested_depth": args.depth,
        "attained_depth": result.depth,
        "rep": rep,
        "levels": levels,
    }
    head = [] if args.command == "table" else [
        f"instance: {args.instance}",
        f"requested depth: {args.depth}",
        f"attained depth: {result.depth}",
        f"rep: {rep}",
    ]
    return EXIT_OK, payload, head + level_lines


def cmd_psi(args):
    pair = resolve_instance(args.instance)
    result = evaluate(args.expr, pair, args.depth)
    if isinstance(result, PsiValue):
        raise ExprError("psi(...) cannot be passed to psi", 0)
    return _psi_result(args, args.target, resolve_target(pair, args.target).evaluate(result))


def run_model_suite(pair, trials: int, rng):
    """The oracle report for ``pair``; the oracle module loads on first use."""
    from .oracle import compare_engine

    return compare_engine(pair, trials, rng)


def cmd_oracle(args):
    import random

    if args.trials < 0:
        raise ValueError(f"trials must be >= 0, got {args.trials}")
    if args.trials > MAX_TRIALS:
        raise ValueError(f"trials exceeds the limit of {MAX_TRIALS}")
    text = os.environ.get("COMMENSURATE_SEED", "0")
    seed = read_int(text, "COMMENSURATE_SEED",
                    f"COMMENSURATE_SEED must be an integer, got {quoted(text)}")
    pair = finite_model_pair(load_model(args.model))
    report = run_model_suite(pair, args.trials, random.Random(seed))
    payload = {"model": report.model, "trials": report.trials, "mismatches": report.mismatches}
    lines = [
        f"model: {report.model}",
        f"trials: {report.trials}",
        f"mismatches: {len(report.mismatches)}",
        *(f"  {m['op']}: inputs {m['inputs']}; expected {m['expected']}; got {m['got']}"
          for m in report.mismatches),
    ]
    return (EXIT_OK if report.ok else EXIT_MISMATCH), payload, lines


def _int_argument(text: str) -> int:
    """An --depth or --trials value; argparse prefixes the option's name."""
    return read_int(text, malformed=f"invalid int value: {quoted(text)}",
                    error=argparse.ArgumentTypeError)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose two exits go through entry's handlers: a
    usage error raises ValueError, and the help is written by a plain print,
    so a failed write raises OSError instead of being swallowed."""

    def error(self, message):
        # argparse echoes some arguments as given; escape them to keep one line
        message = "".join(c if c.isprintable() else repr(c)[1:-1] for c in message)
        raise ValueError(f"{self.prog}: {message}")

    def _check_value(self, action, value):
        # argparse in Python 3.13.13 prints the choices unquoted; quote them, as 3.10 does
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            message = f"invalid choice: {value!r} (choose from {choices})"
            raise argparse.ArgumentError(action, message)
        super()._check_value(action, value)

    def print_help(self, file=None):
        print(self.format_help(), end="", file=file, flush=True)


@functools.cache  # built on the first entry() call, then shared by every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="commensurate",
        description=(
            "Finite-precision arithmetic in group completions along "
            "commensurated subgroup chains."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)  # subparsers are _Parsers too
    depth = ("--depth", 8)
    for name, help_text, run, positionals, int_option in (
        ("instances", "list available instances and targets", cmd_instances, (), None),
        ("eval", "evaluate an expression at a depth", cmd_eval, ("instance", "expr"), depth),
        ("table", "per-level coset table of an expression", cmd_eval, ("instance", "expr"), depth),
        ("psi", "evaluate an expression through a target", cmd_psi,
         ("instance", "target", "expr"), depth),
        ("oracle", "run the brute-force suites on a model file", cmd_oracle, ("model",),
         ("--trials", 200)),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        for positional in positionals:
            p.add_argument(positional)
        if int_option:
            p.add_argument(int_option[0], type=_int_argument, default=int_option[1])
        p.add_argument("--json", action="store_true")
    return parser


def entry(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if [] in vars(args).values():
            # argparse before Python 3.13 reads a "--" after the "--" separator as []
            raise ValueError("'--' is not a valid argument")
        code, payload, lines = args.run(args)
        if args.json:  # only a --json run loads json
            import json

            text = json.dumps(payload, indent=2)
        else:
            text = "\n".join(lines)
        # the flush makes a closed pipe fail here, not at interpreter exit
        print(text, flush=True)
        return code
    except SystemExit as done:  # only argparse's help action, once the help is written
        return done.code
    except ContractViolation as err:
        code, message = EXIT_CONTRACT, err
    except PrecisionExhausted as err:
        code, message = EXIT_PRECISION, f"{err} (required depth {err.required_depth})"
    except (OSError, ValueError) as err:
        code, message = EXIT_USAGE, err
        if isinstance(err, BrokenPipeError):
            _discard(sys.stdout)
    try:
        print(f"error: {message}", file=sys.stderr, flush=True)
    except OSError:
        _discard(sys.stderr)  # the exit code is all that can still be reported
    return code


def _discard(stream) -> None:
    """Point a stream whose reader has gone at os.devnull, so that the
    interpreter's flush at exit drops what is still buffered instead of
    failing with exit code 120."""
    try:
        fd = stream.fileno()
    except (OSError, ValueError):
        return  # no file descriptor, so nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(entry())
