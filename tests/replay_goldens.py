"""Replay every CLI golden case in this interpreter and compare the output.

    python tests/replay_goldens.py

Runs each case of ``golden_cases.py`` through ``commensurate.cli.entry``
from the repository root, with COLUMNS=80 and COMMENSURATE_SEED=0, and
compares the exit code and captured output with ``golden/<id>.txt`` in
the format the golden tests write.  Prints each case that differs, with
its first differing line as expected and as replayed (each by
``core.quoted``), then ``N/M match``.  No case loads ``fractions`` or
``decimal``: only the Fraction faces of ``bs12`` and ``sl2`` need them,
and no CLI run reaches a face.  A replay that loads either prints
``replay loaded: ...`` after the count.  The exit code is 1 when any case
differs or such a module was loaded.  Needs only the standard library,
so it runs on interpreters that have no pytest.
"""

import io
import os
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import zip_longest

# the modules loaded before the package is imported
PRELOADED = set(sys.modules)

TESTS = pathlib.Path(__file__).resolve().parent
ROOT = TESTS.parent
sys.path[:0] = [str(ROOT / "src"), str(TESTS)]

from commensurate.cli import entry  # noqa: E402
from commensurate.core import quoted  # noqa: E402
from golden_cases import CASES, EXPECTED_EXITS  # noqa: E402


def replay(argv) -> str:
    """The case's exit code, stdout and stderr, as one golden blob."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = entry(argv)
    return f"exit: {code}\n--- stdout ---\n{out.getvalue()}--- stderr ---\n{err.getvalue()}"


def first_difference(expected: str, replayed: str) -> str:
    """The first line at which two blobs differ, numbered, each quoted."""
    lines = zip_longest(expected.splitlines(True), replayed.splitlines(True), fillvalue="")
    n, want, got = next((n, a, b) for n, (a, b) in enumerate(lines, 1) if a != b)
    return f"  expected line {n}: {quoted(want)}\n  replayed line {n}: {quoted(got)}"


def main() -> int:
    os.chdir(ROOT)
    os.environ.update(COLUMNS="80", COMMENSURATE_SEED="0")
    matched = 0
    for name, argv in CASES:
        blob = replay(argv)
        expected = (TESTS / "golden" / f"{name}.txt").read_text(encoding="utf-8")
        exit_line = f"exit: {EXPECTED_EXITS.get(name, 0)}\n"
        if blob == expected and blob.startswith(exit_line):
            matched += 1
        else:  # when the blob matches its golden, the exit code is what differs
            print(f"differs: {name}")
            print(first_difference(expected if blob != expected else exit_line, blob))
    print(f"{matched}/{len(CASES)} match")
    loaded = sorted({"fractions", "decimal"} & (sys.modules.keys() - PRELOADED))
    if loaded:
        print(f"replay loaded: {', '.join(loaded)}")
    return 0 if matched == len(CASES) and not loaded else 1


if __name__ == "__main__":
    sys.exit(main())
