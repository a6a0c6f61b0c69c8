"""Replay every CLI golden case in this interpreter and compare the output.

    python tests/replay_goldens.py

Runs each case of ``golden_cases.py`` through ``commensurate.cli.entry``
from the repository root, with COLUMNS=80 and COMMENSURATE_SEED=0, and
compares the exit code and captured output with ``golden/<id>.txt`` in
the format the golden tests write.  Prints each case that differs, then
``N/M match``; the exit code is 1 when any case differs.  Needs only the
standard library, so it runs on interpreters that have no pytest.
"""

import io
import os
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout

TESTS = pathlib.Path(__file__).resolve().parent
ROOT = TESTS.parent
sys.path[:0] = [str(ROOT / "src"), str(TESTS)]

from commensurate.cli import entry  # noqa: E402
from golden_cases import CASES, EXPECTED_EXITS  # noqa: E402


def replay(argv) -> str:
    """The case's exit code, stdout and stderr, as one golden blob."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = entry(argv)
    return f"exit: {code}\n--- stdout ---\n{out.getvalue()}--- stderr ---\n{err.getvalue()}"


def main() -> int:
    os.chdir(ROOT)
    os.environ.update(COLUMNS="80", COMMENSURATE_SEED="0")
    matched = 0
    for name, argv in CASES:
        blob = replay(argv)
        expected = (TESTS / "golden" / f"{name}.txt").read_text(encoding="utf-8")
        if blob == expected and blob.startswith(f"exit: {EXPECTED_EXITS.get(name, 0)}\n"):
            matched += 1
        else:
            print(f"differs: {name}")
    print(f"{matched}/{len(CASES)} match")
    return 0 if matched == len(CASES) else 1


if __name__ == "__main__":
    sys.exit(main())
