"""The project's pytest configuration keeps a failing test from ending the run."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

_TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 9))
def test_fails_for_some_example(n):
    assert n < 5


def test_passes():
    pass
'''


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    """Reporting a failing @given test makes hypothesis import libcst, which
    warns; under the configuration's "error" filter that warning must not
    become an INTERNALERROR that stops every later test."""
    (tmp_path / "test_two.py").write_text(_TWO_TESTS, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_two.py")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output
    assert "1 failed, 1 passed" in output, output
