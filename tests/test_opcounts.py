"""Work budgets in executed bytecodes: ``tests/opcounts.py --tiny``.

The count runs in a child process and is compared with
``golden/opcounts.json``, which holds one entry per interpreter, keyed by
``major.minor``: bytecode differs between CPython versions, so an
interpreter with no entry skips the test.  A change that moves a count
regenerates the running interpreter's entry with UPDATE_GOLDEN=1 and
names each move in CHANGES.md.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "opcounts.json"
PYTHON = "{}.{}".format(*sys.version_info)


def test_tiny_bytecode_counts_match_the_committed_budget():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    update = bool(os.environ.get("UPDATE_GOLDEN"))
    if PYTHON not in golden and not update:
        pytest.skip(f"opcounts.json has no counts for Python {PYTHON}; bytecode differs between versions")
    proc = subprocess.run(
        [sys.executable, "tests/opcounts.py", "--tiny"], cwd=ROOT, stdout=subprocess.PIPE,
        text=True, check=True, timeout=300,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["python"] == PYTHON
    counts = result["counts"]
    if update:
        golden[PYTHON] = counts
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    assert counts == golden[PYTHON]
    assert set(counts) == {"deep.opcodes", "words.opcodes", "oracle.opcodes"}
