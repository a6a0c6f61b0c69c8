"""Command-line contract: output bytes and exit codes, pinned by golden files.

Regenerate the golden files with UPDATE_GOLDEN=1 after an intentional
output change, and review the diff before committing it.  Every case runs
with COLUMNS=80, so argparse wraps the help goldens the same way in any
terminal.
"""

import contextlib
import io
import json
import os
import pathlib
import random
import re
import resource
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from commensurate import bs12, cli, core, expr, finitemodel, integers, oracle, registry, sl2
from commensurate.cli import entry
from golden_cases import CASES, EXPECTED_EXITS

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
# one digit past Python's default int conversion limit of 4300 digits
BIG = "9" * 4301

# A golden case that runs longer than this fails instead of hanging the run.
CASE_SECONDS = 20


class CaseTimeout(Exception):
    """A golden case ran past its time limit."""


@contextlib.contextmanager
def time_limit(seconds):
    """Raise CaseTimeout in the block once ``seconds`` of wall time pass.

    Uses SIGALRM, so the block runs unlimited where that signal does not
    exist.  The handler runs between bytecodes: a single long C-level
    operation is interrupted only when it returns.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise CaseTimeout(f"ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_case(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COMMENSURATE_SEED", "0")
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the help to the terminal width
    with time_limit(CASE_SECONDS):
        code = entry(argv)
    captured = capsys.readouterr()
    return (
        f"exit: {code}\n"
        f"--- stdout ---\n{captured.out}"
        f"--- stderr ---\n{captured.err}"
    )


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv, capsys, monkeypatch):
    blob = run_case(argv, capsys, monkeypatch)
    path = GOLDEN / f"{name}.txt"
    if os.environ.get("UPDATE_GOLDEN"):
        path.write_text(blob, encoding="utf-8")
    assert path.exists(), f"golden file missing; run with UPDATE_GOLDEN=1 ({path})"
    assert blob == path.read_text(encoding="utf-8")
    expected = EXPECTED_EXITS.get(name, 0)
    assert blob.startswith(f"exit: {expected}\n")


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_time_limit_interrupts_a_long_case():
    start = time.perf_counter()
    with pytest.raises(CaseTimeout, match="longer than 0.05 s"):
        with time_limit(0.05):
            while True:
                pass
    assert time.perf_counter() - start < 5
    with time_limit(5):
        pass  # a case that ends in time leaves no timer running
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_reused_parser_keeps_no_state(capsys, monkeypatch):
    """Replay every golden case twice in one process, in a shuffled order,
    with usage errors and --json/plain pairs in between: the parser that
    entry() builds once must carry nothing from one call to the next."""
    replay = CASES * 2
    random.Random(9).shuffle(replay)
    for i, (name, argv) in enumerate(replay):
        if i % 2:
            assert entry(["eval"]) == 2
        else:
            assert entry(["eval", "z2", "--depth", "3", "7", "--json"]) == 0
            assert entry(["eval", "z2", "--depth", "3", "7"]) == 0
        capsys.readouterr()
        blob = run_case(argv, capsys, monkeypatch)
        assert blob == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8"), name


def test_replay_script_matches_every_golden():
    """tests/replay_goldens.py, the stdlib-only replay for interpreters
    without pytest, matches every case in a child interpreter."""
    proc = subprocess.run([sys.executable, str(ROOT / "tests" / "replay_goldens.py")],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, f"{len(CASES)}/{len(CASES)} match\n", "")


def _limit_memory():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _child_env():
    """The environment for a child interpreter that imports from src/."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))


def _run_capped(argv, **env):
    """The CLI on ``argv`` in a child process capped at 1 GB of address
    space and 20 s, with ``env`` added to its environment."""
    return subprocess.run(
        [sys.executable, "-m", "commensurate.cli", *argv],
        capture_output=True,
        text=True,
        timeout=20,
        env=dict(_child_env(), **env),
        preexec_fn=_limit_memory,
    )


# each case's id, argv, stdout (None: not checked) and whether it is refused
_HUGE_TEXPS = [
    ("psi-texp", ["psi", "bs12", "texp", "t^-99999999999999999999"], "-99999999999999999999\n", False),
    ("literal-shift", ["eval", "bs12", "(1/2; 99999999999999999999)"], None, False),
    ("t-power", ["eval", "bs12", "t^-99999999999999999999"], None, False),
    ("negative-shift", ["eval", "bs12", "(-1/2; 99999999999999999999)"], "", True),
    ("negative-power", ["eval", "bs12", "--depth", "0", "a^-1*t^1000000000000"], "", True),
]


@pytest.mark.parametrize(
    "argv,stdout,refused,limit_off",
    [pytest.param(argv, stdout, refused, off, id=name + ("-limit-off" if off else ""))
     for off in (False, True) for name, argv, stdout, refused in _HUGE_TEXPS],
)
def test_huge_doubling_exponents_end_quickly(argv, stdout, refused, limit_off):
    """A huge doubling exponent must not make bs12 build 2**texp, with
    Python's int-to-str limit at its default or lifted (PYTHONINTMAXSTRDIGITS
    = 0).  The level-0 rep 2**texp + n of a negative shift n is refused in
    one line, naming the exact-size bound when no limit refuses it.  Each run
    is a child process capped at 1 GB of address space, so a regression
    fails here instead of exhausting the test run's memory."""
    proc = _run_capped(argv, **({"PYTHONINTMAXSTRDIGITS": "0"} if limit_off else {}))
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    if stdout is not None:
        assert proc.stdout == stdout
    if refused:
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: level 0: rep exceeds the bound of {core.MAX_EXACT_BITS} bits\n" if limit_off
            else "error: level 0: rep exceeds the display limit of 4300 digits\n"
        )


_PAST_BOUND = (2, "", f"error: exact product exceeds the bound of {core.MAX_EXACT_BITS} bits\n")


@pytest.mark.parametrize(
    "argv,outcome",
    [
        (["eval", "bs12", "t^-99999999999999999999*a"], _PAST_BOUND),
        (["eval", "bs12", "(a*t)^99999999999"], _PAST_BOUND),
        (["eval", "sl2:3", "(u*h)^99999999999"], _PAST_BOUND),
        (["psi", "bs12", "texp", "t^-100000*a*t^100000"], (0, "0\n", "")),
    ],
    ids=["bs12-scaled-shift", "bs12-power", "sl2-power", "bs12-under-bound"],
)
def test_exact_products_past_the_size_bound_are_refused(argv, outcome):
    """A product past MAX_EXACT_BITS exits 2 at once, naming the bound,
    instead of exhausting memory or running for minutes.  Each run is a
    child process capped at 1 GB of address space and 20 s."""
    proc = _run_capped(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == outcome


@pytest.mark.parametrize(
    "argv,stderr",
    [
        (["eval", "bs12", "--depth", "10000000", "embed(t)^99999999999"],
         "error: product needs a left factor of depth >= 1, have 0 (required depth 1)\n"),
        (["eval", "sl2:3", "--depth", "20000001", "embed(h)^99999999999"],
         "error: product needs a left factor of depth >= 2, have 1 (required depth 2)\n"),
    ],
    ids=["bs12-t", "sl2:3-h"],
)
def test_a_power_that_runs_out_of_depth_ends_at_once(argv, stderr, capsys):
    """A power's depth is one closed-form question on a pair that declares
    its conjugation cost, so a huge exponent at a huge depth exits 3 at
    once instead of taking one step for each level it loses."""
    with time_limit(2):
        assert entry(argv) == 3
    assert capsys.readouterr() == ("", stderr)


def test_spaced_cycles_evaluate_like_packed_ones(capsys, monkeypatch):
    argv = ["eval", "model:models/s4.model", "--depth", "0"]
    spaced = run_case([*argv, "(1 2) (3 4)"], capsys, monkeypatch)
    assert spaced.startswith("exit: 0\n")
    assert spaced == run_case([*argv, "(1 2)(3 4)"], capsys, monkeypatch)


def test_byte_identical_reruns(capsys, monkeypatch):
    argv = ["oracle", "models/s4.model", "--trials", "60", "--json"]
    first = run_case(argv, capsys, monkeypatch)
    second = run_case(argv, capsys, monkeypatch)
    assert first == second


def test_eval_json_schema(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    entry(["eval", "z2", "--depth", "4", "embed(5)*embed(6)", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [
        "instance",
        "requested_depth",
        "attained_depth",
        "rep",
        "levels",
    ]
    assert payload["attained_depth"] == 4 and payload["rep"] == "11"
    assert [list(row) for row in payload["levels"]] == [
        ["level", "modulus_or_index", "rep"]
    ] * 5
    assert payload["levels"][4] == {
        "level": 4,
        "modulus_or_index": 16,
        "rep": "11",
    }


def test_oracle_json_schema(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COMMENSURATE_SEED", "0")
    entry(["oracle", "models/z8.model", "--trials", "40", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["model", "trials", "mismatches"]
    assert payload == {"model": "z8", "trials": 40, "mismatches": []}


def test_oracle_names_a_bad_order_line(tmp_path, capsys):
    model = tmp_path / "bad.model"
    model.write_text("kind: table\norder: x\nrow: 0\nK: #0\n", encoding="utf-8")
    assert entry(["oracle", str(model)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: 'order' must be an integer, got 'x'\n"


def _cyclic_rows(n):
    return "".join(f"row: {' '.join(str((i + j) % n) for j in range(n))}\n" for i in range(n))


@pytest.mark.parametrize(
    "text,message",
    [
        # (1 2) and (1 2 3 4 5 6) generate S6, of order 720
        ("kind: perm\npoints: 6\ngens: (1 2), (1 2 3 4 5 6)\nK: (1 2)\n",
         "group order exceeds 200"),
        ("kind: perm\npoints: 17\ngens: (1 2)\nK: (1 2)\n", "points must be 1..16"),
        (f"kind: table\n{_cyclic_rows(201)}K: #1\n", "model order 201 outside 1..200"),
        ("kind: perm\npoints: 4\ngens: (1 2)\nK: (1 2)\nlevl: -\n",
         "line 5: unknown key 'levl'"),
        ("name: a\nname: b\nkind: perm\npoints: 4\ngens: (1 2)\nK: (1 2)\n",
         "line 2: duplicate key 'name'"),
        ("kind: perm\ngens: (1 2)\nK: (1 2)\n", "perm models need an integer 'points' line"),
        ("kind: perm\npoints: 4\nK: (1 2)\n", "perm models need a 'gens' line"),
        ("kind: table\nrow: 0 x\nK: #0\n", "bad table row '0 x'"),
        ("kind: table\nK: #0\n", "table models need 'row' lines"),
        ("kind: table\nrow: 0 1\nrow: 1 1\nK: #0\n", "element #1 has no inverse"),
        # 1·2 is the identity but 2·1 is not, and no later entry of row 1 is
        ("kind: table\nrow: 0 1 2\nrow: 1 2 0\nrow: 2 1 0\nK: #0\n",
         "element #1 has no inverse"),
        # a long malformed value is quoted in part
        (f"kind: table\norder: {BIG}x\nrow: 0\nK: #0\n",
         f"'order' must be an integer, got {BIG[:60]!r}"),
        (f"kind: table\nrow: 0 {BIG}x\nK: #0\n", f"bad table row {('0 ' + BIG)[:60]!r}"),
        ("kind: table\nrow: 0 0\nrow: 0 0\nK: #0\n", "multiplication table has no identity"),
        ("kind: perm\npoints: 3\ngens: (1 2)\nK: (1 3)\n",
         "generator (1 3) is outside the group"),
    ],
    ids=["order-cap", "points-cap", "table-cap", "unknown-key", "duplicate-key",
         "no-points", "no-gens", "bad-row", "no-rows", "no-inverse", "one-sided-inverse",
         "long-order", "long-row",
         "no-identity", "generator-outside"],
)
def test_oracle_refuses_an_oversized_or_misspelt_model(text, message, tmp_path, capsys):
    with pytest.raises(finitemodel.ModelError) as err:
        finitemodel.parse_model(text)
    assert str(err.value) == message
    model = tmp_path / "bad.model"
    model.write_text(text, encoding="utf-8")
    assert entry(["oracle", str(model)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"
    assert len(err.encode()) < 200


class _BarePair(core.CommensuratedPair):
    """Arithmetic, in_level and a closed-form conj_depth: no level_index."""

    name = "bare"
    identity = 0
    generators = {"a": 1}

    def mul(self, x, y):
        return x + y

    def inv(self, x):
        return -x

    def in_level(self, x, depth):
        return x % 2**depth == 0

    def conj_depth(self, g, depth):
        return depth


@pytest.mark.parametrize("command", ["eval", "table"])
def test_a_pair_without_level_index_is_refused_in_one_line(command, capsys, monkeypatch):
    """Level displays need level_index; a pair without it is a usage
    error (exit 2), not a traceback and exit 1."""
    monkeypatch.setattr(cli, "resolve_instance", lambda name: _BarePair())
    assert entry([command, "bare", "--depth", "2", "a*a"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: instance bare gives no level index\n"


class _IndexedBarePair(_BarePair):
    """A bare pair with level_index: every other display is the seam's default."""

    def level_index(self, depth):
        return 2**depth


def test_a_bare_pair_runs_on_the_seam_defaults(capsys, monkeypatch):
    """level_rep prints format_element, parse_literal refuses every literal,
    describe is the name, sample draws words in the generator, and
    sample_level has no level generators to draw from."""
    monkeypatch.setattr(cli, "resolve_instance", lambda name: _IndexedBarePair())
    assert entry(["table", "bare", "--depth", "2", "a*a"]) == 0
    assert capsys.readouterr() == ("".join(
        f"level {d}: modulus/index {2**d}, rep 2\n" for d in range(3)), "")
    assert entry(["eval", "bare", "5"]) == 2
    assert capsys.readouterr() == ("", "error: bare: unsupported literal '5' at position 0\n")
    pair = _IndexedBarePair()
    assert pair.describe() == "bare"
    samples = {pair.sample(random.Random(seed)) for seed in range(50)}
    assert samples <= set(range(-6, 7)) and min(samples) < 0 < max(samples)
    with pytest.raises(ValueError, match="^instance bare gives no level generators$"):
        pair.sample_level(1, random.Random(0))


LONG = "x" * 5000
# the longest runs of zeros that still read as integers under the digit limit
ZEROS = "0" * 4200

_LONG_ARGV = {
    "unknown-instance": (["eval", LONG, "a"], 2),
    "instance-base": (["eval", f"z{ZEROS}1", "1"], 2),
    "unknown-generator": (["eval", "bs12", LONG], 2),
    "unexpected-token": (["eval", "bs12", f"a {LONG}"], 2),
    "unknown-target": (["psi", "bs12", LONG, "a"], 2),
    "zero-modulus": (["psi", "z2", f"mod:{ZEROS}", "1"], 2),
    "target-depth": (["psi", "z2", f"mod:{ZEROS}8", "--depth", "2", "embed(13)"], 3),
    "bs12-zero-denominator": (["eval", "bs12", f"({'7' * 4000}/0; 0)"], 2),
    "sl2-zero-denominator": (["eval", "sl2:3", f"[[{'7' * 4000}/0,0],[0,1]]"], 2),
}
_LONG_MODELS = {
    "no-colon": LONG,
    "unknown-key": f"{LONG}: 1",
    "corrupt-flag": f"kind: table\nrow: 0\nK: #0\ncorrupt_conj_depth: {LONG}",
    "model-kind": f"kind: {LONG}\nK: #0",
    "table-element": f"kind: table\nrow: 0\nK: #{LONG}",
    "perm-literal": f"kind: perm\npoints: 4\ngens: ({LONG})\nK: (1 2)",
    "perm-point": f"kind: perm\npoints: 4\ngens: ({' 9' * 2500})\nK: (1 2)",
    "perm-repeat": f"kind: perm\npoints: 4\ngens: ({' 1' * 2500})\nK: (1 2)",
}


@pytest.mark.parametrize("case", [*_LONG_ARGV, *_LONG_MODELS])
def test_long_user_text_is_quoted_in_part(case, tmp_path, capsys):
    """An error that quotes user text quotes at most 60 characters of it."""
    if case in _LONG_ARGV:
        argv, code = _LONG_ARGV[case]
    else:
        model = tmp_path / "long.model"
        model.write_text(_LONG_MODELS[case] + "\n", encoding="utf-8")
        argv, code = ["oracle", str(model)], 2
    with time_limit(CASE_SECONDS):
        assert entry(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err[:300]
    assert len(err.encode()) < 200, err


@pytest.mark.parametrize("pair, literal", [
    (bs12.BS12Pair(), LONG),
    (sl2.SL2Pair(3), LONG),
    (integers.IntegerChainPair(2), LONG),
    (finitemodel.FiniteModelPair(finitemodel.load_model(ROOT / "models" / "z8.model")), LONG),
], ids=["bs12", "sl2", "default", "model"])
def test_long_bad_literal_is_quoted_in_part(pair, literal):
    """A literal the expression scanner would not pass, handed to the pair
    directly, is refused with a bounded quote."""
    with pytest.raises(ValueError) as err:
        pair.parse_literal(literal)
    assert len(str(err.value)) < 200


def _refused_model_file(kind, tmp_path):
    """A path that is not a small regular file, and the refusal it gets."""
    if kind == "device":
        path = pathlib.Path("/dev/zero")
        if not path.exists():
            pytest.skip("no zero device")
        return path, "is not a regular file"
    if kind == "fifo":
        if not hasattr(os, "mkfifo"):
            pytest.skip("no FIFOs")
        path = tmp_path / "fifo.model"
        os.mkfifo(path)  # with no writer, opening it would block for good
        return path, "is not a regular file"
    path = tmp_path / "big.model"
    text = (ROOT / "models" / "s4.model").read_bytes()
    path.write_bytes(text + b"#" * (finitemodel.MAX_MODEL_BYTES + 1 - len(text)))
    return path, f"is larger than {finitemodel.MAX_MODEL_BYTES} bytes"


@pytest.mark.parametrize("command", ["oracle", "eval"])
@pytest.mark.parametrize("kind", ["device", "fifo", "over-cap"])
def test_model_files_that_are_not_small_regular_files_are_refused(kind, command, tmp_path):
    """A device, a FIFO or an over-cap file exits 2 at once with one line,
    under both commands that load a model file.  Reading the zero device
    would never end, so that case runs in a capped child process."""
    path, reason = _refused_model_file(kind, tmp_path)
    argv = (["oracle", str(path), "--trials", "1"] if command == "oracle"
            else ["eval", f"model:{path}", "()"])
    if kind == "device":
        proc = _run_capped(argv)
        got = (proc.returncode, proc.stdout, proc.stderr)
    else:
        out, err = io.StringIO(), io.StringIO()
        with time_limit(CASE_SECONDS), redirect_stdout(out), redirect_stderr(err):
            got = (entry(argv), out.getvalue(), err.getvalue())
    assert got == (2, "", f"error: model file {str(path)!r} {reason}\n")


def test_a_model_file_at_the_byte_cap_loads(tmp_path, capsys):
    path = tmp_path / "full.model"
    text = (ROOT / "models" / "s4.model").read_bytes()
    path.write_bytes(text + b"#" * (finitemodel.MAX_MODEL_BYTES - len(text)))
    assert entry(["eval", f"model:{path}", "--depth", "2", "(1 2)"]) == 0
    assert capsys.readouterr().err == ""


_FUZZ_CHILD = "COMMENSURATE_TEST_FUZZ_CHILD"
_FUZZES = []


def _in_capped_child(fuzz):
    """Run the hypothesis fuzz ``fuzz`` in the one child process that runs
    every such fuzz under _limit_memory's cap, so a fuzzed input that
    exhausts memory fails a test instead of the whole run.  In this
    session the test stands for the child's run of it."""
    _FUZZES.append(fuzz.__name__)
    if os.environ.get(_FUZZ_CHILD):
        return fuzz

    def child_outcome(capped_fuzzes):
        outcomes, report = capped_fuzzes
        assert outcomes.get(fuzz.__name__) == "PASSED", report

    child_outcome.__doc__ = fuzz.__doc__
    return child_outcome


@pytest.fixture(scope="session")
def capped_fuzzes():
    """Each fuzz's outcome, by name, from one child pytest capped at 1 GB
    of address space, and the end of the child's output."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-v",
         *(f"{__file__}::{name}" for name in _FUZZES)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        env=dict(_child_env(), **{_FUZZ_CHILD: "1"}),
        preexec_fn=_limit_memory,
    )
    outcomes = dict(re.findall(r"::(\w+) (PASSED|FAILED|ERROR)", proc.stdout))
    return outcomes, proc.stdout[-6000:] + proc.stderr[-2000:]


@st.composite
def _perm_model_text(draw):
    """A perm model on at most 6 points; its generators, K and levels are
    drawn freely, so many break a precondition, one line may hold a
    malformed cycle, and the points line may be past the digit limit."""
    points = draw(st.integers(1, 6))
    items = st.one_of(
        st.permutations(range(points)).map(lambda p: finitemodel.perm_to_cycles(tuple(p))),
        st.sampled_from(["(1 2)", "(" + " ".join(map(str, range(1, points + 1))) + ")", "()"]),
    )

    def generator_line():
        return ", ".join(draw(st.lists(items, max_size=3))) or "-"

    lines = ["kind: perm", f"points: {draw(st.sampled_from([points] * 7 + [BIG]))}",
             f"gens: {generator_line()}", f"K: {generator_line()}"]
    lines += [f"level: {generator_line()}" for _ in range(draw(st.integers(0, 3)))]
    bad = draw(st.sampled_from([None, None, None, "(0 1)", "(1 1)", "(1 2", "x"]))
    if bad is not None:
        line = draw(st.integers(2, len(lines) - 1))
        lines[line] += f", {bad}"
    return lines


def _dihedral_rows(n):
    # r^a s^e is a + m·e, and (r^a s^e)(r^b s^f) = r^(a ± b) s^(e + f)
    m = n // 2
    return [
        [(a + (-1) ** e * b) % m + m * ((e + f) % 2) for f in (0, 1) for b in range(m)]
        for e in (0, 1) for a in range(m)
    ]


@st.composite
def _table_model_text(draw):
    """A table model of order at most 12: a cyclic or dihedral table, or
    random rows, with a few entries overwritten, so many tables are not
    closed, not associative, or lack an identity or inverses.  An entry
    or the order line may be past the digit limit."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["cyclic", "dihedral", "random"]))
    if shape == "cyclic":
        rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    elif shape == "dihedral" and n % 2 == 0 and n >= 4:
        rows = _dihedral_rows(n)
    else:
        rows = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                             min_size=n, max_size=n))
    for i, j, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           st.integers(-1, n) | st.just(BIG)), max_size=2)):
        rows[i][j] = v
    items = st.integers(0, n).map(lambda k: f"#{k}")

    def element_line():
        return ", ".join(draw(st.lists(items, max_size=2))) or "-"

    lines = ["kind: table"]
    if draw(st.booleans()):
        lines.append(f"order: {draw(st.sampled_from([n, n, n + 1, BIG]))}")
    lines += [f"row: {' '.join(map(str, row))}" for row in rows]
    lines.append(f"K: {element_line()}")
    lines += [f"level: {element_line()}" for _ in range(draw(st.integers(0, 3)))]
    return lines


@_in_capped_child
@settings(max_examples=200, deadline=None)
@given(
    st.one_of(_perm_model_text(), _table_model_text()),
    st.sampled_from([None, None, "true", "false", "yes"]),
    st.integers(0, 3),
)
def test_fuzzed_model_files_end_cleanly(lines, corrupt, depth):
    """Any small model file ends in bounded time with a documented exit
    code and at most a one-line message; 1 only flags a corrupt model."""
    if corrupt is not None:
        lines = [*lines, f"corrupt_conj_depth: {corrupt}"]
    literal = "#0" if lines[0] == "kind: table" else "()"
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "fuzz.model"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for argv in (["oracle", str(path), "--trials", "10"],
                     ["eval", f"model:{path}", "--depth", str(depth), literal]):
            out, err = io.StringIO(), io.StringIO()
            with time_limit(CASE_SECONDS), redirect_stdout(out), redirect_stderr(err):
                code = entry(argv)
            allowed = {0, 2, 3, 4} | ({1} if corrupt == "true" and argv[0] == "oracle" else set())
            assert code in allowed, (argv[0], code, err.getvalue())
            assert err.getvalue().count("\n") <= 1, err.getvalue()
            assert "Traceback" not in out.getvalue() + err.getvalue()


_NAMED_INSTANCES = [
    "z2", "z3", "z10", "z0", "z1", "zfact", "zfactorial", "bs12", "sl2", "sl2:2", "sl2:3",
    "sl2:7", "sl2:0", "sl2:1", "sl2:4", "sl2:", "model:",
    *(f"model:{ROOT / 'models' / name}"
      for name in ("s4.model", "z8.model", "s4_corrupt.model", "missing.model")),
]
# model files are drawn from the list only: a free path could name a device
_INSTANCE_NAMES = st.one_of(
    st.sampled_from(_NAMED_INSTANCES),
    st.integers(0, 10**30).map(lambda n: f"z{n}"),
    st.integers(0, 10**12).map(lambda n: f"sl2:{n}"),
    st.just(f"z{BIG}"),
    st.text(max_size=12).filter(lambda name: not name.startswith("model:")),
)
_EXPRESSION_PIECES = [
    "a", "t", "u", "h", "x", "embed(", "inv(", "psi(", "texp", "mod:4", "mod:0", "(", ")",
    "^", "^-", "*", ",", " ", "-", "0", "1", "7", "99999999999999999999", "(1 2)",
    "(1 2 3 4)", "#3", "#99", "(3/4; -2)", "[[1,0],[1,1]]", "[[2,0],[0,1/2]]", "/", ";",
    "[", "]", BIG,
]
_EXPRESSIONS = st.one_of(
    st.text(max_size=30),
    st.lists(st.sampled_from(_EXPRESSION_PIECES), max_size=12).map("".join),
)
_TARGET_NAMES = st.one_of(
    st.sampled_from(["texp", "mod:2", "mod:8", "mod:0", "mod:-4", "mod:99999999999999999999",
                     "mod:x", "mod:", f"mod:{BIG}"]),
    st.text(max_size=10),
)


@_in_capped_child
@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["eval", "table", "psi"]),
    _INSTANCE_NAMES,
    _TARGET_NAMES,
    _EXPRESSIONS,
    st.integers(0, 16),
    st.booleans(),
)
def test_fuzzed_expressions_and_instance_names_end_cleanly(
    command, instance, target, expression, depth, as_json
):
    """Any instance name, target name and expression text ends in bounded
    time with a documented exit code and at most a one-line message.
    Every free-text token follows ``--``, so argparse takes each as given."""
    positionals = [instance, target, expression] if command == "psi" else [instance, expression]
    argv = [command, "--depth", str(depth), *(["--json"] if as_json else []), "--", *positionals]
    out, err = io.StringIO(), io.StringIO()
    with time_limit(CASE_SECONDS), redirect_stdout(out), redirect_stderr(err):
        code = entry(argv)
    assert code in {0, 2, 3, 4}, (argv, code, err.getvalue())
    assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert "set_int_max_str_digits" not in err.getvalue(), argv


_ARGV_TOKENS = st.one_of(
    st.sampled_from(["instances", "eval", "table", "psi", "oracle"]),
    st.sampled_from(["--depth", "--de", "--trials", "--tr", "--json", "--j", "-h", "--help", "--",
                     "--bogus", "--depth=x"]),
    st.integers(0, 20).map(str),
    # past the digit limit, so refused before any work is done
    st.just(BIG),
    st.sampled_from([f"--depth={BIG}", f"--trials={BIG}"]),
    st.sampled_from(["z2", "z3", "zfact", "bs12", "sl2:2", "sl2:3", "model:nope.model",
                     "nope.model", "texp", "mod:8", "mod:0"]),
    st.sampled_from(["a", "t*a^-1", "embed(5)", "u^2*h", "inv(a)", "1", "#3", "(1 2)",
                     "psi(mod:8, embed(13))", "t**a", "(1/3; 0)", "a\nb"]),
    # no digits, so no depth or trial count comes from outside the 0-20
    # pool and BIG
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=8),
)


@_in_capped_child
@settings(max_examples=300, deadline=None)
@given(st.lists(_ARGV_TOKENS, max_size=6))
def test_fuzzed_argv_ends_cleanly(argv):
    """Any argv, argparse's refusals and --help included, returns a
    documented exit code with at most a one-line message, and writes
    stdout only on success.  It runs in an empty directory, so no token
    names a model file."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as empty, contextlib.chdir(empty):
        with time_limit(CASE_SECONDS), redirect_stdout(out), redirect_stderr(err):
            code = entry(argv)
    assert code in {0, 2, 3, 4}, (argv, code, err.getvalue())
    assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
    assert code == 0 or out.getvalue() == "", (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue()


@pytest.mark.parametrize(
    "argv", [["eval", "z2", "--", "--"], ["table", "--", "z2", "--"], ["psi", "--", "z2", "--", "1"]]
)
def test_double_dash_as_a_value_exits_2(argv, capsys):
    # argparse before Python 3.13 hands the program [] for such a value
    assert entry(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: '--' is not a valid argument\n"


def test_oracle_names_a_bad_seed(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COMMENSURATE_SEED", "x")
    assert entry(["oracle", "models/z8.model"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: COMMENSURATE_SEED must be an integer, got 'x'\n"


@pytest.mark.parametrize("seed, message", [
    (BIG, "COMMENSURATE_SEED: integer exceeds the limit of 4300 digits"),
    (f" -{BIG}\n", "COMMENSURATE_SEED: integer exceeds the limit of 4300 digits"),
    ("+-7", "COMMENSURATE_SEED must be an integer, got '+-7'"),
    ("1__0", "COMMENSURATE_SEED must be an integer, got '1__0'"),
    (BIG + "x", f"COMMENSURATE_SEED must be an integer, got {BIG[:60]!r}"),
], ids=["long", "long-signed", "two-signs", "double-underscore", "long-malformed"])
def test_oracle_names_the_digit_limit_only_for_a_long_seed(seed, message, capsys, monkeypatch):
    """A seed that int() refuses for its length alone names the limit and
    does not echo the value; any other bad seed keeps its own message,
    which quotes at most the seed's first 60 characters."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COMMENSURATE_SEED", seed)
    assert entry(["oracle", "models/z8.model"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"
    assert len(err.encode()) < 200


@pytest.mark.parametrize("argv", [
    ["eval", "z2", "1", "--depth", BIG + "x"],
    ["oracle", str(ROOT / "models" / "z8.model"), "--trials", BIG + "x"],
], ids=["depth", "trials"])
def test_a_long_malformed_count_is_quoted_in_part(argv, capsys):
    assert entry(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: commensurate {argv[0]}: argument {argv[-2]}: "
                   f"invalid int value: {BIG[:60]!r}\n")


@pytest.mark.parametrize("trials", [str(cli.MAX_TRIALS + 1), "99999999999"])
def test_oracle_refuses_a_trial_count_past_its_limit(trials, capsys, monkeypatch):
    """More than MAX_TRIALS trials exits 2 at once with one line, before the
    model is read: the path named here does not exist.  The limit itself
    reaches the suite."""
    start = time.perf_counter()
    assert entry(["oracle", "no-such.model", "--trials", trials]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: trials exceeds the limit of {cli.MAX_TRIALS}\n"
    seen = []
    monkeypatch.setattr(cli, "run_model_suite",
                        lambda pair, n, rng: seen.append(n) or oracle.OracleReport("z8", n, []))
    z8 = str(ROOT / "models" / "z8.model")
    assert entry(["oracle", z8, "--trials", str(cli.MAX_TRIALS)]) == 0
    assert seen == [cli.MAX_TRIALS]


def test_a_seed_is_read_the_way_int_reads_it(capsys, monkeypatch):
    """Space, a sign and single underscores are all part of a seed."""
    monkeypatch.chdir(ROOT)
    outputs = []
    for seed in (" +1_0\t", "10"):
        monkeypatch.setenv("COMMENSURATE_SEED", seed)
        assert entry(["oracle", "models/s4.model", "--trials", "3", "--json"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_digit_limit_is_refused_before_any_output(extra, capsys):
    assert entry(["eval", "zfact", "--depth", "3000", "1", *extra]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: level 1559: modulus/index exceeds the display limit of 4300 digits\n"
    )
    # exact values that are too long to print: a rep and a psi value
    k = "7" * 4000
    for argv, what in (
        (["eval", "bs12", "--depth", "0", f"(a^{k})^{k}"], "rep"),
        (["psi", "bs12", "texp", f"(t^{k})^{k}"], "psi value"),
        (["eval", "bs12", f"psi(texp, (t^{k})^{k})"], "psi value"),
    ):
        assert entry([*argv, *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {what} exceeds the display limit of 4300 digits\n"


def test_long_bs12_level_rep_is_refused_before_any_output(capsys):
    # a negative shift normalizes to shift + 2**(texp + d), too long to print
    assert entry(["eval", "bs12", "(-1/2; 15000)"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: level 0: rep exceeds the display limit of 4300 digits\n"


@pytest.mark.parametrize("argv, pos", [
    (["eval", "sl2:2", "u^" + "9" * 4301], 2),
    (["eval", "z2", "9" * 4301], 0),
    # an entry's numerator is read before its denominator, as Fraction reads it
    (["eval", "bs12", f"({'9' * 4301}/0; 0)"], 0),
    (["eval", "sl2:2", f"[[{'9' * 4301}/0,0],[0,1]]"], 0),
])
def test_an_integer_past_the_digit_limit_is_refused_with_its_position(argv, pos, capsys):
    assert entry(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: integer exceeds the limit of 4300 digits at position {pos}\n"


_LIMIT = "integer exceeds the limit of 4300 digits"
_BIG_MODELS = {
    "table": f"kind: table\nrow: 0 1\nrow: 1 0\nK: #{BIG}\nlevel: #0\n",
    "perm": f"points: 2\ngens: (1 2)\nK: (1 2)\nlevel: ({BIG} 1)\n",
    "points": f"kind: perm\npoints: {BIG}\ngens: (1 2)\nK: (1 2)\n",
    "order": f"kind: table\norder: {BIG}\nrow: 0\nK: #0\n",
    "row": f"kind: table\nrow: 0 1\nrow: 0 {BIG}\nK: #1\n",
}


@pytest.mark.parametrize("argv, message", [
    (["eval", "bs12", f"({BIG}; 0)"], f"{_LIMIT} at position 0"),
    (["eval", "bs12", f"a*(1/{BIG}; 0)"], f"{_LIMIT} at position 2"),
    (["eval", "sl2:2", f"[[1,{BIG}],[0,1]]"], f"{_LIMIT} at position 0"),
    (["eval", f"model:{ROOT / 'models' / 'z8.model'}", "--depth", "2", f"#{BIG}"],
     f"{_LIMIT} at position 0"),
    (["eval", f"model:{ROOT / 'models' / 's4.model'}", "--depth", "2", f"({BIG} 1)"],
     f"{_LIMIT} at position 0"),
    (["eval", f"z{BIG}", "1"], f"instance name: {_LIMIT}"),
    (["eval", f"sl2:{BIG}", "u"], f"instance name: {_LIMIT}"),
    (["psi", "z2", f"mod:{BIG}", "1"], f"target name: {_LIMIT}"),
    (["eval", "z2", f"psi(mod:{BIG}, 1)"], f"target name: {_LIMIT} at position 0"),
    (["oracle", "table"], f"line 4: {_LIMIT}"),
    (["oracle", "perm"], f"line 4: {_LIMIT}"),
    (["oracle", "points"], f"line 2: {_LIMIT}"),
    (["oracle", "order"], f"line 2: {_LIMIT}"),
    (["oracle", "row"], f"line 3: {_LIMIT}"),
    (["eval", "z2", "1", "--depth", BIG], f"commensurate eval: argument --depth: {_LIMIT}"),
    (["oracle", str(ROOT / "models" / "z8.model"), "--trials", BIG],
     f"commensurate oracle: argument --trials: {_LIMIT}"),
], ids=["bs12", "bs12-denominator", "sl2", "table-literal", "perm-literal", "z-base", "sl2-prime",
        "psi-target", "psi-call", "table-model", "perm-model", "points-line", "order-line",
        "row-line", "depth-option", "trials-option"])
def test_an_oversized_integer_anywhere_names_the_digit_limit(argv, message, tmp_path, capsys):
    """Literals, instance and target names, model lines and the --depth and
    --trials options all read their integers through one reader, whose
    message names the limit."""
    if argv[0] == "oracle" and argv[1] in _BIG_MODELS:
        path = tmp_path / "big.model"
        path.write_text(_BIG_MODELS[argv[1]], encoding="utf-8")
        argv = ["oracle", str(path)]
    assert entry(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"
    assert "set_int_max_str_digits" not in err


class _BrokenPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["eval", "z2", "1"],
    ["table", "bs12", "a", "--json"],
    ["instances"],
    ["oracle", str(ROOT / "models" / "z8.model"), "--trials", "5", "--json"],
])
def test_a_broken_pipe_on_stdout_exits_2(argv):
    """The one write to stdout sits inside entry's error handling."""
    err = io.StringIO()
    with redirect_stdout(_BrokenPipe()), redirect_stderr(err):
        assert entry(argv) == 2
    assert err.getvalue() == "error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("template", ["[[1{}/ 1, 0], [0, 1]]", "[[2, 0], [0, 1 /{}2]]"])
def test_sl2_literals_take_any_whitespace_around_the_slash(template, capsys):
    outputs = []
    for space in (" ", "\t", "\u3000"):
        assert entry(["eval", "sl2:2", template.format(space)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_psi_refuses_a_modulus_below_one(capsys):
    assert entry(["psi", "z2", "mod:0", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: target 'mod:0': modulus must be >= 1\n"


def test_usage_error_exits_2(capsys):
    assert entry(["eval"]) == 2  # missing required positionals
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: commensurate eval: the following arguments are required: instance, expr\n"
    )


def test_an_argument_error_stays_on_one_line(capsys):
    """argparse echoes unrecognized arguments as given; the message escapes
    what would break the line."""
    assert entry(["instances", "a\nb\x00c\u2028é"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: commensurate: unrecognized arguments: a\\nb\\x00c\\u2028é\n"


def test_depth_must_fit_finite_chain(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = entry(["eval", "model:models/z8.model", "--depth", "9", "#1"])
    assert code == 2
    assert "no level 9" in capsys.readouterr().err


@pytest.mark.parametrize(
    "instance,code", [("sl2:1000000", 2), ("sl2:1000001", 2), ("sl2:1000003", 0)]
)
def test_sl2_prime_check_is_exact(instance, code, capsys):
    # 1000001 = 101 * 9901 and 1000003 is prime
    assert entry(["eval", instance, "--depth", "1", "u"]) == code
    assert ("must be a prime" in capsys.readouterr().err) == (code == 2)


def test_bench_patch_points_exist():
    """bench/tracing.py wraps each of these names where its callers look it
    up; renaming or moving one would silently drop spans from a traced run."""
    for name in (
        "entry",
        "resolve_instance",
        "resolve_target",
        "evaluate",
        "run_model_suite",
        "load_model",
        "finite_model_pair",
    ):
        assert callable(vars(cli).get(name)), name
    for name in ("load_model", "finite_model_pair"):
        assert callable(vars(registry).get(name)), name
    assert callable(vars(expr).get("parse_expression"))
    for name in ("compare_engine", "enumerate_completion"):
        assert callable(vars(oracle).get(name)), name
    assert callable(vars(core.CommensuratedPair).get("embed"))
    for name in ("__mul__", "inverse", "valuation", "right_rep", "eq_at_depth"):
        assert callable(vars(core.CompletionElement).get(name)), name
    for cls in (
        integers.IntegerChainPair,
        bs12.BS12Pair,
        sl2.SL2Pair,
        finitemodel.FiniteModelPair,
    ):
        for name in ("mul", "inv", "in_level", "conj_depth"):
            assert callable(vars(cls).get(name)), (cls.__name__, name)
    # zfact's calls are counted only while its class inherits these
    assert not {"mul", "inv", "in_level", "conj_depth"} & set(vars(integers.FactorialChainPair))


def test_cli_import_leaves_the_oracle_unloaded():
    """Only the oracle command needs the oracle module; it loads on first use."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, commensurate.cli; print('commensurate.oracle' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
        env=_child_env(),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_the_package_never_imports_dataclasses_or_inspect():
    """Both cost a fresh interpreter about 11-15 ms; no CLI command needs them."""
    script = (
        "import sys, commensurate.cli\n"
        "loaded = lambda: [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "print(loaded())\n"
        "commensurate.cli.entry(['oracle', 'models/z8.model', '--trials', '1'])\n"
        "print(loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=ROOT,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "model: z8", "trials: 1", "mismatches: 0", "[]"]


def _into_a_closed_pipe(argv, unbuffered=False):
    """The CLI on argv in a child process whose stdout is a pipe with its
    reader closed; stderr is captured, or unbuffered on the same pipe."""
    env = {k: v for k, v in _child_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "commensurate.cli", *argv],
            stdout=write_end,
            stderr=write_end if unbuffered else subprocess.PIPE,
            timeout=60,
            env=env,
        )
    finally:
        os.close(write_end)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_pipe_exits_2(unbuffered):
    """stdout is a pipe whose reader has closed.  Buffered, the write only
    fails at a flush, which must not be left to interpreter exit (exit 120).
    Unbuffered, with stderr on the same closed pipe, the error line cannot
    be written either, and the exit code is all that is left (not 1)."""
    proc = _into_a_closed_pipe(["eval", "z2", "5"], unbuffered)
    assert proc.returncode == 2
    if not unbuffered:
        assert proc.stderr == b"error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("argv, unbuffered", [
    (["--help"], False),
    (["eval", "--help"], False),
    (["--help"], True),
    (["eval", "--help"], True),
], ids=["help", "eval-help", "help-unbuffered", "eval-help-unbuffered"])
def test_help_into_a_closed_pipe_exits_2(argv, unbuffered):
    """The help is written by a plain print inside entry's error handling,
    so a failed write exits 2 like a failed result write: buffered, not at
    interpreter exit (exit 120); unbuffered, not swallowed by argparse
    (exit 0).  Unbuffered, stderr is the same closed pipe, so only the
    exit code is left to check."""
    proc = _into_a_closed_pipe(argv, unbuffered)
    assert proc.returncode == 2
    if not unbuffered:
        assert proc.stderr == b"error: [Errno 32] Broken pipe\n"


_INSTANCE_MODULES = (
    "commensurate.finitemodel",
    "commensurate.bs12",
    "commensurate.sl2",
    "commensurate.integers",
    "fractions",
    "decimal",
    "json",
)


@pytest.mark.parametrize("argv, loaded", [
    ([], []),
    (["eval", "z2", "5"], ["commensurate.integers"]),
    (["eval", "bs12", "a"], ["commensurate.bs12"]),
    (["eval", "sl2:3", "u"], ["commensurate.sl2", "commensurate.integers"]),
    (["oracle", "models/z8.model", "--trials", "1"], ["commensurate.finitemodel"]),
    (["eval", "bs12", "a", "--json"], ["commensurate.bs12", "json"]),
], ids=["import", "eval-z2", "eval-bs12", "eval-sl2", "oracle", "eval-bs12-json"])
def test_a_run_loads_only_the_instance_module_it_resolves(argv, loaded):
    """A fresh start compiles the package from source when no bytecode is
    cached, so each instance module loads only when a run resolves it, and
    so do ``fractions`` (only a Fraction face builds one) and ``json``
    (only ``--json`` prints it)."""
    script = (
        "import sys, commensurate.cli\n"
        f"if {argv!r}:\n"
        f"    assert commensurate.cli.entry({argv!r}) == 0\n"
        f"print([m for m in {_INSTANCE_MODULES!r} if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=ROOT,
        env=_child_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(loaded)


# each face's script, with the exit code and stderr it must end with
_FRACTION_FACES = {
    "mat2": (
        "from fractions import Fraction\n"
        "from commensurate.sl2 import Mat2\n"
        "half, zero, two = Fraction(1, 2), Fraction(0), Fraction(2)\n"
        "m = Mat2(half, zero, zero, two)\n"
        "assert m.a == half and list(m) == [half, zero, zero, two]\n"
        "assert hash(m) == hash(tuple(m)) and m == (half, zero, zero, two)\n",
        0, "",
    ),
    "shift": (
        "from fractions import Fraction\n"
        "from commensurate.bs12 import DyadicAffine\n"
        "x = DyadicAffine(Fraction(3, 4), 1)\n"
        "assert x.shift == Fraction(3, 4)\n"
        "assert repr(x) == 'DyadicAffine(shift=Fraction(3, 4), texp=1)'\n",
        0, "",
    ),
    "constructor": (
        "from fractions import Fraction\n"
        "from commensurate.bs12 import DyadicAffine\n"
        "from commensurate.core import ContractViolation\n"
        "for args, message in [\n"
        "    ((Fraction(1, 3), 0), 'bs12: shift 1/3 is not a dyadic rational'),\n"
        "    ((3, 0), 'bs12: malformed element fields: DyadicAffine(shift=3, texp=0)'),\n"
        "]:\n"
        "    try:\n"
        "        DyadicAffine(*args)\n"
        "    except ContractViolation as err:\n"
        "        assert str(err) == message, err\n"
        "    else:\n"
        "        raise AssertionError(f'{args!r} was accepted')\n",
        0, "",
    ),
    # a refused literal is named from its integers, and loads no Fraction
    "eval-bs12": (
        "code = entry(['eval', 'bs12', '(1/3; 0)'])\n"
        "assert 'fractions' not in sys.modules\n"
        "sys.exit(code)\n",
        4, "error: bs12: shift 1/3 is not a dyadic rational\n",
    ),
    "eval-sl2": (
        "code = entry(['eval', 'sl2:3', '[[1/2,0],[0,2]]'])\n"
        "assert 'fractions' not in sys.modules\n"
        "sys.exit(code)\n",
        4, "error: sl2:3: entry 1/2 has a denominator outside p-powers\n",
    ),
}


@pytest.mark.parametrize("face", _FRACTION_FACES)
def test_each_fraction_face_imports_fractions_itself(face):
    """``bs12`` and ``sl2`` hold no module-level ``Fraction``: each Fraction
    face imports it where it runs, and a CLI run, a refused literal
    included, reaches no face.  The child starts with ``fractions``
    unloaded, and the package import leaves it so."""
    script = (
        "import sys\n"
        "from commensurate.cli import entry\n"
        "import commensurate.bs12, commensurate.sl2\n"
        "assert 'fractions' not in sys.modules\n"
        + _FRACTION_FACES[face][0]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env=_child_env(),
    )
    assert (proc.returncode, proc.stderr) == _FRACTION_FACES[face][1:]


def test_public_names_load_on_first_lookup():
    """The package's __getattr__ (PEP 562) serves every name in __all__
    from its module, and leaves any other name to the import system."""
    import commensurate

    namespace = {}
    exec("from commensurate import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(commensurate.__all__)
    for name in commensurate.__all__:
        assert getattr(commensurate, name) is namespace[name]
    assert commensurate.load_model is finitemodel.load_model
    assert commensurate.SL2Pair is sl2.SL2Pair
    assert commensurate.FactorialChainPair is integers.FactorialChainPair
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        commensurate.no_such_name  # noqa: B018


def test_model_instances_load_through_the_traced_names(monkeypatch):
    """bench/tracing.py times model loads by wrapping registry.load_model
    and registry.finite_model_pair, so resolving a model: name must look
    both up when it runs; a copy bound at import would read 0 ms unseen."""
    calls = []
    for name in ("load_model", "finite_model_pair"):
        def recording(arg, name=name, inner=vars(registry)[name]):
            calls.append(name)
            return inner(arg)

        monkeypatch.setattr(registry, name, recording)
    pair = registry.resolve_instance(f"model:{ROOT / 'models' / 's4.model'}")
    assert calls == ["load_model", "finite_model_pair"]
    assert pair.model.name == "s4"


def test_bench_smoke_passes():
    """bench/smoke.py runs every benchmark workload at tiny size, traced
    and untraced.  The tracer wraps engine methods by name, so this fails
    when a change breaks a traced run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "smoke.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
