"""Command-line contract: output bytes and exit codes, pinned by golden files.

Regenerate the golden files with UPDATE_GOLDEN=1 after an intentional
output change, and review the diff before committing it.
"""

import contextlib
import io
import json
import os
import pathlib
import random
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

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

CASES = [
    ("eval_z2_embed", ["eval", "z2", "--depth", "4", "embed(5)*embed(6)"]),
    ("eval_z2_json", ["eval", "z2", "--depth", "4", "embed(5)*embed(6)", "--json"]),
    ("eval_bs12_relation", ["eval", "bs12", "--depth", "6", "t*a*t^-1*a^-2"]),
    ("eval_bs12_inv_json", ["eval", "bs12", "--depth", "2", "inv(a^3*t^2)", "--json"]),
    ("eval_sl2_json", ["eval", "sl2:2", "--depth", "3", "u*h^-1", "--json"]),
    ("eval_model_perm", ["eval", "model:models/s4.model", "--depth", "2", "(1 2)*(3 4)"]),
    ("table_bs12", ["table", "bs12", "--depth", "3", "a"]),
    ("table_z8", ["table", "model:models/z8.model", "--depth", "3", "#5"]),
    ("psi_texp", ["psi", "bs12", "texp", "a^5*t^3"]),
    ("psi_texp_huge", ["psi", "bs12", "texp", "t^-99999999999999999999"]),
    ("psi_mod8_json", ["psi", "z2", "mod:8", "--depth", "5", "embed(13)", "--json"]),
    ("psi_via_eval", ["eval", "z2", "--depth", "5", "psi(mod:8, embed(13))"]),
    ("psi_precision", ["psi", "z2", "mod:8", "--depth", "2", "embed(13)"]),
    ("psi_nested", ["psi", "z2", "nosuch", "psi(mod:8, embed(13))"]),
    ("eval_contract_bs12", ["eval", "bs12", "(1/3; 0)"]),
    ("eval_contract_sl2", ["eval", "sl2:2", "[[1,2],[3,4]]"]),
    ("eval_bs12_zero_denominator", ["eval", "bs12", "(1/0; 0)"]),
    ("eval_sl2_zero_denominator", ["eval", "sl2", "[[1/0,0],[0,1]]"]),
    ("eval_syntax_error", ["eval", "bs12", "t**a"]),
    ("eval_nesting_limit", ["eval", "bs12", "(" * 3000 + "a" + ")" * 3000]),
    ("eval_bs12_huge_power", ["eval", "bs12", "inv(embed(a))^99999999999"]),
    ("eval_sl2_huge_power", ["eval", "sl2:3", "inv(embed(h))^-99999999999"]),
    ("psi_zfact_unfactorable", ["psi", "zfact", "mod:4295229443", "5"]),
    ("eval_zfact_digit_limit", ["eval", "zfact", "--depth", "3000", "1"]),
    ("eval_unknown_instance", ["eval", "nowhere", "a"]),
    ("oracle_z8_json", ["oracle", "models/z8.model", "--trials", "100", "--json"]),
    ("oracle_s4", ["oracle", "models/s4.model", "--trials", "120"]),
    ("oracle_s5_json", ["oracle", "models/s5.model", "--trials", "60", "--json"]),
    ("oracle_s4_d8", ["oracle", "models/s4_d8.model"]),
    ("oracle_corrupt", ["oracle", "models/s4_corrupt.model", "--trials", "20"]),
    ("oracle_missing", ["oracle", "models/nope.model"]),
    ("oracle_negative_trials", ["oracle", "models/s4.model", "--trials", "-3"]),
    ("instances", ["instances"]),
    ("instances_json", ["instances", "--json"]),
]

EXPECTED_EXITS = {
    "psi_precision": 3,
    "psi_nested": 2,
    "eval_contract_bs12": 4,
    "eval_contract_sl2": 4,
    "eval_bs12_zero_denominator": 2,
    "eval_sl2_zero_denominator": 2,
    "eval_syntax_error": 2,
    "eval_nesting_limit": 2,
    "eval_sl2_huge_power": 3,
    "psi_zfact_unfactorable": 2,
    "eval_zfact_digit_limit": 2,
    "eval_unknown_instance": 2,
    "oracle_corrupt": 1,
    "oracle_missing": 2,
    "oracle_negative_trials": 2,
}


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
            with pytest.raises(SystemExit) as err:
                entry(["eval"])
            assert err.value.code == 2
        else:
            assert entry(["eval", "z2", "--depth", "3", "7", "--json"]) == 0
            assert entry(["eval", "z2", "--depth", "3", "7"]) == 0
        capsys.readouterr()
        blob = run_case(argv, capsys, monkeypatch)
        assert blob == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8"), name


def _limit_memory():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _run_capped(argv):
    """The CLI on ``argv`` in a child process capped at 1 GB of address
    space and 20 s."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
    return subprocess.run(
        [sys.executable, "-m", "commensurate.cli", *argv],
        capture_output=True,
        text=True,
        timeout=20,
        env=env,
        preexec_fn=_limit_memory,
    )


@pytest.mark.parametrize(
    "argv,stdout",
    [
        (["psi", "bs12", "texp", "t^-99999999999999999999"], "-99999999999999999999\n"),
        (["eval", "bs12", "(1/2; 99999999999999999999)"], None),
        (["eval", "bs12", "t^-99999999999999999999"], None),
        (["eval", "bs12", "(-1/2; 99999999999999999999)"], ""),
    ],
    ids=["psi-texp", "literal-shift", "t-power", "negative-shift"],
)
def test_huge_doubling_exponents_end_quickly(argv, stdout):
    """A huge doubling exponent must not make bs12 build 2**texp.  Each run
    is a child process capped at 1 GB of address space, so a regression
    fails here instead of exhausting the test run's memory."""
    proc = _run_capped(argv)
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    if stdout is not None:
        assert proc.stdout == stdout


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


def test_oracle_reports_a_failed_completion_table(capsys, monkeypatch):
    def broken(model):
        raise oracle.OracleError("completion table lost its identity")

    monkeypatch.setattr(oracle, "enumerate_completion", broken)
    blob = run_case(["oracle", "models/s4.model", "--trials", "5"], capsys, monkeypatch)
    assert blob.startswith("exit: 1\n")
    assert "trials: 0\n" in blob and "Traceback" not in blob
    assert (
        "  completion-table: inputs s4; expected single-coset products; "
        "got completion table lost its identity\n"
    ) in blob


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
    ],
    ids=["order-cap", "points-cap", "table-cap", "unknown-key"],
)
def test_oracle_refuses_an_oversized_or_misspelt_model(text, message, tmp_path, capsys):
    model = tmp_path / "bad.model"
    model.write_text(text, encoding="utf-8")
    assert entry(["oracle", str(model)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


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


@st.composite
def _perm_model_text(draw):
    """A perm model on at most 6 points; its generators, K and levels are
    drawn freely, so many break a precondition, and one line may hold a
    malformed cycle."""
    points = draw(st.integers(1, 6))
    items = st.one_of(
        st.permutations(range(points)).map(lambda p: finitemodel.perm_to_cycles(tuple(p))),
        st.sampled_from(["(1 2)", "(" + " ".join(map(str, range(1, points + 1))) + ")", "()"]),
    )

    def generator_line():
        return ", ".join(draw(st.lists(items, max_size=3))) or "-"

    lines = ["kind: perm", f"points: {points}", f"gens: {generator_line()}",
             f"K: {generator_line()}"]
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
    closed, not associative, or lack an identity or inverses."""
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
                                           st.integers(-1, n)), max_size=2)):
        rows[i][j] = v
    items = st.integers(0, n).map(lambda k: f"#{k}")

    def element_line():
        return ", ".join(draw(st.lists(items, max_size=2))) or "-"

    lines = ["kind: table"]
    if draw(st.booleans()):
        lines.append(f"order: {draw(st.sampled_from([n, n, n + 1]))}")
    lines += [f"row: {' '.join(map(str, row))}" for row in rows]
    lines.append(f"K: {element_line()}")
    lines += [f"level: {element_line()}" for _ in range(draw(st.integers(0, 3)))]
    return lines


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
    st.text(max_size=12).filter(lambda name: not name.startswith("model:")),
)
_EXPRESSION_PIECES = [
    "a", "t", "u", "h", "x", "embed(", "inv(", "psi(", "texp", "mod:4", "mod:0", "(", ")",
    "^", "^-", "*", ",", " ", "-", "0", "1", "7", "99999999999999999999", "(1 2)",
    "(1 2 3 4)", "#3", "#99", "(3/4; -2)", "[[1,0],[1,1]]", "[[2,0],[0,1/2]]", "/", ";",
    "[", "]",
]
_EXPRESSIONS = st.one_of(
    st.text(max_size=30),
    st.lists(st.sampled_from(_EXPRESSION_PIECES), max_size=12).map("".join),
)
_TARGET_NAMES = st.one_of(
    st.sampled_from(["texp", "mod:2", "mod:8", "mod:0", "mod:-4", "mod:99999999999999999999",
                     "mod:x", "mod:"]),
    st.text(max_size=10),
)


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


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        entry(["eval"])  # missing required positionals
    assert err.value.code == 2


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
