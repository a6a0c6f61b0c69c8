"""Command-line contract: output bytes and exit codes, pinned by golden files.

Regenerate the golden files with UPDATE_GOLDEN=1 after an intentional
output change, and review the diff before committing it.
"""

import json
import os
import pathlib

import pytest

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
    ("psi_mod8_json", ["psi", "z2", "mod:8", "--depth", "5", "embed(13)", "--json"]),
    ("psi_via_eval", ["eval", "z2", "--depth", "5", "psi(mod:8, embed(13))"]),
    ("psi_precision", ["psi", "z2", "mod:8", "--depth", "2", "embed(13)"]),
    ("psi_nested", ["psi", "z2", "nosuch", "psi(mod:8, embed(13))"]),
    ("eval_contract_bs12", ["eval", "bs12", "(1/3; 0)"]),
    ("eval_contract_sl2", ["eval", "sl2:2", "[[1,2],[3,4]]"]),
    ("eval_bs12_zero_denominator", ["eval", "bs12", "(1/0; 0)"]),
    ("eval_sl2_zero_denominator", ["eval", "sl2", "[[1/0,0],[0,1]]"]),
    ("eval_syntax_error", ["eval", "bs12", "t**a"]),
    ("eval_unknown_instance", ["eval", "nowhere", "a"]),
    ("oracle_z8_json", ["oracle", "models/z8.model", "--trials", "100", "--json"]),
    ("oracle_s4", ["oracle", "models/s4.model", "--trials", "120"]),
    ("oracle_corrupt", ["oracle", "models/s4_corrupt.model", "--trials", "20"]),
    ("oracle_missing", ["oracle", "models/nope.model"]),
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
    "eval_unknown_instance": 2,
    "oracle_corrupt": 1,
    "oracle_missing": 2,
}


def run_case(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COMMENSURATE_SEED", "0")
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
