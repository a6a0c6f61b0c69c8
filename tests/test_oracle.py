"""The brute-force suites against themselves and against the engine."""

import pathlib
import random

import pytest

from commensurate import (
    FiniteModelPair,
    PrecisionExhausted,
    finite_model_pair,
    load_model,
    oracle,
    parse_model,
)
from commensurate.oracle import (
    coherent_chains,
    compare_engine,
    enumerate_completion,
    is_union_of_left_cosets,
    left_right_check,
    refinement_subgroup,
    run_model_suite,
)

SEED = 7
MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def _subgroup(model, members):
    return all(
        model.mul(a, model.inv(b)) in members for a in members for b in members
    )


def test_refinement_collapses_on_abelian(z8_pair):
    model = z8_pair.model
    for d, level in enumerate(model.levels):
        for g in range(model.n):
            assert refinement_subgroup(model, d, g) == level


def test_refinement_postcondition_s4(s4_pair):
    model = s4_pair.model
    N = model.levels[1]  # the rotation subgroup of K
    g = s4_pair.parse_literal("(1 4)")
    M = refinement_subgroup(model, 1, g)
    assert _subgroup(model, M)
    assert M <= N
    gN = model.left_coset(g, N)
    for h in range(model.n):
        piece = gN & model.right_coset(N, h)
        assert is_union_of_left_cosets(model, piece, M)


def test_refinement_exhaustive_everywhere(model_pairs):
    for pair in model_pairs:
        model = pair.model
        for d, N in enumerate(model.levels):
            for g in range(model.n):
                M = refinement_subgroup(model, d, g)
                gN = model.left_coset(g, N)
                for h in range(model.n):
                    piece = gN & model.right_coset(N, h)
                    assert is_union_of_left_cosets(model, piece, M)


def test_completion_table_sizes(s4_pair, s4_d8_pair, z8_pair):
    assert enumerate_completion(s4_pair.model).size == 24
    assert enumerate_completion(s4_d8_pair.model).size == 6
    assert enumerate_completion(z8_pair.model).size == 8


def test_completion_table_s4_d8_is_nonabelian(s4_d8_pair):
    table = enumerate_completion(s4_d8_pair.model).table
    assert any(table[i][j] != table[j][i] for i in range(6) for j in range(6))


def test_completion_table_z8_is_cyclic(z8_pair):
    table = enumerate_completion(z8_pair.model)
    # repeated products of the class of #1 must sweep all 8 classes
    one = table.coset_of[1]
    seen, cur = set(), table.coset_of[0]
    for _ in range(8):
        seen.add(cur)
        cur = table.table[cur][one]
    assert len(seen) == 8


def test_completion_of_trivial_chain_is_quotient_by_k():
    text = """
kind: perm
points: 4
name: s4_over_a4
gens: (1 2), (1 2 3 4)
K: (1 2 3), (1 2)(3 4)
"""
    model = parse_model(text)
    assert [len(s) for s in model.levels] == [12]
    assert enumerate_completion(model).size == 2


def test_completion_table_names_the_first_failing_product(monkeypatch):
    """A broken M for two g2 fails the single-coset check; the message
    names the pair a loop over every (g1, g2) would meet first."""
    model = load_model(MODELS / "s4.model")
    reps = model.lefts[-1].reps
    broken = {reps[5], reps[3]}
    conj = type(model).conj
    # conjugates outside N leave M, and so M·g2·N, empty
    monkeypatch.setattr(
        type(model), "conj", lambda self, g, x: -1 if g in broken else conj(self, g, x)
    )
    with pytest.raises(oracle.OracleError) as err:
        enumerate_completion(model)
    assert str(err.value) == (
        f"filter product of {model.names[reps[0]]} and {model.names[reps[3]]} "
        "is not a single coset"
    )


def test_left_right_check_all_chains(model_pairs):
    for pair in model_pairs:
        for chain in coherent_chains(pair.model):
            assert left_right_check(pair.model, chain)


def test_left_right_check_rejects_incoherent(s4_pair):
    model = s4_pair.model
    chains = list(coherent_chains(model))
    # splice the bottom of one chain onto the top of another
    a, b = chains[0], chains[-1]
    assert not left_right_check(model, [a[0], a[1], b[2]])


def test_compare_engine_clean(model_pairs):
    for pair in model_pairs:
        report = compare_engine(pair, 300, random.Random(SEED))
        assert report.mismatches == []
        assert report.trials == 300


def test_compare_engine_detects_corruption():
    text = """
name: broken
kind: perm
points: 4
gens: (1 2), (1 2 3 4)
K: (1 2), (1 2 3)
level: (1 2 3)
level: -
corrupt_conj_depth: true
"""
    pair = finite_model_pair(parse_model(text))
    report = compare_engine(pair, 100, random.Random(SEED))
    assert report.mismatches
    assert any("depth" in m["op"] or "coset" in m["op"] for m in report.mismatches)


def _literal_depth(model, members, g):
    """Deepest level whose left coset of g holds members, read off the tables."""
    holding = [
        e for e in range(len(model.levels)) if members <= model.lefts[e].of(g)
    ]
    return max(holding, default=None)


def _engine_depth(op):
    try:
        return op().depth
    except PrecisionExhausted:
        return None


def _check_inverses_and_right_reps(pair):
    model = pair.model
    depths = range(pair.max_depth + 1)
    for g in range(model.n):
        for d1 in depths:
            coset = model.lefts[d1].of(g)
            f = pair.embed(g, d1)
            want = _literal_depth(model, {model.inv(x) for x in coset}, model.inv(g))
            assert _engine_depth(f.inverse) == want, (model.names[g], d1)
            for d in depths:
                right = model.rights[d]
                feasible = len({right.ids[x] for x in coset}) == 1
                try:
                    h = f.right_rep(d)
                except PrecisionExhausted:
                    h = None
                assert (h is not None) == feasible, (model.names[g], d1, d)
                assert h is None or coset <= right.of(h)


@pytest.mark.parametrize("name", ["s4", "s4_d8", "z8"])
def test_engine_depths_are_the_literal_optima(name):
    """Every product, inverse and right_rep claim the engine makes on a
    small model is the deepest one the literal cosets allow."""
    pair = finite_model_pair(load_model(MODELS / f"{name}.model"))
    model = pair.model
    depths = range(pair.max_depth + 1)
    for g1 in range(model.n):
        for d1 in depths:
            coset1 = model.lefts[d1].of(g1)
            f1 = pair.embed(g1, d1)
            for g2 in range(model.n):
                for d2 in depths:
                    coset2 = model.lefts[d2].of(g2)
                    product = {model.mul(x, y) for x in coset1 for y in coset2}
                    want = _literal_depth(model, product, model.mul(g1, g2))
                    got = _engine_depth(lambda: f1 * pair.embed(g2, d2))
                    assert got == want, (model.names[g1], d1, model.names[g2], d2)
    _check_inverses_and_right_reps(pair)


def test_engine_inverse_and_right_rep_are_the_literal_optima_s5():
    _check_inverses_and_right_reps(finite_model_pair(load_model(MODELS / "s5.model")))


class _LossyPair(FiniteModelPair):
    """Sound and monotone, but one level coarser than it needs to be."""

    def conj_depth(self, g, depth):
        return min(super().conj_depth(g, depth) + 1, self.max_depth)


def test_compare_engine_detects_a_lossy_pair():
    pair = _LossyPair(load_model(MODELS / "s4.model"))
    report = compare_engine(pair, 200, random.Random(SEED))
    ops = {m["op"] for m in report.mismatches}
    assert ops & {"mul-depth", "inv-depth"}
    assert not any("coset" in op for op in ops)  # lossy, never unsound
    for m in report.mismatches:
        if m["op"] in ("mul-depth", "inv-depth"):
            got = -1 if m["got"] == "None" else int(m["got"])
            assert int(m["expected"]) > got, m


def test_run_model_suite_reports(s4_pair):
    report = run_model_suite(s4_pair, 50, random.Random(SEED))
    assert report.ok
    payload = report.to_json()
    assert '"model": "s4"' in payload and '"mismatches": []' in payload


def test_suite_enumerates_the_completion_once(s4_d8_pair, monkeypatch):
    calls = []
    enumerate_once = oracle.enumerate_completion

    def counted(model):
        calls.append(model.name)
        return enumerate_once(model)

    monkeypatch.setattr(oracle, "enumerate_completion", counted)
    assert run_model_suite(s4_d8_pair, 20, random.Random(SEED)).ok
    assert calls == ["s4_d8"]


@pytest.mark.parametrize("name", ["s4", "s4_d8", "s4_corrupt", "z8", "s5"])
def test_refinement_subgroup_depends_on_the_left_coset_only(name):
    model = load_model(MODELS / f"{name}.model")
    for d in range(len(model.levels)):
        left = model.lefts[d]
        for g in range(model.n):
            M = refinement_subgroup(model, d, g)
            assert M == refinement_subgroup(model, d, left.reps[left.ids[g]])


def test_suite_builds_one_refinement_subgroup_per_left_coset(monkeypatch):
    pair = finite_model_pair(load_model(MODELS / "s5.model"))
    model = pair.model
    calls = []
    build = oracle.refinement_subgroup

    def counted(model_, d, g):
        calls.append((d, g))
        return build(model_, d, g)

    monkeypatch.setattr(oracle, "refinement_subgroup", counted)
    assert run_model_suite(pair, 0, random.Random(SEED)).ok
    indices = [model.n // len(level) for level in model.levels]
    assert len(calls) == sum(indices) == 165
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize(
    "name,d,size,pairs", [("s4", 1, 3, 9), ("s5", 0, 6, 576)], ids=["s4", "s5"]
)
def test_a_failing_refinement_piece_is_reported_once(name, d, size, pairs, monkeypatch):
    """A failing gN ∩ Nh is reported once, in the pass that tests it, by
    the least members of gN and Nh; a walk over every (g, h) in gN × Nh
    used to report it ``pairs`` times."""
    pair = finite_model_pair(load_model(MODELS / f"{name}.model"))
    model = pair.model
    left, right = model.lefts[d], model.rights[d]
    # no level has two equal pieces of this size, so only this one fails
    gN, Nh = next(
        (gN, Nh) for gN in left.sets for Nh in right.sets if len(gN & Nh) == size
    )
    chosen = gN & Nh
    assert len(gN) * len(Nh) == pairs
    literal_check = oracle.is_union_of_left_cosets

    def failing(model_, subset, M):
        return subset != chosen and literal_check(model_, subset, M)

    monkeypatch.setattr(oracle, "is_union_of_left_cosets", failing)
    report = run_model_suite(pair, 0, random.Random(SEED))
    assert report.mismatches == [{
        "op": "refinement",
        "inputs": f"level {d}, g={model.names[min(gN)]}, h={model.names[min(Nh)]}",
        "expected": "union of left cosets",
        "got": "not a union",
    }]


def test_refinement_failures_follow_left_then_right_coset_ids(s4_d8_pair, monkeypatch):
    model = s4_d8_pair.model
    monkeypatch.setattr(oracle, "is_union_of_left_cosets", lambda model_, subset, M: False)
    got = [m["inputs"] for m in run_model_suite(s4_d8_pair, 0, random.Random(SEED)).mismatches]
    expected = [
        f"level {d}, g={model.names[g]}, h={model.names[h]}"
        for d in range(len(model.levels))
        for g, gN in zip(model.lefts[d].reps, model.lefts[d].sets)
        for h, Nh in zip(model.rights[d].reps, model.rights[d].sets)
        if gN & Nh
    ]
    assert len(expected) > len(model.levels)
    assert got == expected


@pytest.mark.parametrize("name", ["s4", "s4_d8", "z8", "s5"])
def test_refinement_subgroup_conjugates_by_the_right_cosets_that_meet_gN(name, monkeypatch):
    model = load_model(MODELS / f"{name}.model")
    conj = type(model).conj
    used = []

    def recorded(self, g, x):
        used.append(g)
        return conj(self, g, x)

    monkeypatch.setattr(type(model), "conj", recorded)
    for d, N in enumerate(model.levels):
        right = model.rights[d]
        for g, gN in zip(model.lefts[d].reps, model.lefts[d].sets):
            used.clear()
            refinement_subgroup(model, d, g)
            met = {right.ids[x] for x in gN}
            assert set(used) == {model.inv(right.reps[i]) for i in met}
            assert len(used) == len(met) * len(N)


def test_suite_deterministic_under_seed(z8_pair):
    a = run_model_suite(z8_pair, 80, random.Random(SEED)).to_json()
    b = run_model_suite(z8_pair, 80, random.Random(SEED)).to_json()
    assert a == b


def test_suite_tests_only_the_nonempty_intersections(monkeypatch):
    """One pass over each left coset finds every nonempty gN ∩ Nh; each is
    tested once, and the empty ones, trivially unions, not at all."""
    pair = finite_model_pair(load_model(MODELS / "s5.model"))
    model = pair.model
    calls = []
    literal_check = oracle.is_union_of_left_cosets

    def counted(model_, subset, M):
        calls.append(frozenset(subset))
        return literal_check(model_, subset, M)

    monkeypatch.setattr(oracle, "is_union_of_left_cosets", counted)
    assert run_model_suite(pair, 0, random.Random(SEED)).ok
    nonempty = []
    for d in range(len(model.levels)):
        left, right = model.lefts[d], model.rights[d]
        nonempty += [gN & Nh for gN in left.sets for Nh in right.sets if gN & Nh]
    # one test per pair of left and right cosets would be 15 425
    assert len(calls) == len(nonempty) == 273
    assert sorted(calls, key=sorted) == sorted(nonempty, key=sorted)
