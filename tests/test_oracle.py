"""The brute-force oracle against the engine, and the paper's coset
identities checked literally."""

import json
import random

import pytest

from commensurate import (
    CompletionElement,
    FiniteModelPair,
    PrecisionExhausted,
    Valuation,
    finite_model_pair,
    oracle,
    parse_model,
)
from commensurate.cli import entry
from commensurate import finitemodel
from commensurate.finitemodel import CosetTable, FiniteModel, load_model
from commensurate.oracle import _draws, compare_engine, enumerate_completion
from contract import MODEL_PAIRS, MODELS, corrupt, pair_named

SEED = 7


# --- the paper's coset identities, checked literally ---------------------------
# Given the load checks (levels nested and normal in K, the bottom normal
# in the whole group) each identity holds in every group, so the oracle
# command does not repeat them; the tests below, acceptance criteria 02
# and 03 and the fuzzed-chain property test in test_instances.py do.


def right_coset(model: FiniteModel, members, g: int) -> frozenset:
    """The literal right coset of ``members`` by g: each x·g."""
    return frozenset([model.mul_table[x][g] for x in members])


def right_cosets(model: FiniteModel, d: int) -> CosetTable:
    """The right cosets N_d·x of chain level d, built literally; the model
    keeps only the left table."""
    return CosetTable.build(model.n, lambda x: right_coset(model, model.levels[d], x))


def refinement_subgroup(model: FiniteModel, d: int, g: int) -> frozenset:
    """A finite-index subgroup M of the chain level N = N_d such that
    every set gN ∩ Nh is a union of left cosets of M.

    M is N intersected with the conjugates h^-1 N h, where h runs over
    the least representatives of the right cosets Nh that meet gN; an
    empty gN ∩ Nh is a union of cosets of any M.  M depends on g only
    through its left coset gN.
    """
    N = model.levels[d]
    right = right_cosets(model, d)
    M = set(N)
    for i in {right.ids[x] for x in model.lefts[d].of(g)}:
        h_inv = model.inv(right.reps[i])
        M &= {model.conj(h_inv, x) for x in N}
    return frozenset(M)


def is_union_of_left_cosets(model: FiniteModel, subset, M) -> bool:
    return all(model.left_coset(s, M) <= subset for s in subset)


def coherent_chains(model: FiniteModel):
    """All coherent nested left-coset chains (one per bottom coset)."""
    for g in model.lefts[-1].reps:
        yield [table.of(g) for table in model.lefts]


def left_right_check(model: FiniteModel, chain) -> bool:
    """Whether a coherent left-coset chain is also a coherent right-coset
    chain: at each level exactly one right coset contains the chain's
    bottom intersection, and those right cosets nest."""
    for d, coset in enumerate(chain):
        level = model.levels[d]
        if len(coset) != len(level):
            return False
        if d > 0 and not coset <= chain[d - 1]:
            return False
    bottom = chain[-1]
    previous = None
    for d in range(len(model.levels)):
        cosets = right_cosets(model, d)
        containing = {cosets.ids[b] for b in bottom}
        if len(containing) != 1:
            return False
        right = cosets.sets[containing.pop()]
        if previous is not None and not right <= previous:
            return False
        previous = right
    return True


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
        piece = gN & right_coset(model, N, h)
        assert is_union_of_left_cosets(model, piece, M)


def test_refinement_exhaustive_everywhere(model_pairs):
    for pair in model_pairs:
        model = pair.model
        for d, N in enumerate(model.levels):
            for g in range(model.n):
                M = refinement_subgroup(model, d, g)
                gN = model.left_coset(g, N)
                for h in range(model.n):
                    piece = gN & right_coset(model, N, h)
                    assert is_union_of_left_cosets(model, piece, M)


def _bottom_ids(model: FiniteModel) -> range:
    return range(len(model.lefts[-1].reps))


def test_completion_table_sizes(s4_pair, s4_d8_pair, z8_pair):
    # every product of bottom cosets is a bottom coset, and each one is hit
    for pair, k in ((s4_pair, 24), (s4_d8_pair, 6), (z8_pair, 8)):
        product = enumerate_completion(pair.model)
        ids = _bottom_ids(pair.model)
        assert len(ids) == k
        assert {product(i, j) for i in ids for j in ids} == set(range(k))


def test_completion_table_s4_d8_is_nonabelian(s4_d8_pair):
    product = enumerate_completion(s4_d8_pair.model)
    assert any(product(i, j) != product(j, i) for i in range(6) for j in range(6))


def test_completion_table_z8_is_cyclic(z8_pair):
    product = enumerate_completion(z8_pair.model)
    coset_of = z8_pair.model.lefts[-1].ids
    # repeated products of the class of #1 must sweep all 8 classes
    one = coset_of[1]
    seen, cur = set(), coset_of[0]
    for _ in range(8):
        seen.add(cur)
        cur = product(cur, one)
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
    product = enumerate_completion(model)
    ids = _bottom_ids(model)
    assert len(ids) == 2
    assert {product(i, j) for i in ids for j in ids} == {0, 1}


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


@pytest.mark.parametrize("pair", MODEL_PAIRS, ids=lambda p: p.name)
def test_a_right_coset_is_read_as_an_inverted_left_coset(pair):
    """compare_engine decides right_rep by g·N_d1 <= N_d·g exactly when
    the inverses of g·N_d1 lie in g^-1·N_d, since N_d·g = (g^-1·N_d)^-1."""
    model = pair.model
    inv = model.inv_table
    depths = range(len(model.levels))
    outcomes = set()
    for d in depths:
        right = right_cosets(model, d)
        for d1 in depths:
            for g in range(model.n):
                coset = model.lefts[d1].of(g)
                holds = coset <= right.of(g)
                assert holds == ({inv[x] for x in coset} <= model.lefts[d].of(inv[g])), (d1, d, g)
                outcomes.add(holds)
    assert outcomes == {True, False}


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
    rights = [right_cosets(model, d) for d in depths]
    for g in range(model.n):
        for d1 in depths:
            coset = model.lefts[d1].of(g)
            f = pair.embed(g, d1)
            want = _literal_depth(model, {model.inv(x) for x in coset}, model.inv(g))
            assert _engine_depth(f.inverse) == want, (model.names[g], d1)
            for d in depths:
                right = rights[d]
                feasible = len({right.ids[x] for x in coset}) == 1
                try:
                    h = f.right_rep(d)
                except PrecisionExhausted:
                    h = None
                assert (h is not None) == feasible, (model.names[g], d1, d)
                assert h is None or coset <= right.of(h)


# s5, of order 120, has its own test, without this one's order⁴ product loop
@pytest.mark.parametrize("pair", [p for p in MODEL_PAIRS if p.model.n <= 24 and not corrupt(p)],
                         ids=lambda p: p.name)
def test_engine_depths_are_the_literal_optima(pair):
    """Every product, inverse and right_rep claim the engine makes on a
    small model is the deepest one the literal cosets allow."""
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
    _check_inverses_and_right_reps(pair_named("s5"))


class _LossyPair(FiniteModelPair):
    """Sound and monotone, but one level coarser than it needs to be."""

    def conj_depth(self, g, depth):
        return min(super().conj_depth(g, depth) + 1, self.max_depth)


def test_compare_engine_detects_a_lossy_pair():
    pair = _LossyPair(pair_named("s4").model)
    report = compare_engine(pair, 200, random.Random(SEED))
    ops = {m["op"] for m in report.mismatches}
    assert ops & {"mul-depth", "inv-depth"}
    assert not any("coset" in op for op in ops)  # lossy, never unsound
    for m in report.mismatches:
        if m["op"] in ("mul-depth", "inv-depth"):
            got = -1 if m["got"] == "None" else int(m["got"])
            assert int(m["expected"]) > got, m


def _negated(eq_at_depth, pair):
    return lambda f1, f2, depth: not eq_at_depth(f1, f2, depth)


def _one_level_lower(valuation, pair):
    def lowered(f1, f2):
        val = valuation(f1, f2)
        return Valuation(val.depth - 1, val.indistinguishable)
    return lowered


def _flag_flipped(valuation, pair):
    def flipped(f1, f2):
        val = valuation(f1, f2)
        return Valuation(val.depth, not val.indistinguishable)
    return flipped


def _rep_moved_off_its_coset(method, pair):
    outside = pair.parse_literal("(1 4)")  # not in K, so in no chain level

    def moved(*args):
        got = method(*args)
        if isinstance(got, CompletionElement):
            return CompletionElement(pair, pair.mul(got.rep, outside), got.depth)
        return pair.mul(got, outside)  # right_rep answers with a bare rep
    return moved


def _exhausted_when_feasible(right_rep, pair):
    def refused(f, depth):
        right_rep(f, depth)
        raise PrecisionExhausted("refused", required_depth=depth)
    return refused


@pytest.mark.parametrize(
    "method,break_it,kinds",
    [
        ("eq_at_depth", _negated, {"eq_at_depth"}),
        ("valuation", _one_level_lower, {"valuation"}),
        ("valuation", _flag_flipped, {"valuation-flag"}),
        ("__mul__", _rep_moved_off_its_coset, {"mul-coset", "table"}),
        ("inverse", _rep_moved_off_its_coset, {"inv-coset"}),
        ("right_rep", _rep_moved_off_its_coset, {"right_rep-coset"}),
        ("right_rep", _exhausted_when_feasible, {"right_rep-feasible"}),
    ],
    ids=[
        "eq_at_depth", "valuation", "valuation-flag", "mul-coset-and-table",
        "inv-coset", "right_rep-coset", "right_rep-feasible",
    ],
)
def test_compare_engine_reports_each_broken_claim(s4_pair, monkeypatch, method, break_it, kinds):
    """Every check of compare_engine can fail: an engine method that lies
    is reported under its own kinds and no others."""
    broken = break_it(getattr(CompletionElement, method), s4_pair)
    monkeypatch.setattr(CompletionElement, method, broken)
    report = compare_engine(s4_pair, 100, random.Random(SEED))
    assert {m["op"] for m in report.mismatches} == kinds


# D8 on 4 points with K the Klein group {e, (1 3)(2 4), (2 4), (1 3)}; the
# rotation r = (1 2 3 4) normalises K but not N_1 = <(2 4)>, so the corrupt
# claims conj_depth(g, d) = d land inside K, one level too deep
_D8 = """kind: perm
points: 4
gens: (1 2 3 4), (2 4)
K: (1 3)(2 4), (2 4)
level: (2 4)
level: -
corrupt_conj_depth: {}
"""


def test_a_corrupt_model_reaches_the_coset_checks(tmp_path, capsys, monkeypatch):
    """oracle on the corrupt D8 model reports mul-coset, inv-coset and
    right_rep-coset mismatches (exit 1); its sound twin reports none."""
    monkeypatch.setenv("COMMENSURATE_SEED", "0")
    path = tmp_path / "d8.model"
    for corrupt_flag, code in (("true", 1), ("false", 0)):
        path.write_text(_D8.format(corrupt_flag), encoding="utf-8")
        assert entry(["oracle", str(path), "--trials", "300", "--json"]) == code
        ops = [m["op"] for m in json.loads(capsys.readouterr().out)["mismatches"]]
        if code:
            assert {"mul-coset", "inv-coset", "right_rep-coset"} <= set(ops), ops
        else:
            assert ops == []


def test_run_model_suite_reports(s4_pair, capsys, monkeypatch):
    report = compare_engine(s4_pair, 50, random.Random(SEED))
    assert report.ok
    assert (report.model, report.trials, report.mismatches) == ("s4", 50, [])
    # oracle --json writes the report's three fields, mismatches included
    report = compare_engine(pair_named("s4_corrupt"), 50, random.Random(SEED))
    assert report.mismatches
    monkeypatch.setenv("COMMENSURATE_SEED", str(SEED))
    argv = ["oracle", str(MODELS / "s4_corrupt.model"), "--trials", "50", "--json"]
    assert entry(argv) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {
        "model": report.model, "trials": report.trials, "mismatches": report.mismatches,
    }


def _literal_product_set(model: FiniteModel, inputs: str) -> list:
    """The product set of a trial's two cosets, by the |coset1|·|coset2|
    double loop, read from its label "rep1@d1, rep2@d2"."""
    (r1, d1), (r2, d2) = (
        (model.names.index(name), int(d))
        for name, d in (part.split("@") for part in inputs.split(", "))
    )
    product_set = set()
    for x in model.lefts[d1].of(r1):
        for y in model.lefts[d2].of(r2):
            product_set.add(model.mul(x, y))
    return sorted(product_set)


def test_a_product_claimed_a_level_too_deep_is_a_mul_coset_mismatch(s4_pair, monkeypatch):
    """Every product the engine gets right, claimed one level deeper, fails
    the containment check, also past the right factor's depth, where the
    claimed coset is too small to hold the product set."""
    engine_mul = CompletionElement.__mul__
    deepened, past_right = [], []

    def one_level_deeper(self, other):
        prod = engine_mul(self, other)
        if prod.depth == prod.pair.max_depth:
            return prod
        deepened.append(prod)
        if prod.depth == other.depth:
            past_right.append(prod)
        return CompletionElement(prod.pair, prod.rep, prod.depth + 1)

    monkeypatch.setattr(CompletionElement, "__mul__", one_level_deeper)
    report = compare_engine(s4_pair, 200, random.Random(SEED))
    found = [m for m in report.mismatches if m["op"] == "mul-coset"]
    assert past_right and len(found) == len(deepened)
    for m in found:
        assert m["expected"] == str(_literal_product_set(s4_pair.model, m["inputs"]))


def test_suite_enumerates_the_completion_once(s4_d8_pair, monkeypatch):
    calls = []
    enumerate_once = oracle.enumerate_completion

    def counted(model):
        calls.append(model.name)
        return enumerate_once(model)

    monkeypatch.setattr(oracle, "enumerate_completion", counted)
    assert compare_engine(s4_d8_pair, 20, random.Random(SEED)).ok
    assert calls == ["s4_d8"]


@pytest.mark.parametrize("pair", MODEL_PAIRS, ids=lambda p: p.name)
def test_refinement_subgroup_depends_on_the_left_coset_only(pair):
    model = pair.model
    for d in range(len(model.levels)):
        left = model.lefts[d]
        for g in range(model.n):
            M = refinement_subgroup(model, d, g)
            assert M == refinement_subgroup(model, d, left.reps[left.ids[g]])


def test_suite_deterministic_under_seed(z8_pair):
    a = compare_engine(z8_pair, 80, random.Random(SEED))
    b = compare_engine(z8_pair, 80, random.Random(SEED))
    assert (a.model, a.trials, a.mismatches) == (b.model, b.trials, b.mismatches)


def test_the_draws_are_randrange_and_choice_one_for_one():
    """The suite's draws take the bits random.Random's randrange and choice
    take and give their values, so seeded runs and the goldens keep
    their trials."""
    for seed in range(20):
        want, got = random.Random(seed), random.Random(seed)
        below = _draws(got)
        for n in range(1, 251):
            assert below(n) == want.randrange(n), (seed, n)
            seq = range(n, 3 * n, 2)
            assert seq[below(len(seq))] == want.choice(seq), (seed, n)
        assert got.getstate() == want.getstate()


def test_a_sound_run_names_no_element(monkeypatch):
    """Loading s5 and 50 sound trials spell no permutation; printing one
    element spells that one alone."""
    calls = []
    spell = finitemodel.perm_to_cycles

    def counted(p):
        calls.append(p)
        return spell(p)

    monkeypatch.setattr(finitemodel, "perm_to_cycles", counted)
    pair = finite_model_pair(load_model(MODELS / "s5.model"))
    assert compare_engine(pair, 50, random.Random(SEED)).ok
    assert calls == []
    assert pair.format_element(pair.parse_literal("(1 2 3)")) == "(1 2 3)"
    assert len(calls) == 1
