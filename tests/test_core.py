"""Engine laws: products, inverses, depths, valuations, targets."""

import contextlib
import io
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from commensurate import (
    BS12Pair,
    CommensuratedPair,
    CompletionElement,
    DiscreteTarget,
    DyadicAffine,
    FiniteModelPair,
    IntegerChainPair,
    Mat2,
    PrecisionExhausted,
    SL2Pair,
    Valuation,
)
from commensurate import core
from commensurate.core import _gallop
from commensurate.expr import evaluate
from commensurate.finitemodel import _closure
from commensurate.integers import FactorialChainPair, is_prime
from commensurate.registry import resolve_instance
from contract import MODEL_PAIRS, PAIRS, ROOT, corrupt
from test_cli import time_limit

Z2 = IntegerChainPair(2)
BS = BS12Pair()

ints = st.integers(min_value=-(1 << 40), max_value=1 << 40)
depths = st.integers(min_value=0, max_value=12)
dyadics = st.builds(
    lambda num, k, m: DyadicAffine(Fraction(num, 1 << k), m),
    st.integers(min_value=-512, max_value=512),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=-4, max_value=4),
)


# --- embed / truncate ---------------------------------------------------------

def test_embed_identity():
    f = Z2.embed(0, 5)
    assert f.rep == 0 and f.depth == 5


def test_embed_keeps_rep():
    f = Z2.embed(5, 3)
    assert f.rep == 5 and f.depth == 3
    assert f.eq_at_depth(Z2.embed(13, 3), 3)  # 13 - 5 = 8 is in 8Z


def test_embed_generator():
    f = BS.embed(BS.generators["a"], 4)
    assert f.rep == DyadicAffine(Fraction(1), 0) and f.depth == 4


def test_embed_rejects_bad_depth(s4_pair):
    # every depth argument is a non-negative int up to max_depth
    sl2 = SL2Pair(3)
    for pair, g in ((Z2, 1), (sl2, sl2.generators["u"]), (s4_pair, 1)):
        f = pair.embed(g, 2)
        for bad, reason in ((1.5, "an int, got float"), (True, "an int, got bool"),
                            (-1, ">= 0, got -1")):
            message = rf"^depth must be {reason}$"
            with pytest.raises(ValueError, match=message):
                pair.embed(g, bad)
            with pytest.raises(ValueError, match=message):
                f.eq_at_depth(f, bad)
            with pytest.raises(ValueError, match=message):
                f.truncate(bad)
        with pytest.raises(ValueError, match=r"^depth must be >= 0, got -5$"):
            f.right_rep(-5)
        # a depth past the inputs is still out of precision first
        with pytest.raises(PrecisionExhausted):
            f.eq_at_depth(f, 99)
        with pytest.raises(PrecisionExhausted):
            f.truncate(9)
    with pytest.raises(ValueError, match=r"^s4: chain has no level 5 \(deepest is 2\)$"):
        s4_pair.embed(1, 0).right_rep(5)


def test_a_depth_that_is_not_an_int_is_refused_before_it_is_compared(s4_pair):
    """truncate and eq_at_depth read the depth's type before comparing it
    with the element's depth, so a depth no int compares with gives the
    same ValueError as embed, never a TypeError."""
    sl2 = SL2Pair(3)
    for pair, g in ((Z2, 1), (sl2, sl2.generators["h"]), (s4_pair, 1)):
        f = pair.embed(g, 2)
        for bad in (None, "x", []):
            message = rf"^depth must be an int, got {type(bad).__name__}$"
            with pytest.raises(ValueError, match=message):
                f.truncate(bad)
            with pytest.raises(ValueError, match=message):
                f.eq_at_depth(f, bad)


def test_truncate():
    f = Z2.embed(5, 8)
    assert f.truncate(3).depth == 3 and f.truncate(3).rep == 5
    assert f.truncate(8) is f
    with pytest.raises(PrecisionExhausted):
        f.truncate(9)
    with pytest.raises(ValueError, match=r"^depth must be >= 0, got -1$"):
        f.truncate(-1)


# --- multiplication and inversion ---------------------------------------------

def test_mul_z2_example():
    f = Z2.embed(5, 4) * Z2.embed(6, 4)
    assert f.rep == 11 and f.depth == 4


def test_mul_bs12_example():
    a, t = BS.generators["a"], BS.generators["t"]
    f = BS.embed(t, 5) * BS.embed(a, 5)
    assert f.rep == DyadicAffine(Fraction(2), 1)
    assert f.depth == 5
    a2t = BS.mul(BS.mul(a, a), t)
    assert f.eq_at_depth(BS.embed(a2t, 4), 4)


def test_mul_depth_rule_bs12():
    # right factor t^-1 needs conj depth d+1 <= 2, so the product depth is 1
    tinv = BS.inv(BS.generators["t"])
    f = BS.embed(DyadicAffine(Fraction(1), 0), 2) * BS.embed(tinv, 9)
    assert f.depth == 1


def test_mul_precision_exhausted():
    f = BS.embed(DyadicAffine(Fraction(0), 3), 9)
    shallow = BS.embed(BS.identity, 1)
    with pytest.raises(PrecisionExhausted) as err:
        shallow * f
    assert err.value.required_depth == 3


def test_inv_z2_example():
    f = Z2.embed(5, 4).inverse()
    assert f.eq_at_depth(Z2.embed(11, 4), 4)


def test_inv_bs12_example():
    f = BS.embed(DyadicAffine(Fraction(3), 2), 5).inverse()
    assert f.rep == DyadicAffine(Fraction(-3, 4), -2)
    assert f.depth == 3


def test_inv_exhausted_reports_requirement():
    f = BS.embed(DyadicAffine(Fraction(0), 3), 2)
    with pytest.raises(PrecisionExhausted) as err:
        f.inverse()
    assert err.value.required_depth == 3


def test_cross_pair_rejected():
    with pytest.raises(ValueError):
        Z2.embed(1, 2) * IntegerChainPair(2).embed(1, 2)
    with pytest.raises(TypeError):
        Z2.embed(1, 2) * 7


@given(ints, ints, depths)
def test_theta_is_a_homomorphism(g, h, d):
    lhs = Z2.embed(g, d) * Z2.embed(h, d)
    assert lhs.eq_at_depth(Z2.embed(g + h, d), lhs.depth)


@given(dyadics, dyadics, dyadics)
def test_associativity_at_attained_depths(x, y, z):
    fx, fy, fz = (BS.embed(v, 24) for v in (x, y, z))
    left = (fx * fy) * fz
    right = fx * (fy * fz)
    d = min(left.depth, right.depth)
    assert left.eq_at_depth(right, d)


@given(dyadics, depths)
def test_inverse_law(x, d):
    f = BS.embed(x, d + 2 * abs(x.texp))
    prod = f * f.inverse()
    assert prod.eq_at_depth(BS.embed(BS.identity, prod.depth), prod.depth)


@given(dyadics, depths)
def test_two_sided_identity(x, d):
    f = BS.embed(x, d)
    one_right = f * BS.embed(BS.identity, f.depth)
    assert one_right.depth == f.depth and one_right.eq_at_depth(f, f.depth)
    # the left identity must be embedded deep enough to cover conjugation
    one = BS.embed(BS.identity, BS.conj_depth(x, d))
    one_left = one * f
    assert one_left.depth == f.depth and one_left.eq_at_depth(f, f.depth)


@given(dyadics, dyadics, depths, st.integers(min_value=-64, max_value=64))
def test_coset_well_definedness(x, y, d, k):
    """Replacing a rep by rep*n for n in the depth level changes nothing."""
    d = d + abs(x.texp) + abs(y.texp)  # deep enough that products stay feasible
    n = DyadicAffine(Fraction(k * (1 << d)), 0)
    f, g = BS.embed(x, d), BS.embed(y, d)
    f2 = BS.embed(BS.mul(x, n), d)
    assert f.eq_at_depth(f2, d)
    p, p2 = f * g, f2 * g
    assert p.depth == p2.depth and p.eq_at_depth(p2, p.depth)
    q, q2 = g * f, g * f2
    assert q.depth == q2.depth and q.eq_at_depth(q2, q.depth)
    i, i2 = f.inverse(), f2.inverse()
    assert i.depth == i2.depth and i.eq_at_depth(i2, i.depth)


# --- observation: eq_at_depth, valuation, right_rep ----------------------------

def test_eq_at_depth_examples():
    eight, one = Z2.embed(8, 6), Z2.embed(0, 6)
    assert eight.eq_at_depth(one, 3)
    assert not eight.eq_at_depth(one, 4)
    assert eight.eq_at_depth(eight, 6)


def test_completion_elements_compare_by_identity():
    """Equal cosets are compared with eq_at_depth; == and hash see the object."""
    f, g = Z2.embed(5, 4), Z2.embed(5, 4)
    assert f is not g and f != g and f == f
    assert f.eq_at_depth(g, 4)
    assert len({f, g, f}) == 2 and hash(f) == hash(f)
    assert repr(f) == "<5 @ depth 4>"
    assert repr(BS.embed(BS.generators["t"], 2)) == "<(0; 1) @ depth 2>"


def test_eq_at_depth_needs_depth():
    with pytest.raises(PrecisionExhausted):
        Z2.embed(1, 2).eq_at_depth(Z2.embed(1, 8), 5)


def test_valuation_examples():
    v = Z2.embed(8, 6).valuation(Z2.embed(0, 6))
    assert v == Valuation(3, False) and str(v) == "3"
    f = Z2.embed(9, 6)
    assert f.valuation(f) == Valuation(6, True)
    assert str(Valuation(3, True)) == "indistinguishable at depth 3"
    # in z2 the level-0 subgroup is all of G, so elements can only be
    # coset-disjoint at level 0 in pairs where G is strictly bigger than K
    w = BS.embed(BS.generators["t"], 4).valuation(BS.embed(BS.identity, 4))
    assert w.depth == -1 and "disjoint" in str(w)


@given(ints, ints, depths)
def test_valuation_agrees_with_eq(g, h, d):
    f1, f2 = Z2.embed(g, d), Z2.embed(h, d)
    v = f1.valuation(f2)
    if v.indistinguishable:
        assert f1.eq_at_depth(f2, d)
    else:
        assert v.depth < d
        if v.depth >= 0:
            assert f1.eq_at_depth(f2, v.depth)
        assert not f1.eq_at_depth(f2, v.depth + 1)


def test_right_rep_abelian_is_left_rep():
    f = Z2.embed(13, 6)
    assert f.right_rep(4) == 13


@given(dyadics, depths, st.integers(min_value=-32, max_value=32))
def test_right_rep_contains_finer_coset(x, d, k):
    f = BS.embed(x, d + abs(x.texp))
    h = f.right_rep(d)
    assert h == x
    # any member of the known left coset must lie in N_d * h
    member = BS.mul(x, DyadicAffine(Fraction(k * (1 << f.depth)), 0))
    assert BS.in_level(BS.mul(member, BS.inv(h)), d)


def test_right_rep_exhausted():
    f = BS.embed(DyadicAffine(Fraction(1), 2), 3)
    with pytest.raises(PrecisionExhausted) as err:
        f.right_rep(2)
    assert err.value.required_depth == 4


# --- discrete targets -----------------------------------------------------------

MOD8 = DiscreteTarget(
    name="mod:8", phi=lambda x: x % 8, kill_level=3, combine=lambda u, v: (u + v) % 8
)


def test_valuations_and_targets_compare_by_value():
    assert Z2.embed(8, 6).valuation(Z2.embed(0, 6)) == Valuation(depth=3, indistinguishable=False)
    assert Valuation(3, False) != Valuation(3, True)
    assert hash(Valuation(3, False)) == hash(Valuation(3, False))
    same = DiscreteTarget(MOD8.name, MOD8.phi, MOD8.kill_level, MOD8.combine)
    assert same == MOD8 and hash(same) == hash(MOD8)
    assert DiscreteTarget(MOD8.name, MOD8.phi, 4, MOD8.combine) != MOD8


def test_target_factorization():
    assert MOD8.evaluate(Z2.embed(13, 3)) == 5
    assert MOD8.evaluate(Z2.embed(13, 7)) == 5


def test_target_needs_kill_level():
    with pytest.raises(PrecisionExhausted) as err:
        MOD8.evaluate(Z2.embed(13, 2))
    assert err.value.required_depth == 3


@given(ints, ints)
def test_target_multiplicative(g, h):
    f = Z2.embed(g, 5) * Z2.embed(h, 5)
    assert MOD8.evaluate(f) == MOD8.combine(
        MOD8.evaluate(Z2.embed(g, 3)), MOD8.evaluate(Z2.embed(h, 3))
    )


def test_repr_mentions_rep_and_depth():
    text = repr(Z2.embed(5, 3))
    assert "5" in text and "3" in text


# --- depth search ------------------------------------------------------------------

def _linear_walk(hit, start, stop):
    step = 1 if stop >= start else -1
    for d in range(start, stop + step, step):
        if hit(d):
            return d
    return None


@given(
    st.integers(min_value=0, max_value=70),
    st.integers(min_value=-1, max_value=71),
    st.booleans(),
)
@example(cap=0, threshold=0, upward=False)  # cap == 0, passes
@example(cap=0, threshold=-1, upward=False)  # cap == 0, fails
@example(cap=70, threshold=71, upward=False)  # every depth feasible
@example(cap=70, threshold=-1, upward=False)  # precision exhausted
@example(cap=70, threshold=0, upward=True)  # disjoint at level 0
@example(cap=70, threshold=71, upward=True)  # indistinguishable
def test_gallop_matches_linear_walk(cap, threshold, upward):
    """On monotone step functions the search equals the linear walk."""
    if upward:  # valuation: walk up from 0 to the first disagreement
        start, stop, hit = 0, cap, lambda d: d >= threshold
    else:  # attainable depth: walk down from cap to the first feasible depth
        start, stop, hit = cap, 0, lambda d: d <= threshold
    probes = []

    def counted(d):
        probes.append(d)
        return hit(d)

    found = _gallop(counted, start, stop)
    assert found == _linear_walk(hit, start, stop)
    gap = abs((stop if found is None else found) - start)
    assert len(probes) <= 2 * math.log2(gap + 1) + 2


@given(st.lists(st.booleans(), min_size=1, max_size=71), st.booleans())
@example(values=[False], upward=True)
def test_gallop_returns_only_probed_depths(values, upward):
    """Soundness needs no monotonicity: every answer was tested."""
    cap = len(values) - 1
    start, stop = (0, cap) if upward else (cap, 0)
    probes = {}

    def hit(d):
        probes[d] = values[d]
        return values[d]

    found = _gallop(hit, start, stop)
    if found is None:
        assert probes.get(stop) is False
    else:
        assert probes.get(found) is True
        before = found - (1 if upward else -1)
        assert found == start or probes.get(before) is False


class _CountingPair(CommensuratedPair):
    """Another pair's arithmetic, counting the engine's group operations and
    chain queries."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.max_depth = inner.max_depth
        self.generators = inner.generators
        self.calls = Counter()
        self.conj_depths = []  # the depth of each conj_depth call, in order

    @property
    def identity(self):
        return self.inner.identity

    def mul(self, x, y):
        self.calls["mul"] += 1
        return self.inner.mul(x, y)

    def inv(self, x):
        self.calls["inv"] += 1
        return self.inner.inv(x)

    def in_level(self, x, depth):
        self.calls["in_level"] += 1
        return self.inner.in_level(x, depth)

    def conj_depth(self, g, depth):
        self.calls["conj_depth"] += 1
        self.conj_depths.append(depth)
        return self.inner.conj_depth(g, depth)

    def validate(self, x):
        self.inner.validate(x)


class _DerivedConjPair(_CountingPair):
    """A counting pair that hides its inner pair's conj_depth: the seam's
    default derives it from the inner pair's level generators."""

    conj_depth = CommensuratedPair.conj_depth

    def level_generators(self, depth):
        return self.inner.level_generators(depth)


def _log_bound(depth):
    return 2 * math.log2(depth) + 4


def test_product_search_is_logarithmic():
    sl2 = _CountingPair(SL2Pair(3))
    u, h = sl2.generators["u"], sl2.generators["h"]
    f = sl2.embed(u, 2) * sl2.embed(h, 65536)
    assert f.depth == 0  # conj_depth(h, d) = d + 2 leaves only level 0
    assert sl2.calls["conj_depth"] <= _log_bound(65536)
    sl2.calls.clear()
    # conj_depth(g, d) >= d, so the search starts at the left factor's depth
    w = sl2.embed(u, 2) * sl2.embed(u, 65536)
    assert w.depth == 2
    assert sl2.calls["conj_depth"] == 1
    sl2.calls.clear()
    g = sl2.embed(h, 65536).inverse()
    assert g.depth == 65534
    assert sl2.calls["conj_depth"] <= _log_bound(65536)


def test_exhausted_search_probes_depth_zero_once():
    """A search that exhausts precision has just probed depth 0, and that
    probe's value is the requirement it reports; it is not asked again."""
    bs = _CountingPair(BS12Pair())
    a, t5 = bs.generators["a"], bs.power(bs.generators["t"], 5)
    for op, message in (
        (lambda: bs.embed(a, 3) * bs.embed(t5, 8), "product needs a left factor of depth"),
        (lambda: bs.embed(t5, 3).inverse(), "inverse needs depth"),
    ):
        bs.conj_depths.clear()
        with pytest.raises(PrecisionExhausted) as err:
            op()
        assert str(err.value) == f"{message} >= 5, have 3"
        assert err.value.required_depth == 5
        assert bs.conj_depths == [3, 2, 0]


# per instance: a base element, and an element of level w outside level w + 1
_VALUATION_CASES = {
    "z2": (IntegerChainPair(2), lambda pair: 12345, lambda pair, w: 1 << w),
    "bs12": (
        BS12Pair(),
        lambda pair: pair.mul(pair.generators["a"], pair.power(pair.generators["t"], -5)),
        lambda pair, w: DyadicAffine(Fraction(3 << w), 0),
    ),
    "sl2:3": (
        SL2Pair(3),
        lambda pair: pair.mul(pair.generators["u"], pair.power(pair.generators["h"], 7)),
        lambda pair, w: Mat2(Fraction(1), Fraction(2 * 3**w), Fraction(0), Fraction(1)),
    ),
}


def test_valuation_search_is_logarithmic():
    """One valuation computes its quotient once (one mul, one inv) and
    then makes O(log cap) membership tests, whatever the cap."""
    for name, (inner, make_base, make_level) in _VALUATION_CASES.items():
        pair = _CountingPair(inner)
        g = make_base(inner)
        for cap in (1, 37, 4096):
            base = pair.embed(g, cap)
            for w, expect in (
                (0, Valuation(0, False)),
                (cap * 3 // 4, Valuation(cap * 3 // 4, False)),
                (cap, Valuation(cap, True)),
                (None, Valuation(cap, True)),  # base against itself
            ):
                other = base if w is None else pair.embed(inner.mul(g, make_level(inner, w)), cap)
                pair.calls.clear()
                assert base.valuation(other) == expect, (name, cap, w)
                assert (pair.calls["mul"], pair.calls["inv"]) == (1, 1), (name, cap, w)
                assert pair.calls["in_level"] <= _log_bound(cap), (name, cap, w)


def test_exhausted_search_reports_requirement():
    sl2 = _CountingPair(SL2Pair(3))
    u, h = sl2.generators["u"], sl2.generators["h"]
    with pytest.raises(PrecisionExhausted) as err:
        sl2.embed(u, 1) * sl2.embed(h, 65536)
    assert err.value.required_depth == 2
    assert str(err.value) == "product needs a left factor of depth >= 2, have 1"
    with pytest.raises(PrecisionExhausted) as err:
        sl2.embed(h, 1).inverse()
    assert err.value.required_depth == 2
    assert str(err.value) == "inverse needs depth >= 2, have 1"
    assert sl2.calls["conj_depth"] <= 2 * _log_bound(65536)


# --- truncated powers ----------------------------------------------------------------

def _left_fold(f, k):
    """f^k as the k-fold left-to-right product, one search per factor."""
    if k == 0:
        return f.pair.embed(f.pair.identity, f.depth)
    base = f if k > 0 else f.inverse()
    out = base
    for _ in range(abs(k) - 1):
        out = out * base
    return out


def _outcome(compute):
    try:
        f = compute()
    except PrecisionExhausted as err:
        return "exhausted", str(err), err.required_depth
    return "ok", f.rep, f.depth


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.name)
@given(
    seed=st.integers(min_value=0, max_value=1 << 32),
    depth=st.integers(min_value=0, max_value=16),
    k=st.integers(min_value=-40, max_value=40),
)
def test_power_matches_left_fold(pair, seed, depth, k):
    """Same rep and depth, or the same PrecisionExhausted text and requirement."""
    if pair.max_depth is not None:
        depth = min(depth, pair.max_depth)
    f = pair.embed(pair.sample(random.Random(seed)), depth)
    assert _outcome(lambda: f ** k) == _outcome(lambda: _left_fold(f, k))


@pytest.mark.parametrize(
    "pair,rep,cost",
    [(BS, BS.power(BS.generators["t"], 3), 3), (SL2Pair(3), SL2Pair(3).generators["h"], 2)],
    ids=["bs12-t^3", "sl2:3-h"],
)
@pytest.mark.parametrize("depth", [0, 1, 2, 12, 13, 14, 300])
def test_power_matches_left_fold_where_depth_runs_out(pair, rep, cost, depth):
    """Around the factor count at which a power of cost c runs out of its
    depth d, |k| - 1 near d // c, the one-question power agrees with the
    left fold: the same rep and depth, or the same exhaustion."""
    assert pair.conj_depth(rep, 0) == cost
    f = pair.embed(rep, depth)
    for factors in range(max(0, depth // cost - 1), depth // cost + 2):
        for k in (factors + 1, -factors - 1):
            assert _outcome(lambda: f ** k) == _outcome(lambda: _left_fold(f, k)), k


def test_a_huge_power_at_a_huge_depth_is_one_question():
    """10**11 factors of cost 1 leave 10**12 - (10**11 - 1) levels, and
    10**13 factors run out with 0 levels left, both at once."""
    f = BS.embed(BS.generators["t"], 10**12)
    with time_limit(2):
        g = f ** 10**11
        assert (g.depth, BS.format_element(g.rep)) == (900000000001, "(0; 100000000000)")
        with pytest.raises(PrecisionExhausted, match=r"have 0$") as err:
            f ** 10**13
    assert err.value.required_depth == 1


def _count_searches(monkeypatch):
    calls = []
    search = core._attainable_depth

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(core, "_attainable_depth", counted)
    return calls


@pytest.mark.parametrize(
    "pair,gen,rep,depth,error",
    [
        (BS, "a", DyadicAffine(Fraction(10**9), 0), 12, None),
        (BS, "t", None, 12, "product needs a left factor of depth >= 1, have 0"),
        (SL2Pair(3), "u", SL2Pair(3).power(SL2Pair(3).generators["u"], 10**9), 12, None),
        (SL2Pair(3), "h", None, 12, "product needs a left factor of depth >= 2, have 0"),
    ],
    ids=["bs12-a", "bs12-t", "sl2:3-u", "sl2:3-h"],
)
def test_power_search_count_is_bounded_by_depth(monkeypatch, pair, gen, rep, depth, error):
    """A power, however large its exponent, asks one depth question."""
    searches = _count_searches(monkeypatch)
    f = pair.embed(pair.generators[gen], depth)
    if error is None:
        g = f ** 10**9
        assert g.rep == rep and g.depth == depth
    else:
        with pytest.raises(PrecisionExhausted, match=error):
            f ** 10**9
    assert len(searches) == 1


@pytest.mark.parametrize("pair", MODEL_PAIRS, ids=lambda p: p.name)
def test_power_search_count_on_models(pair):
    """A model declares no cost, so a power gallops once per factor until
    its depth stops falling: at most depth + 1 logarithmic searches."""
    counting = _CountingPair(pair)
    for g in range(pair.model.n):
        f = counting.embed(g, pair.max_depth)
        counting.calls.clear()
        try:
            f ** 10**9
        except PrecisionExhausted:
            pass
        bound = (f.depth + 1) * _log_bound(f.depth + 1)
        assert counting.calls["conj_depth"] <= bound, pair.format_element(g)


class _DeclaredCostPair(_CountingPair):
    """A counting pair that declares its inner pair's constant conjugation cost."""

    constant_conj_cost = True


@pytest.mark.parametrize("inner", [SL2Pair(3), BS, Z2], ids=lambda p: p.name)
def test_declared_cost_answers_in_one_call(monkeypatch, inner):
    """A pair that declares a constant conjugation cost makes exactly one
    conj_depth call per product, per inverse and per power (plus the
    inverse's when k < 0), and gets the inner pair's reps, depths and
    PrecisionExhausted."""
    pair = _DeclaredCostPair(inner)
    searches = _count_searches(monkeypatch)
    rng = random.Random(7)
    for _ in range(40):
        x, y = inner.sample(rng), inner.sample(rng)
        d1, d2 = (rng.choice((0, 1, 2, 5, 12, 4096)) for _ in range(2))
        k = rng.randint(-9, 9)
        fast = pair.embed(x, d1), pair.embed(y, d2)
        slow = inner.embed(x, d1), inner.embed(y, d2)
        for op, calls in ((lambda f, g: f * g, 1), (lambda f, g: f.inverse(), 1),
                          (lambda f, g: f ** k, 1 + (k < 0))):
            expect = _outcome(lambda: op(*slow))
            pair.calls.clear()
            searches.clear()
            assert _outcome(lambda: op(*fast)) == expect, (d1, d2, k)
            assert pair.calls["conj_depth"] == len(searches) <= calls, (d1, d2, k)


# --- closed forms against the default searches ----------------------------------

def _outside_k(pair):
    """Elements outside K = N_0 that the samplers may miss."""
    if pair.name == "bs12":
        return [DyadicAffine(Fraction(1, 2), 0), DyadicAffine(Fraction(8), -3)]
    if pair.name.startswith("sl2"):
        return [pair.inv(pair.generators["h"])]
    return []


def _max_cap(pair):
    return 40 if pair.max_depth is None else min(40, pair.max_depth)


def _elements(pair, rng, count):
    """Samples, chain members, the identity, their products and elements
    outside K, in random order."""
    top = _max_cap(pair)
    pool = [pair.identity, *pair.generators.values(), *_outside_k(pair)]
    for _ in range(count):
        member = pair.sample_level(rng.randint(0, top), rng)
        pool += [pair.sample(rng), member, pair.mul(pair.sample(rng), member),
                 pair.mul(member, pair.sample_level(rng.randint(0, top), rng))]
    rng.shuffle(pool)
    return pool


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.name)
def test_conj_cost_is_the_conj_depth_offset(pair):
    """The shipped closed-form instances declare a constant conjugation
    cost, finite models do not, and where it is declared conj_depth(g, d)
    == d + conj_depth(g, 0) at every d up to the cap."""
    assert pair.constant_conj_cost == (not isinstance(pair, FiniteModelPair))
    if pair.constant_conj_cost:
        for g in _elements(pair, random.Random(7), 30):
            cost = pair.conj_depth(g, 0)
            for d in range(_max_cap(pair) + 1):
                assert pair.conj_depth(g, d) == d + cost, (pair.format_element(g), d)


#: Caps past _max_cap for the unbounded chains: around powers of 2 and the
#: deepest sampled level.
_DEEP_CAPS = (41, 63, 64, 100, 255, 256, 300, 399, 400, 401, 1000)


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.name)
def test_level_of_matches_the_default_search(pair):
    """At every cap up to 40; on the unbounded chains also at the deep caps,
    with members of levels 41 to 400 and their products among the elements."""
    rng = random.Random(7)
    elements = _elements(pair, rng, 30)
    caps = range(_max_cap(pair) + 1)
    if pair.max_depth is None:
        deep = [pair.sample_level(rng.randint(41, 400), rng) for _ in range(10)]
        elements += deep + [pair.mul(x, n) for x, n in zip(elements, deep)]
        caps = [*caps, *_DEEP_CAPS]
    for x in elements:
        for cap in caps:
            expect = CommensuratedPair.level_of(pair, x, cap)
            assert pair.level_of(x, cap) == expect, (pair.format_element(x), cap)


@pytest.mark.parametrize("pair", MODEL_PAIRS, ids=lambda p: p.name)
def test_model_level_of_table_matches_the_default_search_everywhere(pair):
    """A model's deepest-level table gives the default's in_level search's
    answer at every element and every cap."""
    for x in range(pair.model.n):
        for cap in range(pair.max_depth + 1):
            expect = CommensuratedPair.level_of(pair, x, cap)
            assert pair.level_of(x, cap) == expect, (pair.format_element(x), cap)


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.name)
def test_each_level_generator_lies_in_its_level(pair):
    """Each of level_generators(d) lies in N_d, for d < 8 or to the bottom;
    a model's generators close to its level."""
    for d in range(8 if pair.max_depth is None else pair.max_depth + 1):
        gens = pair.level_generators(d)
        assert all(pair.in_level(s, d) for s in gens), d
        if isinstance(pair, FiniteModelPair):
            assert _closure(pair.identity, gens, pair.mul) == pair.model.levels[d], d


def _factorial_level_by_walk(x, cap):
    """The deepest d <= cap with d! dividing x, walking up from level 0."""
    d, f = 0, 1
    while d < cap and x % (f * (d + 1)) == 0:
        d += 1
        f *= d
    return d


#: 2·3·…·61, the product of the primes below 64
_PRIMORIAL = math.prod(p for p in range(2, 64) if is_prime(p))


def test_zfact_level_of_at_deep_levels():
    """x = ±w!·k with w <= 250 and extra factors of 2 and 3 in k, small x,
    0, two powers whose level is set by the first prime they lack, and
    ±(2·3·…·61)**900 (level 66) and ±2**900·3·5·…·61 (level 5), at caps up
    to 1000, against a walk up from level 0."""
    zfact = resolve_instance("zfact")
    rng = random.Random(11)
    cases = [(x, cap) for x in (0, 1, -1, 2, -6, 2**40, 3**30, 30030**900, (30030 * 17 * 19)**50)
             for cap in (0, 1, 5, 16, 22, 300, 1000)]
    cases += [(sign * x, cap) for x in (_PRIMORIAL**900, 2**899 * _PRIMORIAL)
              for sign in (1, -1) for cap in (5, 66, 67, 1000)]
    for _ in range(300):
        w = rng.randint(0, 250)
        k = rng.randrange(1, 1 << 20) * 2 ** rng.randint(0, 12) * 3 ** rng.randint(0, 6)
        x = math.factorial(w) * k * rng.choice((-1, 1))
        caps = {0, 1, w, w + 1, w + 13, rng.randint(0, 300), 300} | ({w - 1} if w else set())
        cases += [(x, cap) for cap in caps]
    for x, cap in cases:
        assert zfact.level_of(x, cap) == _factorial_level_by_walk(x, cap), (x, cap)


@pytest.mark.parametrize("name", ["z3", "sl2:3", "sl2:5"])
def test_p_adic_level_of_members_at_deep_levels(name):
    """A member of N_k outside N_(k+1), for k up to 400, has level min(k, cap):
    ±p^k·m on z3, and an upper times a lower unipotent with off-diagonal
    entries of p-adic valuation k and k + j on sl2."""
    pair = resolve_instance(name)
    p = pair.base if name == "z3" else pair.p
    rng = random.Random(13)
    for k in [*range(0, 400, 7), 399, 400]:
        m = rng.randrange(1, 1 << 30)
        unit = p**k * (m + (m % p == 0)) * rng.choice((-1, 1))
        if name == "z3":
            x = unit
        else:
            lower = p ** (k + rng.randint(0, 5)) * rng.randrange(1 << 30)
            upper = Mat2(*map(Fraction, (1, unit, 0, 1)))
            x = pair.mul(upper, Mat2(*map(Fraction, (1, 0, lower, 1))))
        for cap in {0, max(k - 1, 0), k, k + 1, 400, 1000}:
            assert pair.level_of(x, cap) == min(k, cap), (k, cap)


def _composite_level(x, base, cap):
    """min(cap, min over primes p | base of v_p(x) // v_p(base)), cap for x = 0."""
    def v(n, p):
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        return e
    if x == 0:
        return cap
    primes = [p for p in (2, 3, 5) if base % p == 0]
    return min(cap, *(v(x, p) // v(base, p) for p in primes))


@given(base=st.sampled_from([4, 6, 10, 12]), twos=st.integers(0, 90), threes=st.integers(0, 40),
       fives=st.integers(0, 30), unit=st.integers(-(1 << 40), 1 << 40), cap=st.integers(0, 60))
@example(base=6, twos=0, threes=0, fives=0, unit=0, cap=7)
@example(base=6, twos=0, threes=0, fives=0, unit=0, cap=65536)
@example(base=10, twos=0, threes=0, fives=0, unit=0, cap=65536)
def test_composite_base_level_of_matches_the_valuation_formula(
        base, twos, threes, fives, unit, cap):
    """A composite base answers level_of through the chain walk, which must
    give the least over its primes of v_p(x) // v_p(base), capped."""
    x = 2**twos * 3**threes * 5**fives * unit
    assert resolve_instance(f"z{base}").level_of(x, cap) == _composite_level(x, base, cap)


def test_factorial_chain_walk_takes_few_steps(monkeypatch):
    """zfact's level_of divides x by at most _log_bound(level + 2) steps,
    none reaching past level 2·level + 2, and agrees with the default
    search: on x = w!·odd·2^t, on 2**14000 (level 2, as 3 does not divide
    it), on 30030**900 (level 16, as 17 does not) and on
    (2·3·…·61)**900 and 2**900·3·5·…·61, which a walk down from the
    bounds set by x's factors of 2 made slow."""
    zfact = FactorialChainPair()
    step, probes = zfact.step, []

    def counted(d, s):
        probes.append(d + s)
        return step(d, s)

    monkeypatch.setattr(zfact, "step", counted)
    rng = random.Random(5)
    cases = [(math.factorial(w) * (2 * rng.randrange(1 << 16) + 1) * 2**t, 300, w)
             for w in (20, 64, 100, 200, 250) for t in range(4)]
    cases += [(2**14000, 10**6, 2), (30030**900, 1000, 16), (_PRIMORIAL**900, 1000, 66),
              (2**899 * _PRIMORIAL, 1000, 5)]
    for x, cap, least in cases:
        probes.clear()
        level = zfact.level_of(x, cap)
        assert level >= least
        assert len(probes) <= _log_bound(level + 2), (least, level, probes)
        assert max(probes) <= 2 * level + 2, (least, level, probes)
        assert CommensuratedPair.level_of(zfact, x, cap) == level
    assert [zfact.level_of(x, cap) for x, cap, _ in cases[-4:]] == [2, 16, 66, 5]


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.name)
def test_engine_agrees_with_its_default_searches(pair):
    """Products, inverses, powers and valuations come out the same through a
    wrapper that declares no closed form but conj_depth, so that every
    depth is searched, and through one that also leaves conj_depth to the
    seam's derived default: the same rep and depth, or the same
    PrecisionExhausted.  s4_corrupt's conj_depth is wrong on purpose, so it
    runs through the first wrapper only."""
    seams = [_CountingPair(pair)]
    if not corrupt(pair):
        seams.append(_DerivedConjPair(pair))
    rng = random.Random(7)
    top = _max_cap(pair)
    elements = _elements(pair, rng, 25)
    for x, y in zip(elements, elements[1:]):
        if rng.randrange(2):  # y close to x, so that the valuation is deep
            y = pair.mul(x, pair.sample_level(rng.randint(0, top), rng))
        d1, d2, k = rng.randint(0, top), rng.randint(0, top), rng.randint(-5, 5)
        fast = pair.embed(x, d1), pair.embed(y, d2)
        for seam in seams:
            slow = seam.embed(x, d1), seam.embed(y, d2)
            for op in (lambda f, g: f * g, lambda f, g: g * f, lambda f, g: f.inverse(),
                       lambda f, g: f ** k):
                assert _outcome(lambda: op(*fast)) == _outcome(lambda: op(*slow)), (
                    type(seam).__name__, pair.format_element(x), pair.format_element(y),
                    d1, d2, k)
            assert fast[0].valuation(fast[1]) == slow[0].valuation(slow[1])


class _GeneratorlessPair(CommensuratedPair):
    """Arithmetic and in_level alone: no conj_depth and no level generators."""

    name = "bare"
    identity = 0

    def mul(self, x, y):
        return x + y

    def inv(self, x):
        return -x

    def in_level(self, x, depth):
        return x % 2**depth == 0


def test_a_pair_without_level_generators_is_refused_when_the_engine_first_asks():
    """conj_depth is not abstract, so such a pair is built, embeds and takes
    exact left factors; the first depth search refuses it in one line."""
    f = _GeneratorlessPair().embed(1, 2)
    assert (f.left_mul(3).rep, f.truncate(1).depth) == (4, 1)
    for op in (lambda: f * f, f.inverse, lambda: f.right_rep(1)):
        with pytest.raises(ValueError, match="^instance bare gives no level generators$"):
            op()


class _BrokenGeneratorsPair(IntegerChainPair):
    """z2 with the derived conj_depth, whose every level claims the generator 1."""

    constant_conj_cost = False
    conj_depth = CommensuratedPair.conj_depth

    def level_generators(self, depth):
        return [1]


def test_a_broken_unbounded_chain_is_refused_at_the_search_bound():
    """1 conjugates into no level below K, so the derived search walks to
    CONJ_SPAN levels past the asked depth and raises ContractViolation there."""
    pair = _BrokenGeneratorsPair(2)
    stop = 1 + core.CONJ_SPAN
    with time_limit(5):
        with pytest.raises(core.ContractViolation,
                           match=f"^z2: no level up to {stop} conjugates into 1$"):
            pair.embed(3, 1).inverse()


# --- exact left factors --------------------------------------------------------

def _lifted_product(g, f):
    """g·f as the evaluator once computed it: g embedded just deep enough
    that conjugating f's chain costs f no depth, then a searched product."""
    pair = f.pair
    return pair.embed(g, pair.conj_depth(f.rep, f.depth)) * f


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.name)
@given(
    seed=st.integers(min_value=0, max_value=1 << 32),
    depth=st.integers(min_value=0, max_value=64),
)
def test_left_mul_matches_the_lifted_product(pair, seed, depth):
    if pair.max_depth is not None:
        depth = min(depth, pair.max_depth)
    rng = random.Random(seed)
    g, f = pair.sample(rng), pair.embed(pair.sample(rng), depth)
    out, ref = f.left_mul(g), _lifted_product(g, f)
    assert (out.rep, out.depth) == (ref.rep, ref.depth) == (pair.mul(g, f.rep), depth)


@pytest.mark.parametrize("inner", PAIRS, ids=lambda p: p.name)
def test_left_mul_is_one_group_product_without_a_search(inner):
    pair = _CountingPair(inner)
    rng = random.Random(7)
    depth = inner.max_depth if inner.max_depth is not None else 4096
    for _ in range(20):
        f = pair.embed(inner.sample(rng), depth)
        pair.calls.clear()
        f.left_mul(inner.sample(rng))
        assert pair.calls == Counter(mul=1), inner.name


def test_evaluator_multiplies_exact_left_words_without_a_search():
    pair = _CountingPair(BS)
    right = evaluate("inv(embed(a*t^3))", pair, 8)
    alone = Counter(pair.calls)
    pair.calls.clear()
    f = evaluate("(a*t)*inv(embed(a*t^3))", pair, 8)
    assert pair.calls - alone == Counter(mul=2)  # a*t, then the left factor
    assert pair.calls["conj_depth"] == alone["conj_depth"]
    assert f.depth == right.depth
    assert f.rep == BS.mul(BS.mul(BS.generators["a"], BS.generators["t"]), right.rep)


def test_left_mul_validates_its_factor():
    f = BS.embed(BS.generators["t"], 3)
    with pytest.raises(core.ContractViolation, match=r"^bs12: not an affine element: \(Fraction\(1, 3\), 0\)$"):
        f.left_mul((Fraction(1, 3), 0))


def test_readme_python_api_example_prints_what_it_says():
    """The README's Python API block runs and prints its commented lines."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == ["5 (1; 2)", "3", "6 (1000000000000; 0)"]


class _Refused(Exception):
    pass


_BIG = "9" * 4301
# signs, single and double underscores, ASCII, Unicode and non-space
# separators, Unicode digits and digit runs past the conversion limit
_INT_PIECES = ["1", "0", "7", "_", "__", "+", "-", " ", "\t", "\n", "\x1c", "\x85", "\u3000",
               "\u0661", "\U0001d7ce", "x", "\u00e9", "\x00", _BIG]


@example(" +1_0\t")
@example("1__0")
@example("+-7")
@example(_BIG)
@example(_BIG + "x")
@example(f" -{_BIG}_1\n")
@example("1_" * 4400 + "1")
@example("1_" * 4400 + "x")
@given(st.one_of(st.text(), st.lists(st.sampled_from(_INT_PIECES), max_size=8).map("".join)))
def test_read_int_reads_what_int_reads(text):
    """read_int returns what int() returns; when int() refuses the text,
    read_int names the digit limit exactly when int() reads the text once
    the limit is lifted, and raises the caller's message and class
    otherwise.  (int()'s own refusal names the limit for a long run of
    digits with trailing junk too, so it cannot tell the two apart.)"""
    try:
        expected = int(text)
    except ValueError:
        expected = None
    if expected is not None:
        assert core.read_int(text, "seed", "bad", _Refused) == expected
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        int(text)
        well_formed = True
    except ValueError:
        well_formed = False
    finally:
        sys.set_int_max_str_digits(limit)
    with pytest.raises(_Refused) as err:
        core.read_int(text, "seed", "bad", _Refused)
    assert str(err.value) == (
        f"seed: integer exceeds the limit of {limit} digits" if well_formed else "bad"
    )
