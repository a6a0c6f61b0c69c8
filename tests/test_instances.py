"""Instance contracts: arithmetic exactness, chain membership, depth bounds."""

import contextlib
import gc
import math
import time
import random
import re
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, example, find, given, settings, strategies as st

from commensurate import (
    BS12Pair,
    CommensuratedPair,
    ContractViolation,
    DyadicAffine,
    FactorialChainPair,
    FiniteModelPair,
    IntegerChainPair,
    Mat2,
    ModelError,
    SL2Pair,
    finite_model_pair,
    load_model,
    parse_model,
)
from commensurate import finitemodel
from commensurate.cli import entry
from commensurate.core import MAX_EXACT_BITS, RATIONAL, p_adic_level, read_ratio
from commensurate.finitemodel import (
    MAX_MODEL_BYTES,
    MAX_ORDER,
    CosetTable,
    _closure,
    perm_compose,
    perm_from_cycles,
    perm_identity,
    perm_mul_table,
    perm_to_cycles,
)
from commensurate.oracle import compare_engine
from commensurate.registry import resolve_instance
from commensurate.integers import PRIME_LIMIT
from commensurate.sl2 import is_prime

from contract import (
    MODEL_PAIRS, MODELS, PAIRS, corrupt, generation, nesting, normality, pair_named,
)
from test_cli import _dihedral_rows, time_limit
from test_oracle import (
    coherent_chains,
    is_union_of_left_cosets,
    left_right_check,
    refinement_subgroup,
    right_cosets,
)

RNG_SEED = 20260814


# --- integers -----------------------------------------------------------------

def test_integers_in_level():
    z2 = IntegerChainPair(2)
    assert z2.in_level(8, 3)
    assert not z2.in_level(8, 4)
    zf = FactorialChainPair()
    assert not zf.in_level(5, 5)  # 5 is not a multiple of 5! = 120
    assert zf.in_level(240, 5)


def test_integers_moduli():
    # static on the class, so another d! chain can call them unbound
    assert [FactorialChainPair.modulus(d) for d in range(6)] == [1, 1, 2, 6, 24, 120]
    assert FactorialChainPair.step(3, 2) == math.factorial(5) // math.factorial(3)
    z3 = IntegerChainPair(3)
    assert z3.modulus(4) == 81


def test_integers_conj_depth_is_flat():
    z2 = IntegerChainPair(2)
    assert all(z2.conj_depth(g, d) == d for g in (-7, 0, 12345) for d in range(9))


def test_integers_rejects_bad_base():
    with pytest.raises(ValueError):
        IntegerChainPair(1)
    with pytest.raises(ValueError):
        IntegerChainPair("fib")


def test_integers_validate():
    with pytest.raises(ContractViolation):
        IntegerChainPair(2).validate("five")


def test_integers_read_literals_as_int_reads_them():
    z2 = IntegerChainPair(2)
    for text in (" -7 ", "007", "1_000"):
        assert z2.parse_literal(text) == int(text)
    with pytest.raises(ValueError, match=r"^z2: bad integer literal 'x'$"):
        z2.parse_literal("x")
    with pytest.raises(ValueError, match=r"^integer exceeds the limit of 4300 digits$"):
        z2.parse_literal("9" * 4301)
    with pytest.raises(ValueError, match=r"^zfact: bad integer literal 'x'$"):
        FactorialChainPair().parse_literal("x")


# --- BS(1,2) --------------------------------------------------------------------

def test_bs12_defining_relation():
    bs = BS12Pair()
    a, t = bs.generators["a"], bs.generators["t"]
    assert (a, t) == (DyadicAffine(Fraction(1), 0), DyadicAffine(Fraction(0), 1))
    assert [bs.format_element(g) for g in (a, t)] == ["(1; 0)", "(0; 1)"]
    tat = bs.mul(bs.mul(t, a), bs.inv(t))
    assert tat == bs.mul(a, a)


def test_bs12_in_level():
    bs = BS12Pair()
    assert bs.in_level(DyadicAffine(Fraction(4), 0), 2)
    assert not bs.in_level(DyadicAffine(Fraction(4), 1), 2)
    assert not bs.in_level(DyadicAffine(Fraction(1, 2), 0), 0)


def test_bs12_conj_depth_value():
    bs = BS12Pair()
    assert bs.conj_depth(bs.generators["t"], 3) == 4


def test_bs12_conj_depth_brute_force():
    # every translation by a multiple of 2^4 conjugates into level 3 from
    # both sides of t, exactly
    bs = BS12Pair()
    t = bs.generators["t"]
    for k in range(-40, 41):
        n = DyadicAffine(Fraction(16 * k), 0)
        assert bs.in_level(bs.mul(bs.mul(t, n), bs.inv(t)), 3)
        assert bs.in_level(bs.mul(bs.mul(bs.inv(t), n), t), 3)
    # and at level 3 itself, t-conjugation falls out of the level one way
    assert not bs.in_level(
        bs.mul(bs.mul(bs.inv(t), DyadicAffine(Fraction(8), 0)), t), 3
    )


def test_bs12_inverse_formula():
    bs = BS12Pair()
    g = DyadicAffine(Fraction(3), 2)
    assert bs.inv(g) == DyadicAffine(Fraction(-3, 4), -2)
    assert bs.mul(g, bs.inv(g)) == bs.identity


def test_bs12_format_parse(capsys):
    bs = BS12Pair()
    g = DyadicAffine(Fraction(-3, 4), -2)
    assert bs.format_element(g) == "(-3/4; -2)"
    assert bs.parse_literal("(-3/4; -2)") == g
    assert bs.parse_literal("(5; 0)") == DyadicAffine(Fraction(5), 0)
    with pytest.raises(ContractViolation):
        bs.parse_literal("(1/3; 0)")
    with pytest.raises(ValueError):
        bs.parse_literal("(1; )")
    # 2**(d - 5) divides 3/4 for every d <= 3, so each rep's shift is 0
    assert entry(["table", "bs12", "--depth", "3", "(3/4; -5)"]) == 0
    assert capsys.readouterr().out == "".join(
        f"level {d}: modulus/index {1 << d}, rep (0; -5)\n" for d in range(4)
    )


def _ref_bs12_level_rep(x, depth):
    """bs12's level rep by Fraction powers and floor division, as it was
    computed before the numerator was reduced on integers.  A negative
    shift n/2**k shorter than 2**e becomes (n + 2**(e + k))/2**k, whose
    numerator is e + k bits long, so the exact-size bound refuses it past
    MAX_EXACT_BITS bits."""
    e, shift = x.texp + depth, x.shift
    if abs(e) <= max(shift.numerator.bit_length(), shift.denominator.bit_length()):
        step = Fraction(2) ** e
        shift -= (shift // step) * step
    elif e < 0:
        shift = Fraction(0)
    elif shift < 0:
        if e + shift.denominator.bit_length() - 1 > MAX_EXACT_BITS:
            raise ValueError("the level rep exceeds the exact-size bound")
        shift += 1 << e
    return f"({shift}; {x.texp})"


def _rep_or_error(show, x, depth):
    try:
        return show(x, depth)
    except ValueError:
        return ValueError


_REP_TEXPS = (st.integers(-100, 100) | st.integers(17_100, 17_300)
              | st.integers(-17_300, -17_100) | st.sampled_from([10**20, -10**20]))


@settings(max_examples=500, deadline=None)
@given(k=st.integers(0, 80), texp=_REP_TEXPS, depth=st.integers(0, 70),
       near=st.sampled_from([None, 0, 1]), c=st.integers(-(1 << 90), 1 << 90))
@example(k=1, texp=10**20 - 1, depth=1, near=None, c=-1)  # README's (-1/2; 99999999999999999999)
@example(k=0, texp=17_200, depth=0, near=0, c=4)  # n = 1 - 2**m: m bits, reduced to 1
@example(k=0, texp=17_201, depth=0, near=1, c=3)  # n = -2**(m - 1): reduced, too long to print
@example(k=3, texp=17_190, depth=8, near=None, c=-5)
def test_bs12_level_rep_matches_the_fraction_reference(k, texp, depth, near, c):
    """The shift n/2**k, with n = c or, when near is set and m = texp + depth
    + k is small enough to build, n = -2**(m - near) + (c mod 7 - 3); the
    same string, or ValueError from both."""
    m = texp + depth + k - (near or 0)
    n = c if near is None or not 0 < m < 20_000 else (c % 7 - 3) - (1 << m)
    _assert_bs12_level_rep_matches(DyadicAffine(Fraction(n, 1 << k), texp), depth)


def _assert_bs12_level_rep_matches(x, depth):
    """bs12's level rep of x at depth and the Fraction reference's: the
    same string, or ValueError from both.  Returns it."""
    rep = _rep_or_error(BS12Pair().level_rep, x, depth)
    assert rep == _rep_or_error(_ref_bs12_level_rep, x, depth)
    return rep


@settings(max_examples=25, deadline=None)
@given(k=st.integers(0, 80), texp=st.integers(MAX_EXACT_BITS - 150, MAX_EXACT_BITS + 10),
       depth=st.integers(0, 70), c=st.integers(-(1 << 90), 1 << 90))
@example(k=0, texp=MAX_EXACT_BITS, depth=0, c=-1)  # 2**MAX_EXACT_BITS - 1 is built
@example(k=0, texp=MAX_EXACT_BITS, depth=1, c=-1)  # one bit more is refused
@example(k=5, texp=MAX_EXACT_BITS - 5, depth=0, c=-33)  # -33/32: k = 5 brings m to the bound
@example(k=5, texp=MAX_EXACT_BITS - 4, depth=0, c=-33)  # and one past it
def test_bs12_level_rep_is_bounded_with_the_limit_lifted(k, texp, depth, c):
    """With Python's int-to-str limit lifted, no display limit refuses a
    long rep, so only the exact-size bound does: a negative shift n/2**k
    in lowest terms is refused exactly when m = texp + depth + k passes
    MAX_EXACT_BITS, and every other rep is printed."""
    x = DyadicAffine(Fraction(c, 1 << k), texp)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rep = _assert_bs12_level_rep_matches(x, depth)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (rep is ValueError) == (c < 0 and x.texp + depth + x.k > MAX_EXACT_BITS)


def test_bs12_validate():
    """The constructor refuses a malformed or non-dyadic element, so no
    DyadicAffine reaches validate unless it is an element of BS(1,2);
    validate and embed refuse whatever is not a DyadicAffine."""
    bs = BS12Pair()
    for x in ((Fraction(1), 0), Mat2(Fraction(1), Fraction(0), Fraction(0), Fraction(1))):
        for call in (bs.validate, lambda x: bs.embed(x, 3)):
            with pytest.raises(ContractViolation) as err:
                call(x)
            assert str(err.value) == f"bs12: not an affine element: {x!r}"
    # each refusal prints the element as the NamedTuple DyadicAffine printed it;
    # bool is an int subclass, but no doubling exponent
    cases = [
        ((1, 0), "bs12: malformed element fields: DyadicAffine(shift=1, texp=0)"),
        ((0.5, -2), "bs12: malformed element fields: DyadicAffine(shift=0.5, texp=-2)"),
        ((Fraction(1), True), "bs12: malformed element fields: DyadicAffine(shift=Fraction(1, 1), texp=True)"),
        ((Fraction(1, 3), True),
         "bs12: malformed element fields: DyadicAffine(shift=Fraction(1, 3), texp=True)"),
        ((Fraction(1, 3), 0), "bs12: shift 1/3 is not a dyadic rational"),
        ((Fraction(-5, 12), 4), "bs12: shift -5/12 is not a dyadic rational"),
    ]
    for args, message in cases:
        with pytest.raises(ContractViolation) as err:
            DyadicAffine(*args)
        assert str(err.value) == message


def _ref_bs12_mul(x, y):
    return (x.shift + Fraction(2) ** x.texp * y.shift, x.texp + y.texp)


def _ref_bs12_inv(x):
    return (-x.shift / Fraction(2) ** x.texp, -x.texp)


def _ref_bs12_in_level(x, depth):
    return x.texp == 0 and x.shift.denominator == 1 and x.shift.numerator % 2**depth == 0


def _ref_bs12_level_of(x, cap):
    if not _ref_bs12_in_level(x, 0):
        return -1
    return next((d - 1 for d in range(1, cap + 1) if not _ref_bs12_in_level(x, d)), cap)


def _assert_bs12_canonical(x, expect):
    """x stores the shift of the (Fraction, int) pair ``expect`` as num/2**k
    in lowest terms, and has the Fraction face of that pair."""
    shift, texp = expect
    assert type(x) is DyadicAffine and type(x.num) is int and type(x.k) is int
    assert (x.num, 1 << x.k, x.texp) == (shift.numerator, shift.denominator, texp)
    assert x.k == 0 or x.num & 1
    assert tuple(x) == expect and type(x.shift) is Fraction


_BS12_DEPTHS = [*range(42), 90, 200]


@st.composite
def _bs12_elements(draw):
    """A shift n/2**k (reduced when built) with k <= 80, zero one time in
    four, and a doubling exponent of either sign."""
    n = draw(st.just(0) | st.integers(-(1 << 90), 1 << 90) | st.integers(-9, 9) | st.integers(1, 1 << 90))
    return DyadicAffine(Fraction(n, 1 << draw(st.integers(0, 80))), draw(st.integers(-100, 100)))


@settings(max_examples=300, deadline=None)
@given(x=_bs12_elements(), y=_bs12_elements(), w=st.integers(0, 120), c=st.integers(-(1 << 20), 1 << 20),
       scale=st.integers(0, 40))
def test_bs12_integer_arithmetic_matches_fraction_formulas(x, y, w, c, scale):
    """mul, inv and parse_literal give the reduced shift that Fraction
    arithmetic gives, and the chain tests, the level reps and the text read
    the same from the stored integers as from that shift; n is a member of
    level w, so the quotient x^-1·(x·n) is too."""
    bs = BS12Pair()
    n = DyadicAffine(Fraction(c << w), 0)
    for g in (x, y, n):
        _assert_bs12_canonical(g, tuple(g))
    xy, xn = bs.mul(x, y), bs.mul(x, n)
    _assert_bs12_canonical(xy, _ref_bs12_mul(x, y))
    _assert_bs12_canonical(bs.mul(y, x), _ref_bs12_mul(y, x))
    _assert_bs12_canonical(xn, _ref_bs12_mul(x, n))
    _assert_bs12_canonical(bs.inv(x), _ref_bs12_inv(x))
    _assert_bs12_canonical(bs.inv(y), _ref_bs12_inv(y))
    quotient = bs.mul(bs.inv(x), xn)
    _assert_bs12_canonical(quotient, tuple(n))
    for g in (x, y, xy, bs.inv(x), n, quotient):
        for d in _BS12_DEPTHS:
            assert bs.in_level(g, d) is _ref_bs12_in_level(g, d), (g, d)
            assert bs.level_of(g, d) == _ref_bs12_level_of(g, d), (g, d)
            assert bs.level_rep(g, d) == _ref_bs12_level_rep(g, d), (g, d)
        text = bs.format_element(g)
        assert text == f"({g.shift}; {g.texp})"
        _assert_bs12_canonical(bs.parse_literal(text), tuple(g))
        # an unreduced literal, over 3·2**scale times the denominator, reads as g
        q = 3 << scale
        unreduced = f"({g.shift.numerator * q}/{g.shift.denominator * q}; {g.texp})"
        _assert_bs12_canonical(bs.parse_literal(unreduced), tuple(g))


def test_bs12_keeps_the_tuple_face_that_the_deep_benchmark_uses():
    """bench/deep.py builds DyadicAffine(Fraction, int), multiplies the
    embeddings and compares .rep with a (Fraction, int) tuple; a tuple
    holding a DyadicAffine compares with one holding that pair.  The right
    factor costs 3 levels, so the product attains min(30, 20 - 3) = 17."""
    pair = BS12Pair()
    x, y = DyadicAffine(Fraction(3, 4), 2), DyadicAffine(Fraction(5, 8), -3)
    r = pair.embed(x, 20) * pair.embed(y, 30)
    expect = (Fraction(13, 4), -1)
    assert r.rep == expect and expect == r.rep and (r.rep, r.depth) == (expect, 17)
    assert r.rep != expect[:1] and r.rep != list(expect) and r.rep != (Fraction(13, 4), 1)
    assert r.rep != (Fraction(13, 4), -1, 0) and r.rep != DyadicAffine(Fraction(13, 8), -1)
    assert hash(r.rep) == hash(expect) and {r.rep: 1}[expect] == 1 and {expect: 1}[r.rep] == 1
    assert len(r.rep) == 2 and tuple(r.rep) == expect and [*r.rep] == list(expect)
    assert (r.rep.shift, r.rep.texp) == expect
    assert repr(r.rep) == "DyadicAffine(shift=Fraction(13, 4), texp=-1)"
    inverse = pair.embed(x, 9).inverse()
    assert (inverse.rep, inverse.depth) == ((Fraction(-3, 16), -2), 7)


def test_bs12_exact_bit_bound_holds_at_the_same_sizes():
    """A product or an inverse asks check_exact_bits for |texp| plus the bit
    length of the larger of the moved shift's numerator and denominator:
    exactly MAX_EXACT_BITS is built, one bit more is refused."""
    bs = BS12Pair()
    for n, k in ((1, 0), (-(1 << 99) - 1, 0), (7, 200), (1 << 300, 0)):
        shift = Fraction(n, 1 << k)
        size = max(shift.numerator.bit_length(), shift.denominator.bit_length())
        for texp in (MAX_EXACT_BITS - size, size - MAX_EXACT_BITS):
            left, moved = DyadicAffine(Fraction(3, 2), texp), DyadicAffine(shift, 5)
            _assert_bs12_canonical(bs.mul(left, moved), _ref_bs12_mul(left, moved))
            _assert_bs12_canonical(bs.inv(DyadicAffine(shift, texp)),
                                   _ref_bs12_inv(DyadicAffine(shift, texp)))
            past = texp + (1 if texp > 0 else -1)
            for call in (lambda: bs.mul(DyadicAffine(Fraction(3, 2), past), moved),
                         lambda: bs.inv(DyadicAffine(shift, past))):
                with pytest.raises(ValueError, match=f"^exact product exceeds the bound of {MAX_EXACT_BITS} bits$"):
                    call()
    # a zero shift is never moved, so no exponent is too large
    huge = DyadicAffine(Fraction(0), 10**30)
    assert bs.inv(huge) == (Fraction(0), -10**30)
    assert bs.mul(DyadicAffine(Fraction(1), 10**30), huge) == (Fraction(1), 2 * 10**30)


# --- SL2(Z[1/p]) -----------------------------------------------------------------

def test_sl2_validate_refuses_data_that_is_not_a_matrix():
    """A Mat2 holds four Fractions: other entries, int, bool and float
    among them, are refused when it is built, in one line; validate refuses
    whatever is not a Mat2."""
    sl2 = SL2Pair(3)
    for x in ((1, 0, 0, 1), [Fraction(1), Fraction(0), Fraction(0), Fraction(1)], None):
        with pytest.raises(ContractViolation, match=re.escape(f"sl2:3: not a matrix element: {x!r}")):
            sl2.validate(x)
    for entries, kind in (
        ((1, 0, 0, 1), "int"),
        ((*map(Fraction, (1, 0, 0)), True), "bool"),
        ((Fraction(1), 0.0, Fraction(0), Fraction(1)), "float"),
        ((Fraction(1), Fraction(0), "0", Fraction(1)), "str"),
    ):
        with pytest.raises(TypeError) as err:
            Mat2(*entries)
        assert str(err.value) == f"Mat2 entries must be Fractions, got {kind}"


def test_sl2_integral_conj_depth():
    sl2 = SL2Pair(2)
    u = sl2.generators["u"]
    assert all(sl2.conj_depth(u, d) == d for d in range(6))


def test_sl2_h_conj_depth():
    sl2 = SL2Pair(2)
    assert sl2.conj_depth(sl2.generators["h"], 1) == 3


def test_sl2_in_level():
    sl2 = SL2Pair(2)
    g = sl2.parse_literal("[[1,2],[0,1]]")
    assert sl2.in_level(g, 1)
    assert not sl2.in_level(g, 2)
    assert not sl2.in_level(sl2.generators["h"], 0)


def test_sl2_level_of_reads_the_diagonal():
    """a - 1 and d - 1, not b and c, set the level of [[4,9],[27,61]] at
    p = 3 and of -I at p = 2; level-d samples reach v_p(a - 1) = d."""
    for p, literal in ((3, "[[4,9],[27,61]]"), (2, "[[-1,0],[0,-1]]")):
        assert SL2Pair(p).level_of(SL2Pair(p).parse_literal(literal), 10) == 1
    rng = random.Random(RNG_SEED)
    for p in (2, 3, 5):
        for d in (1, 2, 3):
            samples = [SL2Pair(p).sample_level(d, rng) for _ in range(200)]
            assert any(p_adic_level(x.na - 1, p, 10) == d for x in samples), (p, d)


def test_sl2_det_preserved():
    sl2 = SL2Pair(3)
    rng = random.Random(RNG_SEED)
    det = lambda m: m.a * m.d - m.b * m.c
    for _ in range(100):
        x, y = sl2.sample(rng), sl2.sample(rng)
        assert det(sl2.mul(x, y)) == 1
        assert det(sl2.inv(x)) == 1
        assert sl2.mul(x, sl2.inv(x)) == sl2.identity


def test_sl2_format_parse():
    sl2 = SL2Pair(2)
    h = sl2.generators["h"]
    assert sl2.format_element(h) == "[[2,0],[0,1/2]]"
    assert sl2.parse_literal("[[2,0],[0,1/2]]") == h
    with pytest.raises(ContractViolation):
        sl2.parse_literal("[[1,2],[3,4]]")  # determinant is -2
    with pytest.raises(ContractViolation):
        sl2.parse_literal("[[1/3,0],[0,3]]")  # denominator not a 2-power
    with pytest.raises(ValueError):
        sl2.parse_literal("[[1,2],[3]]")


def test_sl2_printing_memo_gives_a_fresh_pairs_text(monkeypatch):
    """The printer keeps the last element it printed, shared by every pair:
    interleaved prints of distinct elements on sl2:2 and sl2:3, equal
    elements built apart, repeats and level reps, integral or not, each
    give what the uncached printer gives."""
    from commensurate import sl2

    def uncached(call):
        with monkeypatch.context() as m:
            m.setattr(sl2, "_spelled", sl2._spelled.__wrapped__)
            return call()

    rng = random.Random(RNG_SEED)
    pool = []
    for p in (2, 3):
        pair = SL2Pair(p)
        h = pair.generators["h"]
        elements = [pair.identity, *pair.generators.values(), pair.inv(h), *pair.level_generators(1)]
        elements += [pair.sample(rng) for _ in range(12)]
        # equal values, distinct objects
        elements += [Mat2(*x) for x in elements[:8]]
        elements += [pair.parse_literal(pair.format_element(x)) for x in elements[:8]]
        pool += [(pair, x) for x in elements]
    for _ in range(800):
        (pair, x), d = rng.choice(pool), rng.randrange(4)
        if rng.random() < 0.5:
            assert pair.format_element(x) == uncached(lambda: pair.format_element(x))
        else:
            assert pair.level_rep(x, d) == uncached(lambda: pair.level_rep(x, d))


class _CountingLayout(str):
    """sl2's print layout, counting its format calls."""

    calls = 0

    def format(self, *args):
        type(self).calls += 1
        return super().format(*args)


def test_sl2_eval_prints_a_non_integral_element_once(monkeypatch, capsys):
    """At attained depth D, each of the D + 1 level reps of a non-integral
    element and the final rep are the whole element: one print, not D + 2."""
    from commensurate import sl2

    sl2._spelled.cache_clear()  # an earlier print of the same element would count 0
    monkeypatch.setattr(sl2, "_LAYOUT", _CountingLayout(sl2._LAYOUT))
    monkeypatch.setattr(_CountingLayout, "calls", 0)
    assert entry(["eval", "sl2:3", "--depth", "13", "h*u*l^-2*h*[[1,3],[0,1]]"]) == 0
    out = capsys.readouterr().out
    assert out.count(", rep [[") == 14 and "attained depth: 13" in out
    assert _CountingLayout.calls == 1


_DIGITS = st.text(st.characters(whitelist_categories=("Nd",)), min_size=1, max_size=6)
_SPACES = st.text(st.sampled_from([chr(c) for c in range(0x3001) if chr(c).isspace()]), max_size=3)


def _outcome(read):
    """read()'s value, or one outcome for Fraction's ZeroDivisionError and
    read_ratio's zero-denominator ValueError."""
    try:
        return read()
    except ZeroDivisionError:
        return "zero denominator"
    except ValueError as e:
        assert "zero denominator in" in str(e), e
        return "zero denominator"


@given(sign=st.sampled_from(["", "-"]), num=_DIGITS, den=st.none() | _DIGITS,
       before=_SPACES, after=_SPACES)
def test_sl2_entry_reader_equals_fraction_of_the_bare_text(sign, num, den, before, after):
    text = sign + num + ("" if den is None else f"{before}/{after}{den}")
    m = re.fullmatch(RATIONAL, text)
    assert m is not None
    bare = re.sub(r"\s", "", text)
    assert _outcome(lambda: Fraction(*read_ratio(*m.groups(), "sl2", text))) == _outcome(
        lambda: Fraction(bare))


def test_sl2_rejects_composite_p():
    with pytest.raises(ValueError):
        SL2Pair(6)
    # the smallest composite that passes Miller-Rabin for every base in
    # 2..41: from it on the test is no longer exact, so such p are refused
    with pytest.raises(ValueError, match="below"):
        SL2Pair(3317044064679887385961981)


def test_is_prime_is_exact():
    def by_trial_division(n):
        return n >= 2 and all(n % k for k in range(2, int(n**0.5) + 1))

    assert [n for n in range(2, 5000) if is_prime(n) != by_trial_division(n)] == []
    # strong pseudoprimes to every prime base up to 31 and 37 respectively
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**61 - 1)


def test_is_prime_is_false_outside_its_domain():
    """is_prime answers False below 2 and from PRIME_LIMIT on, where its
    test is no longer exact, and ends in bounded time on each."""
    with time_limit(5):
        assert [is_prime(n) for n in (-7, 0, 1, PRIME_LIMIT, 2**89 - 1)] == [False] * 5


def test_sl2_valuation_of_denominators():
    sl2 = SL2Pair(2)
    g = Mat2(Fraction(1, 4), Fraction(0), Fraction(0), Fraction(4))
    assert sl2.denominator_exponent(g) == 2
    assert sl2.conj_depth(g, 2) == 6


# The Fraction formulas that the pair's integer arithmetic replaced, kept as
# the reference for its products, chain tests, level reps, denominator
# exponents and contract messages.

def _ref_den_exponent(pair, q):
    den, e = q.denominator, 0
    while den % pair.p == 0:
        den //= pair.p
        e += 1
    if den != 1:
        raise ContractViolation(f"{pair.name}: entry {q} has a denominator outside p-powers")
    return e


def _ref_denominator_exponent(pair, g):
    return max(_ref_den_exponent(pair, q) for q in g)


def _ref_conj_depth(pair, g, depth):
    return depth + 2 * _ref_denominator_exponent(pair, g)


def _ref_mul(x, y):
    return Mat2(
        x.a * y.a + x.b * y.c,
        x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c,
        x.c * y.b + x.d * y.d,
    )


def _ref_in_level(pair, x, depth):
    if any(q.denominator != 1 for q in x):
        return False
    q = pair.p ** depth
    return (x.a - 1) % q == 0 and x.b % q == 0 and x.c % q == 0 and (x.d - 1) % q == 0


def _ref_level_rep(pair, x, depth):
    if depth == 0 or any(q.denominator != 1 for q in x):
        return pair.format_element(x)
    q = pair.p ** depth
    return f"[[{x.a % q},{x.b % q}],[{x.c % q},{x.d % q}]]"


def _ref_validate(pair, x):
    for q in x:
        _ref_den_exponent(pair, q)
    if x.a * x.d - x.b * x.c != 1:
        raise ContractViolation(
            f"{pair.name}: determinant of {pair.format_element(x)} is not 1"
        )


def _violation(compute):
    """compute()'s value, or the message of the ContractViolation it raised."""
    try:
        return "ok", compute()
    except ContractViolation as err:
        return "violation", str(err)


def _assert_same_matrix(got, expect):
    assert type(got) is Mat2 and all(type(q) is Fraction for q in got)
    assert tuple(got) == tuple(expect)


_each_sl2 = pytest.mark.parametrize(
    "pair", [pair for pair in PAIRS if isinstance(pair, SL2Pair)], ids=lambda pair: str(pair.p)
)
_SL2_DEPTHS = [*range(36), 400, 800]


@st.composite
def _sl2_elements(draw, pair):
    """A word in u, l and h^±v (v <= 20), with b and c optionally scaled by
    p^±400 (a conjugation by h^±200, so the determinant stays 1)."""
    p = pair.p
    zero = Fraction(0)
    steps = {
        "u": pair.generators["u"], "U": pair.inv(pair.generators["u"]),
        "l": pair.generators["l"], "L": pair.inv(pair.generators["l"]),
    }
    letters = st.one_of(st.sampled_from(sorted(steps)), st.integers(-20, 20))
    x = pair.identity
    for letter in draw(st.lists(letters, max_size=10)):
        if isinstance(letter, int):
            step = Mat2(Fraction(p) ** letter, zero, zero, Fraction(p) ** -letter)
        else:
            step = steps[letter]
        x = _ref_mul(x, step)
    scale = Fraction(p) ** (400 * draw(st.sampled_from((-1, 0, 1))))
    return Mat2(x.a, x.b * scale, x.c / scale, x.d)


@_each_sl2
@given(data=st.data())
def test_sl2_integer_arithmetic_matches_fraction_formulas(pair, data):
    x = data.draw(_sl2_elements(pair))
    y = data.draw(_sl2_elements(pair))
    n = pair.sample_level(data.draw(st.integers(0, 30)), data.draw(st.randoms()))
    _assert_same_matrix(pair.mul(x, y), _ref_mul(x, y))
    _assert_same_matrix(pair.mul(x, n), _ref_mul(x, n))
    quotient = _ref_mul(pair.inv(x), _ref_mul(x, n))
    _assert_same_matrix(pair.mul(pair.inv(x), pair.mul(x, n)), quotient)
    for g in (x, y, _ref_mul(x, y), n, quotient):
        for d in _SL2_DEPTHS:
            assert pair.in_level(g, d) is _ref_in_level(pair, g, d), (g, d)
            assert pair.level_rep(g, d) == _ref_level_rep(pair, g, d), (g, d)
        assert pair.denominator_exponent(g) == _ref_denominator_exponent(pair, g)
        assert pair.conj_depth(g, 3) == _ref_conj_depth(pair, g, 3)
        assert _violation(lambda: pair.validate(g)) == ("ok", None)
    # b + 1 leaves the determinant at 1 - c: fails unless c is 0
    bumped = Mat2(x.a, x.b + 1, x.c, x.d)
    assert _violation(lambda: pair.validate(bumped)) == _violation(
        lambda: _ref_validate(pair, bumped)
    )


@_each_sl2
def test_sl2_integer_arithmetic_when_one_entry_has_the_largest_denominator(pair):
    """Each entry in turn carries the strictly largest denominator: h^±v and
    the unipotents with entry p^-v, with their products."""
    p = pair.p
    one, zero = Fraction(1), Fraction(0)
    elements = []
    for v in (1, 20):
        s = Fraction(p) ** v
        elements += [
            Mat2(s, zero, zero, 1 / s),
            Mat2(1 / s, zero, zero, s),
            Mat2(one, 1 / s, zero, one),
            Mat2(one, zero, 1 / s, one),
        ]
    elements += [_ref_mul(x, y) for x in elements for y in elements[:4]]
    for x in elements:
        assert pair.denominator_exponent(x) == _ref_denominator_exponent(pair, x)
        for y in elements:
            _assert_same_matrix(pair.mul(x, y), _ref_mul(x, y))


@_each_sl2
@given(data=st.data())
def test_sl2_foreign_denominators_raise_the_same_message(pair, data):
    """An entry plus 1/(r·p^k), for a prime r != p, keeps r in its
    denominator; the first such entry is the one reported."""
    p = pair.p
    x = data.draw(_sl2_elements(pair))
    foreign = st.sampled_from([r for r in (2, 3, 5, 7) if r != p])
    entries = list(x)
    for i in data.draw(st.sets(st.integers(0, 3), min_size=1)):
        r, k = data.draw(foreign), data.draw(st.integers(0, 40))
        entries[i] += Fraction(1, r * p**k)
    bad = Mat2(*entries)
    expect = _violation(lambda: _ref_validate(pair, bad))
    assert expect[0] == "violation"
    assert _violation(lambda: pair.validate(bad)) == expect
    assert _violation(lambda: pair.conj_depth(bad, 5)) == _violation(
        lambda: _ref_conj_depth(pair, bad, 5)
    )
    assert _violation(lambda: pair.denominator_exponent(bad)) == expect


@_each_sl2
@given(data=st.data())
def test_sl2_format_element_spells_the_fraction_face(pair, data):
    """format_element spells each entry from the stored integers exactly as
    str(Fraction) spells the entry of the Fraction face, zero and negative
    entries included."""
    p = pair.p
    x = data.draw(_sl2_elements(pair))
    q = Fraction
    foreign = Mat2(q(-1, p**3), q(0), q(-5), q(7, 3 * p))  # formatted, not validated
    for g in (x, pair.inv(x), pair.identity, *pair.generators.values(), foreign):
        assert pair.format_element(g) == "[[{},{}],[{},{}]]".format(*g)


@_each_sl2
def test_sl2_reader_matches_the_reference_exponent(pair):
    """The stored integer form of a matrix: numerators over den = p**e, with
    e the reference exponent, on sampled matrices and on their conjugates
    and products by h^v with v >= 1000."""
    p = pair.p
    rng = random.Random(RNG_SEED)
    zero = Fraction(0)
    elements = [pair.sample(rng) for _ in range(40)]
    for v in (1000, 1001, 1777):
        h = Mat2(Fraction(p) ** v, zero, zero, Fraction(p) ** -v)
        for x in elements[:10]:
            elements += [_ref_mul(x, h), _ref_mul(h, x), _ref_mul(_ref_mul(h, x), pair.inv(h))]
    for x in elements:
        a, b, c, d, den = x.na, x.nb, x.nc, x.nd, x.den
        e = _ref_denominator_exponent(pair, x)
        assert den == p**e
        assert Mat2(Fraction(a, den), Fraction(b, den), Fraction(c, den), Fraction(d, den)) == x
        assert pair.denominator_exponent(x) == e and pair.conj_depth(x, 0) == 2 * e
        assert _violation(lambda: pair.validate(x)) == ("ok", None)
    assert max(pair.denominator_exponent(x) for x in elements) >= 1000


def _assert_canonical(pair, x):
    """x in lowest terms together, over den = p**v(x), with the Fraction face
    of the 4-tuple of its entries."""
    fields = (x.na, x.nb, x.nc, x.nd, x.den)
    assert all(type(n) is int for n in fields) and x.den > 0
    assert math.gcd(*fields) == 1
    assert x.den == pair.p ** _ref_denominator_exponent(pair, x)
    again = Mat2(*x)
    assert (again.na, again.nb, again.nc, again.nd, again.den) == fields
    assert x == tuple(x) and tuple(x) == x and hash(x) == hash(tuple(x))
    assert len(x) == 4 and tuple(x) == (x.a, x.b, x.c, x.d)


@_each_sl2
@given(data=st.data())
def test_sl2_stored_form_is_canonical(pair, data):
    """mul, inv and parse_literal give the least common denominator, which
    is p**v(g), over numerators with no common factor with it; Mat2 of the
    entries rebuilds the same fields, and == and hash are the 4-tuple's."""
    p = pair.p
    x = data.draw(_sl2_elements(pair))
    y = data.draw(_sl2_elements(pair))
    n = pair.sample_level(data.draw(st.integers(0, 30)), data.draw(st.randoms()))
    _assert_canonical(pair, x)
    for g in (pair.mul(x, y), pair.mul(x, pair.inv(x)), pair.mul(pair.inv(y), n), pair.inv(x)):
        _assert_canonical(pair, g)
        parsed = pair.parse_literal(pair.format_element(g))
        _assert_canonical(pair, parsed)
        assert parsed == g and hash(parsed) == hash(g)
    # an unreduced literal reads as its reduced matrix
    k = p ** data.draw(st.integers(0, 5))
    unreduced = "[[{},{}],[{},{}]]".format(*(f"{q.numerator * k}/{q.denominator * k}" for q in x))
    assert pair.parse_literal(unreduced) == x
    _assert_canonical(pair, pair.parse_literal(unreduced))


def test_sl2_keeps_the_tuple_face_that_the_deep_benchmark_uses():
    """bench/deep.py builds Mat2(*fractions), multiplies the embeddings and
    compares .rep with a 4-tuple of Fractions; a tuple holding a Mat2
    compares with one holding that 4-tuple.  h costs 2·4 levels, so the
    product attains min(30, 20 - 8) = 12."""
    pair = SL2Pair(3)
    one, zero = Fraction(1), Fraction(0)
    u = Mat2(one, Fraction(2 * 3**5), zero, one)
    h = Mat2(Fraction(3) ** 4, zero, zero, Fraction(3) ** -4)
    r = pair.embed(u, 20) * pair.embed(h, 30)
    expect = (Fraction(3) ** 4, Fraction(2 * 3**5, 3**4), zero, Fraction(1, 3**4))
    assert r.rep == expect and expect == r.rep and (r.rep, r.depth) == (expect, 12)
    assert r.rep != expect[:3] and r.rep != list(expect) and r.rep != (*expect[:3], one)
    assert hash(r.rep) == hash(expect) and {r.rep: 1}[expect] == 1
    assert repr(r.rep) == "Mat2(a={!r}, b={!r}, c={!r}, d={!r})".format(*expect)


def test_sl2_contract_violations_keep_their_text():
    """validate and embed name the first entry whose denominator is not a
    3-power, whether or not the largest denominator is one, and print a
    matrix whose determinant is not 1."""
    sl2 = SL2Pair(3)
    q = Fraction
    cases = [
        (Mat2(q(1, 2), q(0), q(0), q(2)), "sl2:3: entry 1/2 has a denominator outside p-powers"),
        (Mat2(q(1, 27), q(1, 2), q(0), q(27)),
         "sl2:3: entry 1/2 has a denominator outside p-powers"),
        (Mat2(q(1), q(1, 9), q(1, 6), q(1, 5)),
         "sl2:3: entry 1/6 has a denominator outside p-powers"),
        (Mat2(q(2, 3**1000 * 7), q(0), q(0), q(1)),
         f"sl2:3: entry {q(2, 3**1000 * 7)} has a denominator outside p-powers"),
        (Mat2(q(1), q(1), q(0), q(2)), "sl2:3: determinant of [[1,1],[0,2]] is not 1"),
        (Mat2(q(1, 9), q(0), q(0), q(1)), "sl2:3: determinant of [[1/9,0],[0,1]] is not 1"),
    ]
    for x, message in cases:
        for call in (lambda: sl2.validate(x), lambda: sl2.embed(x, 4)):
            with pytest.raises(ContractViolation) as err:
                call()
            assert str(err.value) == message
        if "denominator" in message:
            assert _violation(lambda: sl2.conj_depth(x, 0)) == ("violation", message)


# --- the chain contract ---------------------------------------------------------

@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.name)
def test_chain_nesting_and_normality(pair):
    """contract.nesting and contract.normality find no failure."""
    assert [*nesting(pair), *normality(pair)] == []


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.name)
def test_level_generators_generate_their_level(pair):
    """contract.generation finds no failure."""
    assert list(generation(pair)) == []


def test_the_generation_check_finds_a_missing_generator():
    """Without -I, u^2 and l^2 reach half of sl2:2's level 1 modulo levels 2 and 3."""
    class _NoMinusOne(SL2Pair):
        def level_generators(self, depth):
            gens = super().level_generators(depth)
            return gens[:2] if depth == 1 else gens

    assert list(generation(_NoMinusOne(2))) == [
        ((1, 2), "the generators of N_1 reach 4 of 8 cosets of N_2"),
        ((1, 3), "the generators of N_1 reach 32 of 64 cosets of N_3"),
    ]


@pytest.mark.parametrize("pair", [pair for pair in PAIRS if not corrupt(pair)],
                         ids=lambda p: p.name)
def test_conj_depth_uniform_two_sided(pair):
    """The one contract check that does not read the level generators."""
    rng = random.Random(RNG_SEED)
    top = 3 if pair.max_depth is None else min(3, pair.max_depth)
    for _ in range(150):
        g = pair.sample(rng)
        d = rng.randrange(0, top + 1)
        j = pair.conj_depth(g, d)
        assert j >= d
        x = pair.mul(g, pair.sample_level(d, rng))  # any member of the coset
        n = pair.sample_level(j, rng)
        assert pair.in_level(pair.mul(pair.mul(x, n), pair.inv(x)), d)
        assert pair.in_level(pair.mul(pair.mul(pair.inv(x), n), x), d)


# the engine's depth searches rely on two things: conj_depth is monotone
# in d, so the first level that qualifies walking down is the maximum, and
# conj_depth(g, d) >= d, so no level above the budget can qualify and each
# search may start at min(cap, budget)

@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.name)
def test_conj_depth_monotone(pair):
    """On 150 samples at d <= 64; on a model, at every element and level."""
    if isinstance(pair, FiniteModelPair):
        elements, depths = range(pair.model.n), range(pair.max_depth + 1)
    else:
        rng = random.Random(RNG_SEED)
        elements, depths = [pair.sample(rng) for _ in range(150)], range(65)
    for g in elements:
        js = [pair.conj_depth(g, d) for d in depths]
        assert all(j >= d for d, j in enumerate(js)), g
        assert js == sorted(js), g


@pytest.mark.parametrize("pair", [pair for pair in PAIRS if not corrupt(pair)],
                         ids=lambda p: p.name)
def test_closed_form_conj_depth_is_least(pair):
    """j = conj_depth(g, d) equals the seam's default derived from the level
    generators, is sound (N_j lies in both g⁻¹·N_d·g and g·N_d·g⁻¹) and is
    not needlessly lossy (when j > d, N_(j-1) does not), for each named
    generator g at every d < 7 and for 300 sampled (g, d); on a model, at
    every (g, d)."""
    rng = random.Random(RNG_SEED)
    if isinstance(pair, FiniteModelPair):
        cases = [(g, d) for g in range(pair.model.n) for d in range(pair.max_depth + 1)]
    else:
        cases = [(g, d) for g in pair.generators.values() for d in range(7)]
        cases += [(pair.sample(rng), rng.randrange(7)) for _ in range(300)]

    def conjugates_in(g, s, d):
        g_inv = pair.inv(g)
        return all(
            pair.in_level(pair.mul(pair.mul(x, s), y), d) for x, y in ((g, g_inv), (g_inv, g))
        )

    costly = 0
    for g, d in cases:
        j = pair.conj_depth(g, d)
        assert j == CommensuratedPair.conj_depth(pair, g, d), (g, d)
        members = [*pair.level_generators(j), pair.sample_level(j, rng)]
        assert all(conjugates_in(g, s, d) for s in members), (g, d, j)
        if j > d:
            costly += 1
            assert not all(conjugates_in(g, s, d) for s in pair.level_generators(j - 1)), (g, d, j)
    # only the abelian instances conjugate at no cost
    assert (costly == 0) == (isinstance(pair, IntegerChainPair) or pair.name == "z8")


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.name)
def test_group_law_exactness(pair):
    # the identity is a constant of the group: one object across reads and pairs
    assert pair.identity is pair.identity
    if not isinstance(pair, FiniteModelPair):  # a model resolves by its path, not its name
        assert pair.identity is resolve_instance(pair.name).identity
    rng = random.Random(RNG_SEED)
    for _ in range(100):
        x, y, z = (pair.sample(rng) for _ in range(3))
        assert pair.mul(pair.mul(x, y), z) == pair.mul(x, pair.mul(y, z))
        assert pair.mul(x, pair.inv(x)) == pair.identity
        assert pair.mul(pair.identity, x) == x == pair.mul(x, pair.identity)


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.name)
def test_seam_calls_leave_a_pair_unchanged(pair):
    """Pairs are immutable after construction: printing, reading, level
    reps, products, inverses, valuations and comparisons of sampled
    elements add, drop or rebind no attribute of a new pair."""
    # a newly built pair like the listed one, which earlier tests have used
    pair = FiniteModelPair(pair.model) if isinstance(pair, FiniteModelPair) else resolve_instance(pair.name)
    built = dict(vars(pair))
    rng = random.Random(RNG_SEED)
    depth = 8 if pair.max_depth is None else pair.max_depth
    for _ in range(5):
        x, y = pair.sample(rng), pair.sample(rng)
        assert pair.parse_literal(pair.format_element(x)) == x
        pair.level_rep(x, rng.randrange(depth + 1))
        f, g = pair.embed(x, depth), pair.embed(y, depth)
        h = f * g.inverse()
        h.valuation(f)
        f.eq_at_depth(g, depth)
    assert vars(pair) == built


def _refusal(lookup, depth) -> str:
    with pytest.raises(ValueError) as err:
        lookup(depth)
    return str(err.value)


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.name)
def test_level_lookups_refuse_a_depth_that_check_depth_refuses(pair):
    """level_generators, level_index and level_rep refuse a negative depth,
    a non-int and a depth past the bottom level with check_depth's one line."""
    lookups = [pair.level_generators, pair.level_index,
               lambda d: pair.level_rep(pair.identity, d)]
    bad = [-1, 2.0, True] + ([] if pair.max_depth is None else [pair.max_depth + 1])
    for depth in bad:
        expect = _refusal(pair.check_depth, depth)
        assert [_refusal(lookup, depth) for lookup in lookups] == [expect] * len(lookups), depth


# --- permutation plumbing ---------------------------------------------------------

_PERM_PAIRS = [pair for pair in MODEL_PAIRS if pair.model.kind == "perm"]


def test_perm_parse_and_format():
    p = perm_from_cycles("(1 2)(3 4)", 4)
    assert p == (1, 0, 3, 2)
    assert perm_to_cycles(p) == "(1 2)(3 4)"
    assert perm_from_cycles("()", 4) == (0, 1, 2, 3)
    assert perm_to_cycles((0, 1, 2, 3)) == "()"


def test_perm_conjugation_convention():
    # (1 4) (1 2 3) (1 4) = (4 2 3), composing right to left
    s = perm_from_cycles("(1 4)", 4)
    r = perm_from_cycles("(1 2 3)", 4)
    conj = perm_compose(perm_compose(s, r), s)
    assert perm_to_cycles(conj) == "(2 3 4)"


def test_perm_parse_errors(capsys):
    with pytest.raises(ModelError):
        perm_from_cycles("(1 5)", 4)
    with pytest.raises(ModelError):
        perm_from_cycles("(1 1)", 4)
    with pytest.raises(ModelError):
        perm_from_cycles("1 2", 4)
    # the same errors in an expression name the literal and its position
    for src, message in [
        ("(1 9)", "point out of range 1..4 in '(1 9)' at position 0"),
        ("(1 1)", "repeated point in cycle in '(1 1)' at position 0"),
        ("(1 2 3)*(1 5)", "point out of range 1..4 in '(1 5)' at position 8"),
    ]:
        assert entry(["eval", f"model:{MODELS / 's4.model'}", "--depth", "1", src]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


# --- finite models -----------------------------------------------------------------

S4_TEXT = """
name: s4
kind: perm
points: 4
gens: (1 2), (1 2 3 4)
K: (1 2), (1 2 3)
level: (1 2 3)
level: -
"""


def test_s4_model_shape(s4_pair):
    model = s4_pair.model
    assert model.n == 24
    assert [len(s) for s in model.levels] == [6, 3, 1]
    assert s4_pair.max_depth == 2
    assert s4_pair.level_index(1) == 2 and s4_pair.level_index(2) == 6


def test_s4_mul_is_exact_at_bottom(s4_pair):
    f = s4_pair.embed(s4_pair.parse_literal("(1 2)"), 2) * s4_pair.embed(
        s4_pair.parse_literal("(3 4)"), 2
    )
    assert s4_pair.format_element(f.rep) == "(1 2)(3 4)"
    assert f.depth == 2


def test_s4_eq_and_valuation_examples(s4_pair):
    f = s4_pair.embed(s4_pair.parse_literal("(1 2 3)"), 2)
    g = s4_pair.embed(s4_pair.parse_literal("(1 3 2)"), 2)
    assert f.eq_at_depth(g, 1)  # both in the rotation subgroup
    assert not f.eq_at_depth(g, 2)
    one = s4_pair.embed(s4_pair.identity, 2)
    assert f.valuation(one).depth == 1


def test_model_rejects_non_normal_bottom():
    bad = S4_TEXT.replace("level: -\n", "")
    with pytest.raises(ModelError, match="not normal in the whole group"):
        parse_model(bad)


def test_model_rejects_non_descending_chain():
    bad = S4_TEXT.replace("level: -", "level: (1 2 3)")
    with pytest.raises(ModelError, match="descend"):
        parse_model(bad)


def test_model_rejects_level_outside_k():
    bad = S4_TEXT.replace("level: (1 2 3)", "level: (1 4)")
    with pytest.raises(ModelError, match="not inside"):
        parse_model(bad)


def test_model_rejects_level_not_normal_in_k(capsys, tmp_path):
    # (1 3)·<(1 2)>·(1 3) = <(2 3)> inside K = Sym{1, 2, 3}
    bad = S4_TEXT.replace("level: (1 2 3)", "level: (1 2)")
    message = "chain level 1 is not normal in K"
    with pytest.raises(ModelError, match=f"^{message}$"):
        parse_model(bad)
    path = tmp_path / "bad.model"
    path.write_text(bad)
    assert entry(["oracle", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("pair", MODEL_PAIRS, ids=lambda p: p.name)
def test_loading_conjugates_nothing(pair, monkeypatch):
    """The coset tables decide normality; loading makes no conj call."""
    calls = []
    conj = finitemodel.FiniteModel.conj

    def counted(self, g, x):
        calls.append(None)
        return conj(self, g, x)

    monkeypatch.setattr(finitemodel.FiniteModel, "conj", counted)
    model = load_model(MODELS / f"{pair.name}.model")
    assert calls == []
    model.conj(model.e, model.e)
    assert len(calls) == 1


def test_model_rejects_garbage():
    with pytest.raises(ModelError):
        parse_model("kind: perm\npoints: 4\n")
    with pytest.raises(ModelError):
        parse_model("just some text")
    with pytest.raises(ModelError):
        parse_model(S4_TEXT.replace("kind: perm", "kind: magma"))


def test_model_refuses_unknown_keys():
    # a misspelt key would otherwise drop a chain level or a flag unseen
    with pytest.raises(ModelError, match=r"^line 7: unknown key 'levl'$"):
        parse_model(S4_TEXT.replace("level: (1 2 3)", "levl: (1 2 3)"))
    with pytest.raises(ModelError, match=r"^line 9: unknown key 'corrupt_conj_dpth'$"):
        parse_model(S4_TEXT + "corrupt_conj_dpth: true\n")


def test_model_refuses_keys_that_mean_nothing(capsys, tmp_path):
    # a typo in the corruption flag would load a sound model, and a key of
    # the other kind would be read by nobody
    cases = [
        (S4_TEXT + "corrupt_conj_depth: yes\n",
         "line 9: corrupt_conj_depth must be true or false, got 'yes'"),
        (S4_TEXT + "corrupt_conj_depth:\n",
         "line 9: corrupt_conj_depth must be true or false, got ''"),
        (S4_TEXT + "order: 24\nrow: 0\n", "line 9: key 'order' does not apply to perm models"),
        (S4_TEXT + "row: 0\norder: 24\n", "line 9: key 'row' does not apply to perm models"),
        (f"kind: table\n{_Z4_ROWS}K: #2\npoints: 4\n",
         "line 7: key 'points' does not apply to table models"),
        (f"gens: (1 2)\nkind: table\n{_Z4_ROWS}K: #2\n",
         "line 1: key 'gens' does not apply to table models"),
    ]
    for number, (text, message) in enumerate(cases):
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            parse_model(text)
        path = tmp_path / f"case{number}.model"
        path.write_text(text)
        assert entry(["oracle", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_model_reads_both_spellings_of_the_corruption_flag():
    for value, corrupt in (("true", True), ("True", True), ("false", False), ("FALSE", False)):
        assert parse_model(S4_TEXT + f"corrupt_conj_depth: {value}\n").corrupt is corrupt


@pytest.mark.parametrize("pair", _PERM_PAIRS, ids=lambda p: p.name)
def test_perm_names_parse_back_to_their_index(pair):
    for i, text in enumerate(pair.model.names):
        assert pair.parse_literal(text) == i


def test_table_model(z8_pair):
    model = z8_pair.model
    assert model.n == 8 and model.e == 0
    assert [len(s) for s in model.levels] == [8, 4, 2, 1]
    assert z8_pair.format_element(3) == "#3"
    assert z8_pair.parse_literal("#5") == 5
    with pytest.raises(ContractViolation):
        z8_pair.parse_literal("#9")


def test_table_model_rejects_bad_rows():
    with pytest.raises(ModelError):
        parse_model("kind: table\nrow: 0 1\nrow: 1 2\nK: #1\n")
    with pytest.raises(ModelError, match="order"):
        parse_model(
            "kind: table\norder: 3\nrow: 0 1\nrow: 1 0\nK: #1\n"
        )
    with pytest.raises(ModelError, match="'order' must be an integer, got 'x'"):
        parse_model("kind: table\norder: x\nrow: 0 1\nrow: 1 0\nK: #1\n")


def test_model_cycles_may_be_spaced_as_in_expressions():
    text = "kind: perm\npoints: 4\ngens: (1 2), (1 2 3 4)\nK: {}\nlevel: -\n"
    spaced = parse_model(text.format("(1 2) (3 4)"))
    packed = parse_model(text.format("(1 2)(3 4)"))
    assert spaced.levels == packed.levels and len(spaced.levels[0]) == 2


_Z4_ROWS = "".join(f"row: {' '.join(str((i + j) % 4) for j in range(4))}\n" for i in range(4))


def test_table_model_reads_element_literals():
    assert parse_model(f"kind: table\n{_Z4_ROWS}K: #2\nlevel: -\n").levels[0] == {0, 2}
    for item in ("#4", "2", "#", "# 2", "#2x"):
        with pytest.raises(ModelError, match=re.escape(f"bad table element {item!r}")):
            parse_model(f"kind: table\n{_Z4_ROWS}K: {item}\n")


def _reference_mul_table(elements):
    """The reference table: one composition per pair of elements."""
    index = {p: i for i, p in enumerate(elements)}
    return [tuple(index[perm_compose(p, q)] for q in elements) for p in elements]


@st.composite
def _perm_gens(draw):
    points = draw(st.integers(1, 7))
    perms = st.permutations(range(points)).map(tuple)
    return points, draw(st.lists(perms, min_size=0, max_size=3))


@given(_perm_gens())
def test_generator_column_table_matches_the_pairwise_table(case):
    points, gens = case
    try:
        elements = sorted(_closure(perm_identity(points), gens, perm_compose, MAX_ORDER))
    except ModelError:
        return  # more than MAX_ORDER elements: no model can hold the group
    index = {p: i for i, p in enumerate(elements)}
    assert perm_mul_table(elements, index, gens) == _reference_mul_table(elements)


@pytest.mark.parametrize("pair", _PERM_PAIRS, ids=lambda p: p.name)
def test_shipped_model_tables_match_the_pairwise_table(pair):
    model = pair.model
    elements = sorted(model.perm_index, key=model.perm_index.get)
    assert list(model.mul_table) == _reference_mul_table(elements)


def test_loading_composes_once_per_element_and_generator(monkeypatch):
    """Loading S5 composes once per cycle literal, n·|gens| times for the
    closure and n·|gens| times more for the table; the rest are lookups."""
    calls = []

    def counted(p, q):
        calls.append(None)
        return perm_compose(p, q)

    text = (MODELS / "s5.model").read_text()
    cycles = sum(
        line.count("(") for line in text.splitlines()
        if line.startswith(("gens:", "K:", "level:"))
    )
    monkeypatch.setattr(finitemodel, "perm_compose", counted)
    n, gens = parse_model(text).n, 2
    # a pairwise table would add n² = 14 400 compositions
    assert len(calls) == cycles + 2 * n * gens == 490


def test_non_associative_table_rejected():
    # closed, has identity and inverses, but (1*1)*2 != 1*(1*2)
    rows = "\n".join(["row: 0 1 2", "row: 1 0 0", "row: 2 0 1"])
    with pytest.raises(ModelError, match="associative"):
        parse_model(f"kind: table\n{rows}\nK: #0\n")


def _pairwise_group_refusal(rows):
    """The group check that a table model's load made before Light's test:
    the identity, then inverses, then associativity on every pair of rows.
    The end of its refusal message, or None for a group."""
    n, table = len(rows), [tuple(row) for row in rows]
    plain = tuple(range(n))
    ident = next((e for e in range(n)
                  if table[e] == plain and all(row[e] == j for j, row in enumerate(table))), None)
    if ident is None:
        return "has no identity"
    if not all(any(table[i][j] == ident == table[j][i] for j in range(n)) for i in range(n)):
        return "has no inverse"
    for ra in table:
        for b, rb in enumerate(table):
            if table[ra[b]] != tuple(map(ra.__getitem__, rb)):
                return "is not associative"
    return None


@st.composite
def _closed_tables(draw):
    """A closed table of order at most 12 with an identity row and column:
    cyclic, dihedral, or random with inverses paired off at random; then
    its direct product with a cyclic group, maybe relabelled at random,
    with a few entries overwritten.  The cyclic factor's elements pass
    Light's test whatever the other factor is, so unless relabelled the
    least generator passes and a later one must fail."""
    m = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(["cyclic", "dihedral", "random"]))
    if shape == "cyclic":
        rows = [[(i + j) % m for j in range(m)] for i in range(m)]
    elif shape == "dihedral" and m % 2 == 0 and m >= 4:
        rows = _dihedral_rows(m)
    else:
        rows = draw(st.lists(st.lists(st.integers(0, m - 1), min_size=m, max_size=m),
                             min_size=m, max_size=m))
        rows[0] = list(range(m))
        for i in range(m):
            rows[i][0] = i
        mates = draw(st.permutations(range(1, m)))
        paired = 2 * draw(st.integers(0, len(mates) // 2))
        pairs = [*zip(mates[:paired:2], mates[1:paired:2]), *zip(mates[paired:], mates[paired:])]
        for x, y in pairs:
            rows[x][y] = rows[y][x] = 0
    a = draw(st.integers(1, 12 // m))
    n = a * m  # (k, x) in Z_a × rows is x·a + k, so #1 generates Z_a
    rows = [[rows[x][y] * a + (k + l) % a for y in range(m) for l in range(a)]
            for x in range(m) for k in range(a)]
    sigma = draw(st.sampled_from([range(n)]) | st.permutations(range(n)))
    relabelled = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            relabelled[sigma[i]][sigma[j]] = sigma[v]
    entries = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j, v in draw(st.lists(entries, max_size=3)):
        relabelled[i][j] = v
    return relabelled


@settings(max_examples=300)
@given(_closed_tables())
def test_light_test_refuses_exactly_what_the_pairwise_check_refused(rows):
    """Loading accepts a table, or refuses it as not associative, exactly
    when the all-pairs row check would; K is the whole table, so no chain
    check can refuse it instead."""
    whole = ", ".join(f"#{i}" for i in range(len(rows)))
    text = "kind: table\n" + "".join(f"row: {' '.join(map(str, row))}\n" for row in rows)
    try:
        parse_model(f"{text}K: {whole}\n")
        refusal = None
    except ModelError as err:
        refusal = str(err)
    want = _pairwise_group_refusal(rows)
    assert (refusal is None) == (want is None), (refusal, want)
    if want is not None:
        assert refusal.endswith(want), (refusal, want)


def test_light_test_refuses_the_order_200_left_zero_table_in_time():
    """x·x = e and x·y = x for distinct non-identity x, y: an identity and
    inverses, but needs a generator per element, so the log2(n) bound or
    the first row check refuses it at once."""
    n = MAX_ORDER
    rows = [[j if i == 0 else 0 if i == j else i for j in range(n)] for i in range(n)]
    assert _pairwise_group_refusal(rows) == "is not associative"
    text = "kind: table\n" + "".join(f"row: {' '.join(map(str, row))}\n" for row in rows)
    refusal = "^multiplication table is not associative$"
    with time_limit(2), pytest.raises(ModelError, match=refusal):
        parse_model(f"{text}K: #0\n")


def _s5_with_trivial_levels(count=None):
    """``models/s5.model`` with ``count`` more ``level: -`` lines, or as
    many as fit in MAX_MODEL_BYTES; the first of them is chain level 4."""
    text = (MODELS / "s5.model").read_text()
    line = "level: -\n"
    if count is None:
        count = (MAX_MODEL_BYTES - len(text.encode())) // len(line)
    return text + line * count


def test_a_model_is_refused_at_its_first_bad_level_in_time(tmp_path, capsys):
    """A 1 MiB file of about 116 000 trivial levels below s5 is refused at
    the first of them, before any later level is closed off or tabulated:
    a strictly descending chain in a group of order 120 has at most 7 levels."""
    text = _s5_with_trivial_levels()
    assert MAX_MODEL_BYTES - 9 < len(text.encode()) <= MAX_MODEL_BYTES
    message = "chain level 4 does not descend strictly"
    path = tmp_path / "long.model"
    path.write_text(text)
    with time_limit(2):
        with pytest.raises(ModelError, match=f"^{message}$"):
            parse_model(text)
        assert entry(["oracle", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _counted_tables(monkeypatch) -> list:
    """The sizes passed to ``CosetTable.build`` from now on, one per table."""
    calls, build = [], CosetTable.build

    def counted(n, coset):
        calls.append(n)
        return build(n, coset)

    monkeypatch.setattr(CosetTable, "build", staticmethod(counted))
    return calls


def test_a_refused_chain_tabulates_only_the_levels_above_its_fault(monkeypatch):
    calls = _counted_tables(monkeypatch)
    with pytest.raises(ModelError, match="^chain level 4 does not descend strictly$"):
        parse_model(_s5_with_trivial_levels(1000))
    assert calls == [120] * 4


@pytest.mark.parametrize("pair", MODEL_PAIRS, ids=lambda p: p.name)
def test_a_model_builds_one_coset_table_per_level(pair, monkeypatch):
    calls = _counted_tables(monkeypatch)
    model = load_model(MODELS / f"{pair.name}.model")
    assert calls == [model.n] * len(model.levels)


@pytest.mark.parametrize("name, lines, repeats", [
    ("z8", ("K: #1", "level: #2"), 30_000),
    ("s5", ("gens: (1 2)",), 60_000),
], ids=["z8", "s5"])
def test_a_repeated_generator_is_kept_once(name, lines, repeats):
    """Generator lines that repeat one element tens of thousands of times
    (240-420 KB) load in time: each generator is kept once, so nesting is
    one set membership test per generator, normality at most n² table
    lookups per level, and a permutation model's table one composition
    per element and generator."""
    text = (MODELS / f"{name}.model").read_text()
    for line in lines:
        text = text.replace(line, line + f", {line.partition(': ')[2]}" * repeats)
    with time_limit(5):
        model = parse_model(text)
    shipped = pair_named(name).model
    assert (model.level_gens, model.mul_table) == (shipped.level_gens, shipped.mul_table)


def test_finite_conj_depth_abelian(z8_pair):
    for g in range(8):
        for d in range(4):
            assert z8_pair.conj_depth(g, d) == d


def test_finite_conj_depth_nontrivial(s4_pair):
    # an element moving point 4 cannot stabilize the rotation level:
    # only the trivial bottom level survives conjugation uniformly
    g = s4_pair.parse_literal("(1 4)")
    assert s4_pair.conj_depth(g, 1) == 2


def _whole_coset_conj_depth(pair, g, depth):
    """Least j with N_j inside x·N_depth·x^-1 and x^-1·N_depth·x for every
    x in g·N_depth, scanning the whole coset."""
    model = pair.model
    level_d = model.levels[depth]
    coset = model.lefts[depth].of(g)
    for j in range(depth, pair.max_depth + 1):
        if all(
            model.conj(x, n) in level_d and model.conj(model.inv(x), n) in level_d
            for x in coset
            for n in model.levels[j]
        ):
            return j
    return None


@pytest.mark.parametrize("pair", [pair for pair in MODEL_PAIRS if not corrupt(pair)],
                         ids=lambda p: p.name)
def test_finite_conj_depth_rep_decides_the_coset(pair):
    for g in range(pair.model.n):
        for d in range(pair.max_depth + 1):
            assert pair.conj_depth(g, d) == _whole_coset_conj_depth(pair, g, d)


def test_finite_pair_validate(s4_pair):
    with pytest.raises(ContractViolation):
        s4_pair.validate(99)
    # bools are ints to Python, but not elements
    for flag in (True, False):
        with pytest.raises(ContractViolation):
            s4_pair.embed(flag, 1)
    # a cyclic group on 4 points: transpositions are well-formed literals
    # but lie outside the group
    c4 = finite_model_pair(
        parse_model("kind: perm\npoints: 4\ngens: (1 2 3 4)\nK: (1 2 3 4)\n")
    )
    with pytest.raises(ContractViolation):
        c4.parse_literal("(1 2)")


@pytest.mark.parametrize("pair", MODEL_PAIRS, ids=lambda p: p.name)
def test_coset_tables_are_the_literal_cosets(pair):
    model = pair.model
    everything = list(range(model.n))
    for d, level in enumerate(model.levels):
        table = model.lefts[d]
        assert [table.of(x) for x in everything] == [model.left_coset(x, level) for x in everything]
        # the ids partition the group, each coset numbered by its least member
        assert sorted(x for coset in table.sets for x in coset) == everything
        for i, coset in enumerate(table.sets):
            assert {x for x in everything if table.ids[x] == i} == coset
            assert table.reps[i] == min(coset)
        assert list(table.reps) == sorted(table.reps)


def _normal_closure(model, members, within):
    """The subgroup generated by the conjugates of ``members`` by ``within``."""
    return frozenset(
        _closure(model.e, {model.conj(k, x) for k in within for x in members}, model.mul)
    )


def _renamed(p, sigma):
    """The permutation ``p`` with each point i renamed ``sigma[i]``."""
    out = [None] * len(p)
    for i, image in enumerate(p):
        out[sigma[i]] = sigma[image]
    return tuple(out)


# perm groups drawn on renamed points: the points, the generators, and
# what K is generated from (None: the whole group)
_NAMED_GROUPS = {
    "s4": (4, ("(1 2)", "(1 2 3 4)"), None),
    # (1 3 5)(2 4 6) cycles the three transpositions of Z2^3
    "z2^3:z3": (6, ("(1 2)", "(1 3 5)(2 4 6)"), ("(1 2)", "(3 4)", "(5 6)")),
}


@st.composite
def _sound_chains(draw):
    """A sound chain: ``(head, group, chain)``, with ``head`` the model
    text up to K, ``group`` the model with K the whole group and
    ``chain`` the level sets, K first.

    The group is a perm group of order at most 48 on at most 6 points,
    S4 or Z2^3 ⋊ Z3 with their points renamed at random, or a cyclic or
    dihedral table of order at most 16.  K is generated by up to three
    members of the group, or in Z2^3 ⋊ Z3 of the three transpositions,
    so that an element outside K can move one level of K to another.
    The bottom is the core of K in the group met with a normal closure
    in the group, or the trivial group, so it is normal in the group;
    each level above it is the normal closure in K of one or two members
    of the level above, times the bottom, so it is normal in K."""
    shape = draw(st.sampled_from(["perm", *_NAMED_GROUPS, "cyclic", "dihedral"]))
    pool = None
    if shape == "cyclic":
        n = draw(st.integers(1, 16))
        rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    elif shape == "dihedral":
        # r^a s^e is a + m·e, and (r^a s^e)(r^b s^f) = r^(a ± b) s^(e + f)
        m = draw(st.integers(2, 8))
        rows = [
            [(a + (-1) ** e * b) % m + m * ((e + f) % 2) for f in (0, 1) for b in range(m)]
            for e in (0, 1) for a in range(m)
        ]
    elif shape == "perm":
        points = draw(st.integers(1, 6))
        perms = draw(st.lists(st.permutations(range(points)), min_size=1, max_size=3))
    else:
        points, gen_cycles, pool_cycles = _NAMED_GROUPS[shape]
        sigma = draw(st.permutations(range(points)))
        perms = [_renamed(perm_from_cycles(c, points), sigma) for c in gen_cycles]
        if pool_cycles:
            pool = [_renamed(perm_from_cycles(c, points), sigma) for c in pool_cycles]
    if shape in ("cyclic", "dihedral"):
        gens = ", ".join(f"#{i}" for i in range(len(rows)))
        head = "kind: table\n" + "".join(f"row: {' '.join(map(str, row))}\n" for row in rows)
    else:
        gens = ", ".join(perm_to_cycles(tuple(p)) for p in perms)
        head = f"kind: perm\npoints: {points}\ngens: {gens}\n"
    # with K the whole group every chain requirement holds
    try:
        group = parse_model(f"{head}K: {gens}\n")
    except ModelError:  # more than MAX_ORDER elements
        group = None
    assume(group is not None and group.n <= 48)
    G = range(group.n)

    def members(subgroup, least, most):
        # the identity only where there is nothing else
        others = sorted(subgroup - {group.e}) or [group.e]
        return draw(st.lists(st.sampled_from(others), min_size=least, max_size=most))

    pool = set(G) if pool is None else {group.perm_index[p] for p in pool}
    K = frozenset(_closure(group.e, members(pool, 1, 3), group.mul))
    core = frozenset.intersection(*(frozenset(group.conj(g, k) for k in K) for g in G))
    bottom = core & _normal_closure(group, members(K, 0, 1), G)
    if bottom == K:  # the trivial group instead, so that the chain descends
        bottom = frozenset({group.e})
    chain = [K]
    for _ in range(draw(st.integers(0, 4))):
        above = chain[-1]
        level = frozenset(
            _closure(group.e, _normal_closure(group, members(above, 1, 2), K) | bottom, group.mul)
        )
        if bottom < level < above:
            chain.append(level)
    if bottom != chain[-1]:
        chain.append(bottom)
    return head, group, chain


def _model_text(head, group, chain):
    lines = [", ".join(group.names[x] for x in sorted(level)) for level in chain]
    return head + f"K: {lines[0]}\n" + "".join(f"level: {line}\n" for line in lines[1:])


_chain_model_text = _sound_chains().map(lambda case: _model_text(*case))


# Z2^3 ⋊ Z3, with g = (1 3 5)(2 4 6) cycling the three transpositions:
# g·N_2·g^-1 = <(3 4)> lies in N_1 but g^-1·N_2·g = <(5 6)> does not, so
# only a two-sided test gives conj_depth(g, 1) = 3
_ONE_SIDE_IS_NOT_ENOUGH = """kind: perm
points: 6
gens: (1 2), (1 3 5)(2 4 6)
K: (1 2), (3 4), (5 6)
level: (1 2), (3 4)
level: (1 2)
level: -
"""


@settings(max_examples=200, deadline=None)
@given(_chain_model_text)
@example(_ONE_SIDE_IS_NOT_ENOUGH)
def test_conj_depth_table_matches_the_whole_coset_scan_on_fuzzed_chains(text):
    pair = finite_model_pair(parse_model(text))
    corrupt = finite_model_pair(parse_model(text + "corrupt_conj_depth: true\n"))
    for d in range(pair.max_depth + 1):
        for g in range(pair.model.n):
            assert pair.conj_depth(g, d) == _whole_coset_conj_depth(pair, g, d)
            assert corrupt.conj_depth(g, d) == d


def _one_side_is_not_enough(text) -> bool:
    """Whether some g·N_j·g^-1 lies in N_d for a j that g^-1 refutes."""
    pair = finite_model_pair(parse_model(text))
    model, top = pair.model, pair.max_depth
    rights = [right_cosets(model, d) for d in range(top + 1)]
    return any(
        pair.conj_depths[d][g] != next(
            (j for j in range(d, top) if model.lefts[j].of(g) <= rights[d].of(g)), top
        )
        for d in range(top + 1)
        for g in range(model.n)
    )


def test_fuzzed_chains_reach_one_where_one_side_is_not_enough():
    assert _one_side_is_not_enough(_ONE_SIDE_IS_NOT_ENOUGH)
    found = find(
        _chain_model_text, _one_side_is_not_enough,
        settings=settings(max_examples=5000, database=None, phases=[Phase.generate]),
    )
    assert _one_side_is_not_enough(found)


def _reference_chain_error(group, chain):
    """The first message of the conjugation-based chain check that loading
    used before the coset tables decided normality, or None: ``chain``
    is the level sets of a model of ``group``, K first."""
    for d, level in enumerate(chain):
        label = "K" if d == 0 else f"chain level {d}"
        if d > 0:
            if not level <= chain[d - 1]:
                return f"{label} is not inside level {d - 1}"
            if level == chain[d - 1]:
                return f"{label} does not descend strictly"
        for k in chain[0]:
            if any(group.conj(k, x) not in level for x in level):
                return f"{label} is not normal in K"
    bottom = chain[-1]
    for g in range(group.n):
        if any(group.conj(g, x) not in bottom for x in bottom):
            names = ", ".join(sorted(group.names[i] for i in bottom))
            return f"chain bottom {{{names}}} is not normal in the whole group"
    return None


@st.composite
def _chains_sound_or_not(draw):
    """A sound chain, or one with one or two faults drawn in at different
    positions: a level from anywhere in the group (it may not nest), a
    repeated level (it does not descend), a level from one member of the
    level above (it may not be normal in K), or, deepest only, the chain
    cut short above its bottom (the new bottom may not be normal in the
    group).  Faults go in deepest first, so each is placed against the
    sound level above it."""
    head, group, chain = draw(_sound_chains())
    positions = draw(st.lists(st.integers(1, len(chain)), max_size=2, unique=True))

    def generated(subgroup, most):
        gens = draw(st.lists(st.sampled_from(sorted(subgroup)), min_size=1, max_size=most))
        return frozenset(_closure(group.e, gens, group.mul))

    for i in sorted(positions, reverse=True):
        faults = ["nest", "descend", "normal"] + ["bottom"] * (i == max(positions))
        fault = draw(st.sampled_from(faults))
        if fault == "nest":
            chain.insert(i, generated(range(group.n), 2))
        elif fault == "descend":
            chain.insert(i, chain[i - 1])
        elif fault == "normal":
            chain.insert(i, generated(chain[i - 1], 1))
        else:
            del chain[i:]  # a level normal in K need not be normal in the group
    return _model_text(head, group, chain), group, chain


@settings(max_examples=300, deadline=None)
@given(_chains_sound_or_not())
def test_chain_check_matches_the_conjugation_reference(case):
    """Loading reports the reference's first fault: the shallowest faulty
    level, and within a level nesting, then descent, then normality in K,
    with the bottom's normality in the group last."""
    text, group, chain = case
    expected = _reference_chain_error(group, chain)
    if expected is None:
        assert parse_model(text).levels == tuple(chain)
    else:
        with pytest.raises(ModelError, match=f"^{re.escape(expected)}$"):
            parse_model(text)


@settings(max_examples=200, deadline=None)
@given(_chain_model_text)
def test_the_coset_identities_hold_on_fuzzed_chains(text):
    """The paper's three coset identities hold on every chain that loads,
    since loading checks the levels nest and are normal in K and the
    bottom is normal in the whole group: each gN ∩ Nh is a union of left
    cosets of M ≤ N, every coherent left chain is coherent on the right,
    and for the bottom N and M = N ∩ g₂·N·g₂⁻¹ the set M·g₂·N is g₂·N."""
    model = parse_model(text)
    for d, N in enumerate(model.levels):
        left, right = model.lefts[d], right_cosets(model, d)
        for g, gN in zip(left.reps, left.sets):
            M = refinement_subgroup(model, d, g)
            assert M <= N
            for Nh in right.sets:  # an empty gN ∩ Nh passes trivially
                assert is_union_of_left_cosets(model, gN & Nh, M), (d, g, min(Nh))
    for chain in coherent_chains(model):
        assert left_right_check(model, chain), sorted(chain[-1])
    N = model.bottom
    for g2, g2N in zip(model.lefts[-1].reps, model.lefts[-1].sets):
        M = N & {model.conj(g2, x) for x in N}
        assert {model.mul(m, y) for m in M for y in g2N} == g2N, g2


@contextlib.contextmanager
def _cyclic_gc_disabled():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _attributes(obj) -> dict:
    return {name: id(value) for name, value in vars(obj).items()}


def test_dropped_model_pair_is_freed():
    """A used pair and its model die on ``del`` by reference counting alone,
    and using them assigns no attribute."""
    with _cyclic_gc_disabled():
        model = load_model(MODELS / "s5.model")
        pair = finite_model_pair(model)
        before = _attributes(model), _attributes(pair)
        g = pair.parse_literal("(1 2 3 4 5)")
        rng = random.Random(RNG_SEED)
        for d in range(pair.max_depth + 1):
            pair.conj_depth(g, d)
            pair.level_rep(g, d)
            pair.sample_level(d, rng)
            pair.embed(g, pair.max_depth) * pair.embed(pair.inv(g), d)
        assert (_attributes(model), _attributes(pair)) == before
        refs = weakref.ref(model), weakref.ref(pair)
        del model, pair
        assert [ref() for ref in refs] == [None, None]


def test_dropped_model_with_coset_tables_is_freed():
    """A model and pair that the oracle suite has run on die on ``del``
    by reference counting alone."""
    with _cyclic_gc_disabled():
        pair = finite_model_pair(load_model(MODELS / "s5.model"))
        assert compare_engine(pair, 20, random.Random(RNG_SEED)).ok
        refs = weakref.ref(pair.model), weakref.ref(pair)
        del pair
        assert [ref() for ref in refs] == [None, None]


# --- discrete targets -------------------------------------------------------------

# per instance with targets: target_names, and a resolvable name for each
# with its kill level; any other instance has none
_TARGETS = {
    "z2": (("mod:<m>",), {"mod:2": 1}),
    "z3": (("mod:<m>",), {"mod:3": 1}),
    "z4": (("mod:<m>",), {"mod:2": 1, "mod:4": 1}),
    "z6": (("mod:<m>",), {"mod:3": 1, "mod:36": 2}),
    "z618970019642690137449562111": (("mod:<m>",), {"mod:618970019642690137449562111": 1}),
    "zfact": (("mod:<m>",), {"mod:2": 2, "mod:12": 4}),
    "bs12": (("texp",), {"texp": 0}),
}


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: p.name)
def test_target_names_resolve(pair):
    names, kill_levels = _TARGETS.get(pair.name, ((), {}))
    assert pair.target_names == names
    for name, kill_level in kill_levels.items():
        target = pair.target(name)
        assert (target.name, target.kill_level) == (name, kill_level)
        f = pair.embed(pair.identity, kill_level)
        assert target.evaluate(f) == target.phi(pair.identity) == 0
    with pytest.raises(ValueError) as err:
        pair.target("nosuch")
    assert err.value.args[0] == f"unknown target 'nosuch' for instance {pair.name}"


def test_finite_models_have_no_targets(model_pairs):
    for pair in model_pairs:
        assert pair.target_names == ()
        with pytest.raises(ValueError, match="unknown target 'texp'"):
            pair.target("texp")


def test_zfact_kill_level_matches_factorial_walk():
    """Legendre's closed form against the least d with m | d!, for m <= 2000."""
    zfact = FactorialChainPair()
    factorials = [1]
    while len(factorials) <= 2000:
        factorials.append(factorials[-1] * len(factorials))
    for m in range(1, 2001):
        walk = next(d for d, f in enumerate(factorials) if f % m == 0)
        assert zfact.target(f"mod:{m}").kill_level == walk, m


def test_base_kill_level_matches_power_walk():
    """The gcd walk against the least d with m | base**d, for m <= 2000,
    including the moduli with a prime that the base lacks."""
    for base in (2, 3, 6, 10, 12):
        pair = IntegerChainPair(base)
        powers = [base**d for d in range(12)]  # any reachable m <= 2000 divides base**11
        for m in range(1, 2001):
            walk = next((d for d, q in enumerate(powers) if q % m == 0), None)
            if walk is None:
                message = (
                    f"target 'mod:{m}' is unavailable on {pair.name}: no chain "
                    f"level has a modulus divisible by {m}"
                )
                with pytest.raises(ValueError, match=re.escape(message)):
                    pair.target(f"mod:{m}")
            else:
                assert pair.target(f"mod:{m}").kill_level == walk, (base, m)


def test_zfact_kill_level_is_fast_for_large_primes():
    zfact = FactorialChainPair()
    start = time.perf_counter()
    assert zfact.target("mod:1000000000000000003").kill_level == 10**18 + 3
    assert zfact.target(f"mod:{2**5 * 3**4 * 10007}").kill_level == 10007
    assert time.perf_counter() - start < 0.1


def test_zfact_refuses_unfactorable_modulus():
    # 65537 and 65539 are primes above the trial-division bound
    with pytest.raises(ValueError, match="cannot factor the modulus 4295229443"):
        FactorialChainPair().target(f"mod:{65537 * 65539}")
