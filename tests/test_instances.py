"""Instance contracts: arithmetic exactness, chain membership, depth bounds."""

import contextlib
import gc
import math
import pathlib
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
    ContractViolation,
    DyadicAffine,
    FactorialChainPair,
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
from commensurate.core import RATIONAL, read_ratio
from commensurate.finitemodel import (
    MAX_ORDER,
    _closure,
    perm_compose,
    perm_from_cycles,
    perm_identity,
    perm_mul_table,
    perm_to_cycles,
)
from commensurate.oracle import compare_engine
from commensurate.registry import builtin_instances, resolve_instance
from commensurate.integers import PRIME_LIMIT
from commensurate.sl2 import is_prime

from test_cli import time_limit
from test_oracle import (
    coherent_chains,
    is_union_of_left_cosets,
    left_right_check,
    refinement_subgroup,
)

RNG_SEED = 20260814
MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


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
    computed before the numerator was reduced on integers."""
    e, shift = x.texp + depth, x.shift
    if abs(e) <= max(shift.numerator.bit_length(), shift.denominator.bit_length()):
        step = Fraction(2) ** e
        shift -= (shift // step) * step
    elif e < 0:
        shift = Fraction(0)
    elif shift < 0:
        if e > 4 * sys.get_int_max_str_digits() > 0:
            raise ValueError("the level rep exceeds the display limit")
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
@example(k=0, texp=17_200, depth=0, near=0, c=4)  # n = 1 - 2**m at the display bound
@example(k=0, texp=17_201, depth=0, near=1, c=3)  # n = -2**(m - 1): m bits, reduced
@example(k=3, texp=17_190, depth=8, near=None, c=-5)
def test_bs12_level_rep_matches_the_fraction_reference(k, texp, depth, near, c):
    """The shift n/2**k, with n = c or, when near is set and m = texp + depth
    + k is small enough to build, n = -2**(m - near) + (c mod 7 - 3); the
    same string, or ValueError from both."""
    m = texp + depth + k - (near or 0)
    n = c if near is None or not 0 < m < 20_000 else (c % 7 - 3) - (1 << m)
    x = DyadicAffine(Fraction(n, 1 << k), texp)
    bs = BS12Pair()
    assert _rep_or_error(bs.level_rep, x, depth) == _rep_or_error(_ref_bs12_level_rep, x, depth)


def test_bs12_validate():
    bs = BS12Pair()
    with pytest.raises(ContractViolation):
        bs.validate(DyadicAffine(Fraction(1, 3), 0))
    with pytest.raises(ContractViolation):
        bs.validate((Fraction(1), 0))
    # bool is an int subclass, but no doubling exponent
    flag = DyadicAffine(Fraction(1), True)
    with pytest.raises(ContractViolation, match=re.escape(f"bs12: malformed element fields: {flag!r}")):
        bs.embed(flag, 3)


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


def test_sl2_h_conj_sampling():
    # conjugating level-3 members by diag(2, 1/2) lands inside level 1
    sl2 = SL2Pair(2)
    h = sl2.generators["h"]
    rng = random.Random(RNG_SEED)
    for _ in range(60):
        n = sl2.sample_level(3, rng)
        assert sl2.in_level(sl2.mul(sl2.mul(h, n), sl2.inv(h)), 1)
        assert sl2.in_level(sl2.mul(sl2.mul(sl2.inv(h), n), h), 1)


def test_sl2_in_level():
    sl2 = SL2Pair(2)
    g = sl2.parse_literal("[[1,2],[0,1]]")
    assert sl2.in_level(g, 1)
    assert not sl2.in_level(g, 2)
    assert not sl2.in_level(sl2.generators["h"], 0)


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


_SL2_BY_P = {p: SL2Pair(p) for p in (2, 3, 5)}
_SL2_DEPTHS = [*range(36), 400, 800]


@st.composite
def _sl2_elements(draw, p):
    """A word in u, l and h^±v (v <= 20), with b and c optionally scaled by
    p^±400 (a conjugation by h^±200, so the determinant stays 1)."""
    pair = _SL2_BY_P[p]
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


@st.composite
def _sl2_level_elements(draw, p):
    """A member of level j outside level j + 1 (j <= 30), upper or lower."""
    one, zero = Fraction(1), Fraction(0)
    k = draw(st.integers(1, 50).filter(lambda k: k % p)) * p ** draw(st.integers(0, 30))
    if draw(st.booleans()):
        return Mat2(one, Fraction(k), zero, one)
    return Mat2(one, zero, Fraction(k), one)


@pytest.mark.parametrize("p", sorted(_SL2_BY_P))
@given(data=st.data())
def test_sl2_integer_arithmetic_matches_fraction_formulas(p, data):
    pair = _SL2_BY_P[p]
    x = data.draw(_sl2_elements(p))
    y = data.draw(_sl2_elements(p))
    n = data.draw(_sl2_level_elements(p))
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


@pytest.mark.parametrize("p", sorted(_SL2_BY_P))
def test_sl2_integer_arithmetic_when_one_entry_has_the_largest_denominator(p):
    """Each entry in turn carries the strictly largest denominator: h^±v and
    the unipotents with entry p^-v, with their products."""
    pair = _SL2_BY_P[p]
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


@pytest.mark.parametrize("p", sorted(_SL2_BY_P))
@given(data=st.data())
def test_sl2_foreign_denominators_raise_the_same_message(p, data):
    """An entry plus 1/(r·p^k), for a prime r != p, keeps r in its
    denominator; the first such entry is the one reported."""
    pair = _SL2_BY_P[p]
    x = data.draw(_sl2_elements(p))
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


@pytest.mark.parametrize("p", sorted(_SL2_BY_P))
@given(data=st.data())
def test_sl2_format_element_spells_the_fraction_face(p, data):
    """format_element spells each entry from the stored integers exactly as
    str(Fraction) spells the entry of the Fraction face, zero and negative
    entries included."""
    pair = _SL2_BY_P[p]
    x = data.draw(_sl2_elements(p))
    q = Fraction
    foreign = Mat2(q(-1, p**3), q(0), q(-5), q(7, 3 * p))  # formatted, not validated
    for g in (x, pair.inv(x), pair.identity, *pair.generators.values(), foreign):
        assert pair.format_element(g) == "[[{},{}],[{},{}]]".format(*g)


@pytest.mark.parametrize("p", sorted(_SL2_BY_P))
def test_sl2_reader_matches_the_reference_exponent(p):
    """The stored integer form of a matrix: numerators over den = p**e, with
    e the reference exponent, on sampled matrices and on their conjugates
    and products by h^v with v >= 1000."""
    pair = _SL2_BY_P[p]
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


@pytest.mark.parametrize("p", sorted(_SL2_BY_P))
@given(data=st.data())
def test_sl2_stored_form_is_canonical(p, data):
    """mul, inv and parse_literal give the least common denominator, which
    is p**v(g), over numerators with no common factor with it; Mat2 of the
    entries rebuilds the same fields, and == and hash are the 4-tuple's."""
    pair = _SL2_BY_P[p]
    x = data.draw(_sl2_elements(p))
    y = data.draw(_sl2_elements(p))
    n = data.draw(_sl2_level_elements(p))
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


# --- shared contract fuzz --------------------------------------------------------

def _contract_pairs():
    return [
        IntegerChainPair(2),
        FactorialChainPair(),
        IntegerChainPair(3),
        BS12Pair(),
        SL2Pair(2),
        SL2Pair(3),
    ]


@pytest.mark.parametrize("pair", _contract_pairs(), ids=lambda p: p.name)
def test_chain_nesting_and_normality(pair):
    rng = random.Random(RNG_SEED)
    for _ in range(150):
        d = rng.randrange(0, 6)
        finer = pair.sample_level(d + 1, rng)
        assert pair.in_level(finer, d)
        k = pair.sample_level(0, rng)
        n = pair.sample_level(d, rng)
        assert pair.in_level(pair.mul(pair.mul(k, n), pair.inv(k)), d)


@pytest.mark.parametrize("pair", _contract_pairs(), ids=lambda p: p.name)
def test_conj_depth_uniform_two_sided(pair):
    rng = random.Random(RNG_SEED)
    for _ in range(150):
        g = pair.sample(rng)
        d = rng.randrange(0, 4)
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

@pytest.mark.parametrize("pair", _contract_pairs(), ids=lambda p: p.name)
def test_conj_depth_monotone(pair):
    rng = random.Random(RNG_SEED)
    for _ in range(150):
        g = pair.sample(rng)
        js = [pair.conj_depth(g, d) for d in range(65)]
        assert all(j >= d for d, j in enumerate(js))
        assert js == sorted(js)


def test_conj_depth_monotone_finite_models():
    for path in sorted(MODELS.glob("*.model")):
        pair = finite_model_pair(load_model(path))
        for g in range(pair.model.n):
            js = [pair.conj_depth(g, d) for d in range(pair.max_depth + 1)]
            assert all(j >= d for d, j in enumerate(js)), (pair.name, g)
            assert js == sorted(js), (pair.name, g)


def _level_generators(pair, j):
    """Elements that generate N_j topologically, in the chain topology.

    Every level is open and closed there and conjugation is continuous,
    so g·N_j·g⁻¹ lies in a level exactly when each g·s·g⁻¹ does.
    """
    if isinstance(pair, IntegerChainPair):
        return [pair.modulus(j)]
    if isinstance(pair, BS12Pair):
        return [DyadicAffine(Fraction(1 << j), 0)]
    u, l = pair.generators["u"], pair.generators["l"]
    if j == 0:
        return [u, l]  # SL2(Z)
    if pair.p == 2 and j == 1:
        return [pair.power(u, 2), pair.power(l, 2), Mat2(*map(Fraction, (-1, 0, 0, -1)))]
    # these span K(j)/K(j+1) ≅ sl2(F_p), and K(j) is uniform, so they
    # generate it topologically (Dixon, du Sautoy, Mann and Segal,
    # Analytic pro-p groups)
    q = pair.p ** j
    return [Mat2(*map(Fraction, m)) for m in ((1, q, 0, 1), (1, 0, q, 1), (1 + q, q, -q, 1 - q))]


@pytest.mark.parametrize("name", ["z2", "z3", "zfact", "bs12", "sl2:2", "sl2:3", "sl2:5"])
def test_closed_form_conj_depth_is_least(name):
    """j = conj_depth(g, d) is sound (N_j lies in both g⁻¹·N_d·g and
    g·N_d·g⁻¹) and not needlessly lossy (when j > d, N_(j-1) does not)."""
    pair = resolve_instance(name)
    rng = random.Random(RNG_SEED)

    def conjugates_in(g, s, d):
        g_inv = pair.inv(g)
        return all(
            pair.in_level(pair.mul(pair.mul(x, s), y), d) for x, y in ((g, g_inv), (g_inv, g))
        )

    costly = 0
    for _ in range(300):
        g, d = pair.sample(rng), rng.randrange(7)
        j = pair.conj_depth(g, d)
        members = [*_level_generators(pair, j), pair.sample_level(j, rng)]
        assert all(conjugates_in(g, s, d) for s in members), (g, d, j)
        if j > d:
            costly += 1
            assert not all(conjugates_in(g, s, d) for s in _level_generators(pair, j - 1)), (g, d, j)
    # only the abelian instances conjugate at no cost
    assert (costly == 0) == isinstance(pair, IntegerChainPair)


@pytest.mark.parametrize("pair", _contract_pairs(), ids=lambda p: p.name)
def test_group_law_exactness(pair):
    # the identity is a constant of the group: one object across reads and pairs
    assert pair.identity is pair.identity is resolve_instance(pair.name).identity
    rng = random.Random(RNG_SEED)
    for _ in range(100):
        x, y, z = (pair.sample(rng) for _ in range(3))
        assert pair.mul(pair.mul(x, y), z) == pair.mul(x, pair.mul(y, z))
        assert pair.mul(x, pair.inv(x)) == pair.identity
        assert pair.mul(pair.identity, x) == x == pair.mul(x, pair.identity)


# --- permutation plumbing ---------------------------------------------------------

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


@pytest.mark.parametrize("name", ["s4", "s4_d8", "s4_corrupt", "z8", "s5"])
def test_loading_conjugates_nothing(name, monkeypatch):
    """The coset tables decide normality; loading makes no conj call."""
    calls = []
    conj = finitemodel.FiniteModel.conj

    def counted(self, g, x):
        calls.append(None)
        return conj(self, g, x)

    monkeypatch.setattr(finitemodel.FiniteModel, "conj", counted)
    model = load_model(MODELS / f"{name}.model")
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


@pytest.mark.parametrize("name", ["s4", "s4_d8", "s4_corrupt", "s5"])
def test_perm_names_parse_back_to_their_index(name):
    pair = finite_model_pair(load_model(MODELS / f"{name}.model"))
    assert pair.model.kind == "perm"
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


@pytest.mark.parametrize("name", ["s4", "s4_d8", "s4_corrupt", "s5"])
def test_shipped_model_tables_match_the_pairwise_table(name):
    model = load_model(MODELS / f"{name}.model")
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


@pytest.mark.parametrize("name", ["s4", "s4_d8", "z8", "s5"])
def test_finite_conj_depth_rep_decides_the_coset(name):
    pair = finite_model_pair(load_model(MODELS / f"{name}.model"))
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


def test_coset_tables_compare_by_value():
    """Loading compares the bottom level's left and right coset tables."""
    z8 = load_model(MODELS / "z8.model")
    s4 = load_model(MODELS / "s4.model")
    for d in range(len(z8.levels)):  # abelian: left and right cosets agree
        assert z8.lefts[d] == z8.rights[d] and z8.lefts[d] is not z8.rights[d]
    assert s4.lefts[-1] == s4.rights[-1]
    assert s4.lefts[0] != s4.lefts[1]
    assert hash(z8.lefts[0]) == hash(z8.rights[0])


@pytest.mark.parametrize("name", ["s4", "s4_d8", "s4_corrupt", "z8", "s5"])
def test_coset_tables_are_the_literal_cosets(name):
    model = load_model(MODELS / f"{name}.model")
    everything = list(range(model.n))
    for d, level in enumerate(model.levels):
        for table, literal in (
            (model.lefts[d], [model.left_coset(x, level) for x in everything]),
            (model.rights[d], [model.right_coset(level, x) for x in everything]),
        ):
            assert [table.of(x) for x in everything] == literal
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
    model = parse_model(text)
    top = len(model.levels) - 1
    return any(
        model.conj_depths[d][g] != next(
            (j for j in range(d, top) if model.lefts[j].of(g) <= model.rights[d].of(g)), top
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
    """A sound chain, or one with a single fault drawn in: a level from
    anywhere in the group (it may not nest), a repeated level (it does
    not descend), a level from one member of the level above (it may not
    be normal in K), or the chain cut short above its bottom (the new
    bottom may not be normal in the group)."""
    head, group, chain = draw(_sound_chains())
    fault = draw(st.sampled_from(["none", "nest", "descend", "normal", "bottom"]))
    i = draw(st.integers(1, len(chain)))

    def generated(subgroup, most):
        gens = draw(st.lists(st.sampled_from(sorted(subgroup)), min_size=1, max_size=most))
        return frozenset(_closure(group.e, gens, group.mul))

    if fault == "nest":
        chain.insert(i, generated(range(group.n), 2))
    elif fault == "descend":
        chain.insert(i, chain[i - 1])
    elif fault == "normal":
        chain.insert(i, generated(chain[i - 1], 1))
    elif fault == "bottom":
        del chain[i:]  # a level normal in K need not be normal in the group
    return _model_text(head, group, chain), group, chain


@settings(max_examples=300, deadline=None)
@given(_chains_sound_or_not())
def test_chain_check_matches_the_conjugation_reference(case):
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
        left, right = model.lefts[d], model.rights[d]
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

# per instance: target_names, and a resolvable name for each with its kill level
_TARGETS = {
    "z2": (("mod:<m>",), {"mod:2": 1}),
    "z3": (("mod:<m>",), {"mod:3": 1}),
    "zfact": (("mod:<m>",), {"mod:2": 2, "mod:12": 4}),
    "bs12": (("texp",), {"texp": 0}),
    "sl2:2": ((), {}),
    "sl2:3": ((), {}),
}


@pytest.mark.parametrize("pair", builtin_instances(), ids=lambda p: p.name)
def test_target_names_resolve(pair):
    names, kill_levels = _TARGETS[pair.name]
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
