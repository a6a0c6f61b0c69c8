"""Instance contracts: arithmetic exactness, chain membership, depth bounds."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from commensurate import (
    ContractViolation,
    DyadicAffine,
    FACTORIAL,
    Mat2,
    ModelError,
    bs12_pair,
    finite_model_pair,
    integers_pair,
    parse_model,
    sl2_pair,
)
from commensurate.finitemodel import (
    perm_compose,
    perm_from_cycles,
    perm_inverse,
    perm_to_cycles,
)
from commensurate.registry import builtin_instances
from commensurate.sl2 import _is_prime

RNG_SEED = 20260814


# --- integers -----------------------------------------------------------------

def test_integers_in_level():
    z2 = integers_pair(2)
    assert z2.in_level(8, 3)
    assert not z2.in_level(8, 4)
    zf = integers_pair(FACTORIAL)
    assert not zf.in_level(5, 5)  # 5 is not a multiple of 5! = 120
    assert zf.in_level(240, 5)


def test_integers_moduli():
    zf = integers_pair(FACTORIAL)
    assert [zf.modulus(d) for d in range(6)] == [1, 1, 2, 6, 24, 120]
    z3 = integers_pair(3)
    assert z3.modulus(4) == 81


def test_integers_conj_depth_is_flat():
    z2 = integers_pair(2)
    assert all(z2.conj_depth(g, d) == d for g in (-7, 0, 12345) for d in range(9))


def test_integers_rejects_bad_base():
    with pytest.raises(ValueError):
        integers_pair(1)
    with pytest.raises(ValueError):
        integers_pair("fib")


def test_integers_validate():
    with pytest.raises(ContractViolation):
        integers_pair(2).validate("five")


# --- BS(1,2) --------------------------------------------------------------------

def test_bs12_defining_relation():
    bs = bs12_pair()
    a, t = bs.generators["a"], bs.generators["t"]
    tat = bs.mul(bs.mul(t, a), bs.inv(t))
    assert tat == bs.mul(a, a)


def test_bs12_in_level():
    bs = bs12_pair()
    assert bs.in_level(DyadicAffine(Fraction(4), 0), 2)
    assert not bs.in_level(DyadicAffine(Fraction(4), 1), 2)
    assert not bs.in_level(DyadicAffine(Fraction(1, 2), 0), 0)


def test_bs12_conj_depth_value():
    bs = bs12_pair()
    assert bs.conj_depth(bs.generators["t"], 3) == 4


def test_bs12_conj_depth_brute_force():
    # every translation by a multiple of 2^4 conjugates into level 3 from
    # both sides of t, exactly
    bs = bs12_pair()
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
    bs = bs12_pair()
    g = DyadicAffine(Fraction(3), 2)
    assert bs.inv(g) == DyadicAffine(Fraction(-3, 4), -2)
    assert bs.mul(g, bs.inv(g)) == bs.identity


def test_bs12_format_parse():
    bs = bs12_pair()
    g = DyadicAffine(Fraction(-3, 4), -2)
    assert bs.format_element(g) == "(-3/4; -2)"
    assert bs.parse_literal("(-3/4; -2)") == g
    assert bs.parse_literal("(5; 0)") == DyadicAffine(Fraction(5), 0)
    with pytest.raises(ContractViolation):
        bs.parse_literal("(1/3; 0)")
    with pytest.raises(ValueError):
        bs.parse_literal("(1; )")


def test_bs12_validate():
    bs = bs12_pair()
    with pytest.raises(ContractViolation):
        bs.validate(DyadicAffine(Fraction(1, 3), 0))
    with pytest.raises(ContractViolation):
        bs.validate((Fraction(1), 0))


# --- SL2(Z[1/p]) -----------------------------------------------------------------

def test_sl2_integral_conj_depth():
    sl2 = sl2_pair(2)
    u = sl2.generators["u"]
    assert all(sl2.conj_depth(u, d) == d for d in range(6))


def test_sl2_h_conj_depth():
    sl2 = sl2_pair(2)
    assert sl2.conj_depth(sl2.generators["h"], 1) == 3


def test_sl2_h_conj_sampling():
    # conjugating level-3 members by diag(2, 1/2) lands inside level 1
    sl2 = sl2_pair(2)
    h = sl2.generators["h"]
    rng = random.Random(RNG_SEED)
    for _ in range(60):
        n = sl2.sample_level(3, rng)
        assert sl2.in_level(sl2.mul(sl2.mul(h, n), sl2.inv(h)), 1)
        assert sl2.in_level(sl2.mul(sl2.mul(sl2.inv(h), n), h), 1)


def test_sl2_in_level():
    sl2 = sl2_pair(2)
    g = sl2.parse_literal("[[1,2],[0,1]]")
    assert sl2.in_level(g, 1)
    assert not sl2.in_level(g, 2)
    assert not sl2.in_level(sl2.generators["h"], 0)


def test_sl2_det_preserved():
    sl2 = sl2_pair(3)
    rng = random.Random(RNG_SEED)
    det = lambda m: m.a * m.d - m.b * m.c
    for _ in range(100):
        x, y = sl2.sample(rng), sl2.sample(rng)
        assert det(sl2.mul(x, y)) == 1
        assert det(sl2.inv(x)) == 1
        assert sl2.mul(x, sl2.inv(x)) == sl2.identity


def test_sl2_format_parse():
    sl2 = sl2_pair(2)
    h = sl2.generators["h"]
    assert sl2.format_element(h) == "[[2,0],[0,1/2]]"
    assert sl2.parse_literal("[[2,0],[0,1/2]]") == h
    with pytest.raises(ContractViolation):
        sl2.parse_literal("[[1,2],[3,4]]")  # determinant is -2
    with pytest.raises(ContractViolation):
        sl2.parse_literal("[[1/3,0],[0,3]]")  # denominator not a 2-power
    with pytest.raises(ValueError):
        sl2.parse_literal("[[1,2],[3]]")


def test_sl2_rejects_composite_p():
    with pytest.raises(ValueError):
        sl2_pair(6)
    # the smallest composite that passes Miller-Rabin for every base in
    # 2..41: from it on the test is no longer exact, so such p are refused
    with pytest.raises(ValueError, match="below"):
        sl2_pair(3317044064679887385961981)


def test_is_prime_is_exact():
    def by_trial_division(n):
        return n >= 2 and all(n % k for k in range(2, int(n**0.5) + 1))

    assert [n for n in range(2, 5000) if _is_prime(n) != by_trial_division(n)] == []
    # strong pseudoprimes to every prime base up to 31 and 37 respectively
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(318665857834031151167461)
    assert _is_prime(2**61 - 1)


def test_sl2_valuation_of_denominators():
    sl2 = sl2_pair(2)
    g = Mat2(Fraction(1, 4), Fraction(0), Fraction(0), Fraction(4))
    assert sl2.denominator_exponent(g) == 2
    assert sl2.conj_depth(g, 2) == 6


# --- shared contract fuzz --------------------------------------------------------

def _contract_pairs():
    return [
        integers_pair(2),
        integers_pair(FACTORIAL),
        bs12_pair(),
        sl2_pair(2),
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


# the engine's depth searches are maximal only because conj_depth is monotone

@pytest.mark.parametrize("pair", _contract_pairs(), ids=lambda p: p.name)
def test_conj_depth_monotone(pair):
    rng = random.Random(RNG_SEED)
    for _ in range(150):
        g = pair.sample(rng)
        js = [pair.conj_depth(g, d) for d in range(65)]
        assert all(j >= d for d, j in enumerate(js))
        assert js == sorted(js)


def test_conj_depth_monotone_finite_models(model_pairs):
    for pair in model_pairs:
        for g in range(pair.model.n):
            js = [pair.conj_depth(g, d) for d in range(pair.max_depth + 1)]
            assert all(j >= d for d, j in enumerate(js)), (pair.name, g)
            assert js == sorted(js), (pair.name, g)


@pytest.mark.parametrize("pair", _contract_pairs(), ids=lambda p: p.name)
def test_group_law_exactness(pair):
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
    assert perm_inverse(perm_from_cycles("(1 2 3)", 4)) == perm_from_cycles(
        "(1 3 2)", 4
    )


def test_perm_conjugation_convention():
    # (1 4) (1 2 3) (1 4) = (4 2 3), composing right to left
    s = perm_from_cycles("(1 4)", 4)
    r = perm_from_cycles("(1 2 3)", 4)
    conj = perm_compose(perm_compose(s, r), s)
    assert perm_to_cycles(conj) == "(2 3 4)"


def test_perm_parse_errors():
    with pytest.raises(ModelError):
        perm_from_cycles("(1 5)", 4)
    with pytest.raises(ModelError):
        perm_from_cycles("(1 1)", 4)
    with pytest.raises(ModelError):
        perm_from_cycles("1 2", 4)


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


def test_model_rejects_garbage():
    with pytest.raises(ModelError):
        parse_model("kind: perm\npoints: 4\n")
    with pytest.raises(ModelError):
        parse_model("just some text")
    with pytest.raises(ModelError):
        parse_model(S4_TEXT.replace("kind: perm", "kind: magma"))


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


def test_finite_pair_validate(s4_pair):
    with pytest.raises(ContractViolation):
        s4_pair.validate(99)
    # a cyclic group on 4 points: transpositions are well-formed literals
    # but lie outside the group
    c4 = finite_model_pair(
        parse_model("kind: perm\npoints: 4\ngens: (1 2 3 4)\nK: (1 2 3 4)\n")
    )
    with pytest.raises(ContractViolation):
        c4.parse_literal("(1 2)")


def test_dropped_model_pair_is_freed():
    pair = finite_model_pair(
        parse_model("kind: perm\npoints: 4\ngens: (1 2 3 4)\nK: (1 3)(2 4)\n")
    )
    pair.conj_depth(pair.parse_literal("(1 2 3 4)"), 0)  # fills the depth cache
    ref = weakref.ref(pair)
    del pair
    gc.collect()
    assert ref() is None


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
    with pytest.raises(KeyError) as err:
        pair.target("nosuch")
    assert err.value.args[0] == f"unknown target 'nosuch' for instance {pair.name}"


def test_finite_models_have_no_targets(model_pairs):
    for pair in model_pairs:
        assert pair.target_names == ()
        with pytest.raises(KeyError, match="unknown target 'texp'"):
            pair.target("texp")
