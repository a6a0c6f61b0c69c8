"""Acceptance gate: ten end-to-end guarantees, one test per criterion.

Each test carries a wall-clock budget and reports through the terminal
summary as ``[criterion NN] PASS/FAIL``.  Randomised blocks draw from
``random.Random`` seeded off COMMENSURATE_SEED (default 0), so reruns
are deterministic.  Finite models are checked exhaustively where a
criterion says so; the infinite instances are checked against exact
arithmetic computed independently of the completion engine.
"""

import os
import random
import time

import test_cli
from test_oracle import (
    coherent_chains,
    is_union_of_left_cosets,
    left_right_check,
    refinement_subgroup,
    right_coset,
)

from commensurate.oracle import compare_engine
from commensurate.registry import builtin_instances, resolve_instance, resolve_target
from contract import MODEL_PAIRS

SEED = int(os.environ.get("COMMENSURATE_SEED", "0"))


def _shipped_models():
    return [pair.model for pair in MODEL_PAIRS]


def _budget(started, limit, label):
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"{label} took {elapsed:.1f}s (budget {limit}s)"


def test_criterion_01_finite_model_oracle_equivalence(model_pairs):
    """mul, inv, eq_at_depth, valuation and right_rep agree with the
    brute-force coset oracle on every clean shipped model."""
    started = time.perf_counter()
    for salt, pair in enumerate(model_pairs):
        report = compare_engine(pair, trials=1000, rng=random.Random(SEED * 7 + salt))
        assert report.trials == 1000
        assert report.mismatches == [], (pair.name, report.mismatches[:5])
    _budget(started, 10.0, "finite-model oracle comparison")


def test_criterion_02_refinement_subgroup_exhaustive():
    """For every chain level N, every g and every h of every shipped
    model, the mixed coset intersection gN ∩ Nh is a union of left
    cosets of the refinement subgroup computed from (N, g)."""
    started = time.perf_counter()
    for model in _shipped_models():
        for d, N in enumerate(model.levels):
            for g in range(model.n):
                M = refinement_subgroup(model, d, g)
                assert M <= N
                gN = model.left_coset(g, N)
                for h in range(model.n):
                    mixed = gN & right_coset(model, N, h)
                    assert is_union_of_left_cosets(model, mixed, M), (
                        model.name,
                        model.names[g],
                        model.names[h],
                    )
    _budget(started, 10.0, "refinement subgroup exhaustion")


def test_criterion_03_left_right_coherence():
    """Every coherent left-coset chain of every shipped model is also
    coherent on the right."""
    started = time.perf_counter()
    for model in _shipped_models():
        chains = list(coherent_chains(model))
        assert len(chains) == model.n // len(model.bottom)
        for chain in chains:
            assert left_right_check(model, chain), (model.name, sorted(chain[-1]))
    _budget(started, 5.0, "left-right coherence")


def test_criterion_04_dyadic_integer_arithmetic():
    """Products and inverses at depth 32 in the pro-2 integers agree
    with addition and negation modulo 2^32."""
    started = time.perf_counter()
    pair = resolve_instance("z2")
    rng = random.Random(SEED * 7 + 4)
    mod = 2**32
    for _ in range(1000):
        a = rng.randrange(-(2**31) + 1, 2**31)
        b = rng.randrange(-(2**31) + 1, 2**31)
        total = pair.embed(a, 32) * pair.embed(b, 32)
        assert total.depth == 32
        assert total.rep % mod == (a + b) % mod
        assert total.eq_at_depth(pair.embed((a + b) % mod, 32), 32)
        negated = pair.embed(a, 32).inverse()
        assert negated.depth == 32
        assert negated.rep % mod == (-a) % mod
    _budget(started, 5.0, "dyadic integer arithmetic")


def test_criterion_05_bs12_words_match_affine_oracle():
    """Random words over a, t multiply, at finite precision, to the same
    depth-16 coset as the exact affine-map product, with the attained
    depth equal to the precision rule's prediction at every step."""
    started = time.perf_counter()
    pair = resolve_instance("bs12")
    rng = random.Random(SEED * 7 + 5)
    a = pair.generators["a"]
    t = pair.generators["t"]
    identity16 = pair.embed(pair.identity, 16)

    # the defining relation collapses to the identity at depth 16
    relation = [t, a, pair.inv(t), pair.inv(pair.mul(a, a))]
    depth0 = 16 + sum(1 for w in relation if w.texp != 0)
    f = pair.embed(relation[0], depth0)
    for letter in relation[1:]:
        f = f * pair.embed(letter, depth0)
    assert f.depth >= 16
    assert f.rep == pair.identity
    assert f.truncate(16).eq_at_depth(identity16, 16)

    alphabet = [a, pair.inv(a), t, pair.inv(t)]
    for _ in range(1000):
        word = [alphabet[rng.randrange(4)] for _ in range(rng.randint(1, 20))]
        weight = sum(1 for w in word if w.texp != 0)
        depth0 = 16 + weight

        # scatter the letters across their own cosets before embedding,
        # so agreement below is about cosets rather than literal reps
        reps = [
            pair.mul(letter, pair.sample_level(depth0, rng))
            if rng.random() < 0.5
            else letter
            for letter in word
        ]
        f = pair.embed(reps[0], depth0)
        predicted = depth0
        for rep in reps[1:]:
            f = f * pair.embed(rep, depth0)
            predicted = min(depth0, predicted - abs(rep.texp))
        exact = word[0]
        for letter in word[1:]:
            exact = pair.mul(exact, letter)
        assert f.depth == predicted
        assert predicted >= 16
        assert f.truncate(16).eq_at_depth(pair.embed(exact, 16), 16)
    _budget(started, 10.0, "affine word comparison")


def test_criterion_06_sl2_words_and_conjugation_soundness():
    """Random generator words in SL2(Z[1/2]) land in the same coset of
    the level-5 congruence subgroup as exact matrix arithmetic, and the
    conjugation-depth bound really conjugates level members both ways
    into the target level."""
    started = time.perf_counter()
    pair = resolve_instance("sl2:2")
    rng = random.Random(SEED * 7 + 6)
    gens = list(pair.generators.values())
    alphabet = gens + [pair.inv(g) for g in gens]

    for _ in range(500):
        word = [
            alphabet[rng.randrange(len(alphabet))] for _ in range(rng.randint(1, 10))
        ]
        weight = sum(pair.denominator_exponent(w) for w in word)
        depth0 = 5 + 2 * weight
        reps = [
            pair.mul(letter, pair.sample_level(depth0, rng))
            if rng.random() < 0.5
            else letter
            for letter in word
        ]
        f = pair.embed(reps[0], depth0)
        predicted = depth0
        for rep in reps[1:]:
            f = f * pair.embed(rep, depth0)
            predicted = min(depth0, predicted - 2 * pair.denominator_exponent(rep))
        exact = word[0]
        for letter in word[1:]:
            exact = pair.mul(exact, letter)
        assert f.depth == predicted
        assert predicted >= 5
        assert f.truncate(5).eq_at_depth(pair.embed(exact, 5), 5)

    for _ in range(1000):
        g = pair.sample(rng)
        d = rng.randrange(0, 5)
        bound = pair.conj_depth(g, d)
        x = pair.mul(g, pair.sample_level(d, rng))
        member = pair.sample_level(bound, rng)
        assert pair.in_level(pair.mul(pair.mul(x, member), pair.inv(x)), d)
        assert pair.in_level(pair.mul(pair.mul(pair.inv(x), member), x), d)
    _budget(started, 30.0, "matrix word comparison and conjugation soundness")


def test_criterion_07_group_laws_at_depth():
    """Associativity, inverses and the identity hold at every mutually
    attained depth across all built-in instances."""
    started = time.perf_counter()
    for index, pair in enumerate(builtin_instances()):
        rng = random.Random(SEED * 7 + 70 + index)
        for _ in range(1000):
            x, y, z = (pair.sample(rng) for _ in range(3))
            # the inverse laws multiply x's inverse (already short by one
            # conjugation cost) back against x, so x's cost counts twice
            depth = rng.randrange(0, 5) + 2 * pair.conj_depth(x, 0) + sum(
                pair.conj_depth(g, 0) for g in (y, z)
            )
            fx, fy, fz = (pair.embed(g, depth) for g in (x, y, z))

            left = (fx * fy) * fz
            right = fx * (fy * fz)
            assert left.eq_at_depth(right, min(left.depth, right.depth))

            inverse = fx.inverse()
            for product in (fx * inverse, inverse * fx):
                assert product.eq_at_depth(
                    pair.embed(pair.identity, product.depth), product.depth
                )

            neutral = pair.embed(pair.identity, fx.depth)
            tail = fx * neutral
            assert tail.depth == fx.depth
            assert tail.eq_at_depth(fx, fx.depth)
            head = neutral * fx
            assert head.eq_at_depth(fx, head.depth)
    _budget(started, 30.0, "group laws at depth")


def test_criterion_08_universal_property_of_targets():
    """Each discrete target factors through the completion: evaluating
    the embedded element returns the homomorphism's value, and the value
    of a product combines the factors' values whenever depth suffices."""
    started = time.perf_counter()
    cases = [("bs12", "texp"), ("z2", "mod:8"), ("z3", "mod:9"), ("zfact", "mod:12")]
    for salt, (instance_name, target_name) in enumerate(cases):
        pair = resolve_instance(instance_name)
        target = resolve_target(pair, target_name)
        rng = random.Random(SEED * 7 + 80 + salt)
        for _ in range(1000):
            g = pair.sample(rng)
            f = pair.embed(g, target.kill_level + rng.randrange(0, 3))
            assert target.evaluate(f) == target.phi(g)

            g2 = pair.sample(rng)
            depth = target.kill_level + pair.conj_depth(g2, 0)
            f1 = pair.embed(g, depth)
            f2 = pair.embed(g2, depth)
            product = f1 * f2
            if product.depth >= target.kill_level:
                assert target.evaluate(product) == target.combine(
                    target.evaluate(f1), target.evaluate(f2)
                )
    _budget(started, 10.0, "universal property of targets")


def test_criterion_09_coset_counts_and_kernel_detection(model_pairs):
    """The completion sees exactly [K : N_d] cosets of each level, and an
    element of K embeds to the identity at depth d precisely when it lies
    in N_d."""
    started = time.perf_counter()
    for pair in model_pairs:
        model = pair.model
        K = model.levels[0]
        for d, level in enumerate(model.levels):
            cosets = {model.left_coset(g, level) for g in K}
            assert len(cosets) == pair.level_index(d) == len(K) // len(level)

    rng = random.Random(SEED * 7 + 90)
    for name in ("z2", "z3", "zfact"):
        pair = resolve_instance(name)
        for d in range(0, 9):
            modulus = pair.modulus(d)
            reps = {pair.level_rep(residue, d) for residue in range(modulus)}
            assert len(reps) == modulus == pair.level_index(d)
        for _ in range(200):
            d = rng.randrange(0, 9)
            a, b = rng.randrange(2**20), rng.randrange(2**20)
            same = pair.embed(a, d).eq_at_depth(pair.embed(b, d), d)
            assert same == ((a - b) % pair.modulus(d) == 0)

    instances = [
        resolve_instance(name) for name in ("z2", "zfact", "bs12", "sl2:2")
    ] + list(model_pairs)
    rng = random.Random(SEED * 7 + 91)
    for trial in range(1000):
        pair = instances[trial % len(instances)]
        cap = pair.max_depth if pair.max_depth is not None else 6
        d = rng.randrange(0, cap + 1)
        g = pair.sample_level(d if rng.random() < 0.5 else 0, rng)
        claimed = pair.embed(g, d).eq_at_depth(pair.embed(pair.identity, d), d)
        assert claimed == pair.in_level(g, d)
    _budget(started, 10.0, "coset counts and kernel detection")


def test_criterion_10_cli_contract(capsys, monkeypatch):
    """The command line reproduces its golden bytes across eval, table,
    psi and oracle, covers exit codes 0 through 4, and emits JSON that is
    byte-stable across reruns."""
    started = time.perf_counter()
    exit_codes = set()
    for name, argv in test_cli.CASES:
        blob = test_cli.run_case(argv, capsys, monkeypatch)
        golden = (test_cli.GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
        assert blob == golden, name
        exit_codes.add(int(blob.split("\n", 1)[0].removeprefix("exit: ")))
    assert exit_codes == {0, 1, 2, 3, 4}

    rerun = ["eval", "z2", "--depth", "4", "embed(5)*embed(6)", "--json"]
    again = test_cli.run_case(rerun, capsys, monkeypatch)
    assert again == (test_cli.GOLDEN / "eval_z2_json.txt").read_text(encoding="utf-8")
    _budget(started, 5.0, "command-line contract")
