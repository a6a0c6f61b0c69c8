"""Brute-force ground truth on finite models.

Everything in here works with literal sets of element indices, so it
can sit in judgment over the generic engine: it never reads the engine's
``conj_depth`` or ``level_of``, nor any depth bound.  Level cosets are
read from the model's per-level left coset tables, which hold the same
literal sets and are built when the model loads, and products from its
multiplication table (a permutation model builds that table from
generator columns, one index lookup per entry).  `enumerate_completion`
gives the completion as the quotient by the chain bottom, and
`compare_engine` replays random engine operations against literal cosets
and that quotient.  Each expected answer is one literal containment: the
depth of a product, an inverse or a valuation is the deepest level one
of whose cosets holds the literal set of results, equality at a level is
membership in a left coset, and a right rep exists when the known left
coset's inverses lie in one left coset, since N·g = (g⁻¹·N)⁻¹.

Two facts that loading checks keep each reference at the cost of its
cosets.  The literal product set ``(g1·N_d1)(g2·N_d2)`` is a union of
left cosets of ``N_d2``: its heads ``x·g2`` for x in the first coset,
each times ``N_d2``.  And the levels descend strictly, so a coset of a
level finer than ``d`` cannot hold a whole coset of ``N_d``.  So a coset
of ``N_e`` with ``e <= d2`` holds the product set exactly when it holds
the heads, and none with ``e > d2`` does; the inverse set, a right coset
of ``N_d1``, fits in no coset finer than ``d1``.

The paper's coset identities need no check here: given what loading a
model checks (levels nested and normal in K, the bottom normal in the
whole group), each holds in every group.  The tests check them
exhaustively on the shipped models and on fuzzed chains.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import PrecisionExhausted
from .finitemodel import FiniteModel, FiniteModelPair


def enumerate_completion(model: FiniteModel):
    """The completion's product on ``model.lefts[-1]``'s coset ids:
    ``product(i, j)`` is the id of ``g1·g2`` for the reps ``g1``, ``g2`` of
    the bottom cosets ``i`` and ``j``.

    The bottom N is normal in the whole group (loading checks it), so the
    filter product g1·N·g2·N is the single coset g1·g2·N and the product
    is the quotient's.  Each entry is two lookups, made when it is asked
    for; a suite asks for one per trial, not for the whole table.
    """
    cosets = model.lefts[-1]
    reps, coset_of = cosets.reps, cosets.ids
    mul = model.mul_table

    def product(i: int, j: int) -> int:
        return coset_of[mul[reps[i]][reps[j]]]

    return product


class OracleReport(NamedTuple):
    model: str
    trials: int
    mismatches: list

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _unless_exhausted(operation):
    """operation(), or None when it raises PrecisionExhausted."""
    try:
        return operation()
    except PrecisionExhausted:
        return None


def _deepest_coset(lefts, members, g: int):
    """Deepest level e whose left coset g·N_e (``lefts[e]``) holds every
    member, or None."""
    deepest = None
    for e, cosets in enumerate(lefts):
        if not members <= cosets.of(g):
            break
        deepest = e
    return deepest


def compare_engine(pair: FiniteModelPair, trials: int, rng) -> OracleReport:
    """Replay random mul/inv/eq_at_depth/valuation/right_rep calls and
    check every claim the engine makes against literal set arithmetic."""
    model = pair.model
    product = enumerate_completion(model)
    coset_of = model.lefts[-1].ids
    names = model.names
    top = pair.max_depth
    mul, inv = model.mul_table, model.inv_table
    lefts = model.lefts
    members = [sorted(level) for level in model.levels]
    mismatches = []

    def note(op, expected, got, at=None, inputs=None):
        # the trial's label is formatted only here, when a mismatch needs it
        if inputs is None:
            inputs = f"{names[f1.rep]}@{d1}, {names[f2.rep]}@{d2}"
            if at is not None:
                inputs += f" at {at}"
        mismatches.append(
            {"op": op, "inputs": inputs, "expected": str(expected), "got": str(got)}
        )

    def fuzzed(g, d):
        # replace the rep by another member of its coset: nothing may change
        return pair.embed(mul[g][rng.choice(members[d])], d)

    for _ in range(trials):
        d1 = rng.randrange(top + 1)
        d2 = rng.randrange(top + 1)
        g1 = rng.randrange(model.n)
        g2 = rng.randrange(model.n)
        f1 = fuzzed(g1, d1)
        f2 = fuzzed(g2, d2)
        coset1 = lefts[d1].of(f1.rep)

        # mul: the deepest coset holding the literal product set heads·N_d2,
        # which is the deepest coset up to d2 holding its heads
        head = f2.rep
        heads = {mul[x][head] for x in coset1}
        want_d = _deepest_coset(lefts[:d2 + 1], heads, mul[f1.rep][head])
        prod = _unless_exhausted(lambda: f1 * f2)
        got_d = None if prod is None else prod.depth
        if got_d != want_d:
            note("mul-depth", want_d, got_d)
        if prod is not None and want_d is not None:
            claimed = lefts[prod.depth].of(prod.rep)
            if prod.depth > d2 or not heads <= claimed:
                product_set = set().union(*map(lefts[d2].of, heads))
                note("mul-coset", sorted(product_set), sorted(claimed))

        # inv: the same rule for the literal inverse set, a right coset of N_d1
        inverse_set = {inv[x] for x in coset1}
        want_d = _deepest_coset(lefts[:d1 + 1], inverse_set, inv[f1.rep])
        invf = _unless_exhausted(f1.inverse)
        got_d = None if invf is None else invf.depth
        if got_d != want_d:
            note("inv-depth", want_d, got_d)
        if invf is not None:
            claimed = lefts[invf.depth].of(invf.rep)
            if not inverse_set <= claimed:
                note("inv-coset", sorted(inverse_set), sorted(claimed))

        # eq_at_depth: whether f1's coset at d holds f2's rep
        d = rng.randrange(min(d1, d2) + 1)
        want = f2.rep in lefts[d].of(f1.rep)
        if f1.eq_at_depth(f2, d) != want:
            note("eq_at_depth", want, not want, at=d)

        # valuation: the literal optimum again, deliberately not the engine's search
        want_v = _deepest_coset(lefts[:min(d1, d2) + 1], {f2.rep}, f1.rep)
        val = f1.valuation(f2)
        got_v = None if val.depth < 0 else val.depth
        if got_v != want_v:
            note("valuation", want_v, got_v)
        if (want_v == min(d1, d2)) != val.indistinguishable:
            note("valuation-flag", want_v == min(d1, d2), val.indistinguishable)

        # right_rep: feasible iff coset1 lies in N_d·f1.rep, its only candidate
        # right coset, that is inverse_set in f1.rep^-1·N_d; then in the claimed one
        d = rng.randrange(top + 1)
        feasible = inverse_set <= lefts[d].of(inv[f1.rep])
        h = _unless_exhausted(lambda: f1.right_rep(d))
        if (h is not None) != feasible:
            note("right_rep-feasible", feasible, h is not None, at=d)
        if h is not None and not inverse_set <= lefts[d].of(inv[h]):
            note("right_rep-coset", "containment", "violated", at=d)

        # products of bottom-depth elements against the completion's product
        b1 = pair.embed(g1, top)
        b2 = pair.embed(g2, top)
        prod = _unless_exhausted(lambda: b1 * b2)
        want_class = product(coset_of[g1], coset_of[g2])
        if prod is None or coset_of[prod.rep] != want_class:
            got = None if prod is None else coset_of[prod.rep]
            note("table", want_class, got, inputs=f"{names[g1]} * {names[g2]}")

    return OracleReport(model=model.name, trials=trials, mismatches=mismatches)
