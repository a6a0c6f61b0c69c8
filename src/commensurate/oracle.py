"""Brute-force ground truth on finite models.

Everything in here works with literal sets of element indices — no
depth bounds, no cleverness — so it can sit in judgment over the
generic engine.  Level cosets are read from the model's per-level coset
tables, which hold the same literal sets and are built when the model
loads, and products from its multiplication table (a permutation model
builds that table from generator columns, one index lookup per entry).
`refinement_subgroup` builds, from the right cosets that meet gN, the
finite-index subgroup whose left cosets refine every gN ∩ Nh,
`enumerate_completion` multiplies whole filters out as sets, and
`compare_engine` replays random engine operations against both.  The
depth an operation must attain is the literal optimum: the deepest
level one of whose cosets holds the literal set of results.

The intersections gN ∩ Nh are found in one pass over each left coset
gN: grouping its members by right coset gives every nonempty one, and
an empty one is trivially a union of cosets.  A piece that is not a
union is reported in that pass, once, by the least members of gN and Nh.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass

from .core import PrecisionExhausted
from .finitemodel import FiniteModel, FiniteModelPair


class OracleError(Exception):
    """A set computation that the construction guarantees cannot fail, failed."""


def refinement_subgroup(model: FiniteModel, d: int, g: int) -> frozenset:
    """A finite-index subgroup M of the chain level N = N_d such that
    every set gN ∩ Nh is a union of left cosets of M.

    M is N intersected with the conjugates h^-1 N h, where h runs over
    the least representatives of the right cosets Nh that meet gN; an
    empty gN ∩ Nh is a union of cosets of any M.  M depends on g only
    through its left coset gN.
    """
    N = model.levels[d]
    right = model.rights[d]
    M = set(N)
    for i in {right.ids[x] for x in model.lefts[d].of(g)}:
        h_inv = model.inv(right.reps[i])
        M &= {model.conj(h_inv, x) for x in N}
    return frozenset(M)


def is_union_of_left_cosets(model: FiniteModel, subset, M) -> bool:
    return all(model.left_coset(s, M) <= subset for s in subset)


@dataclass(frozen=True)
class CompletionTable:
    """The completion of a finite model, multiplied out literally.

    ``reps[i]`` is the canonical representative (smallest index) of the
    i-th bottom-level coset; ``table[i][j]`` is the coset position of the
    filter product; ``coset_of[x]`` locates the coset of element x.
    """

    reps: tuple
    table: tuple
    coset_of: tuple

    @property
    def size(self) -> int:
        return len(self.reps)


def enumerate_completion(model: FiniteModel) -> CompletionTable:
    """Multiplication table of the completion, computed by set products.

    The product of the cosets g1·N and g2·N (N the chain bottom) is the
    literal set g1·M·g2·N with M = N ∩ g2·N·g2^-1, which the construction
    promises is the single coset g1·g2·N.  Left multiplication by g1 is
    one-to-one and g1·(g2·N) = g1·g2·N, so the promise holds for every g1
    exactly when M·g2·N is the coset g2·N; that is checked once per g2.
    Each entry is the coset of g1·g2, so the table is the quotient by the
    bottom (which is normal by the model preconditions).
    """
    N = model.bottom
    cosets = model.lefts[-1]
    reps, coset_of = cosets.reps, cosets.ids
    mul = model.mul_table
    for g2 in reps:
        M = N & {model.conj(g2, x) for x in N}
        g2N = cosets.of(g2)
        if {mul[m][y] for m in M for y in g2N} != g2N:
            # a loop over every (g1, g2) would fail first at g1 = reps[0]
            raise OracleError(
                f"filter product of {model.names[reps[0]]} and {model.names[g2]} "
                "is not a single coset"
            )
    table = tuple(tuple([coset_of[mul[g1][g2]] for g2 in reps]) for g1 in reps)
    return CompletionTable(reps, table, coset_of)


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
    for cosets in model.rights:
        containing = {cosets.ids[b] for b in bottom}
        if len(containing) != 1:
            return False
        right = cosets.sets[containing.pop()]
        if previous is not None and not right <= previous:
            return False
        previous = right
    return True


@dataclass
class OracleReport:
    model: str
    trials: int
    mismatches: list

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> str:
        payload = {
            "model": self.model,
            "trials": self.trials,
            "mismatches": self.mismatches,
        }
        return json.dumps(payload, indent=2)


def _mismatch(op: str, inputs: str, expected, got) -> dict:
    return {"op": op, "inputs": inputs, "expected": str(expected), "got": str(got)}


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
    table = enumerate_completion(model)
    top = pair.max_depth
    mul, inv = model.mul_table, model.inv_table
    lefts, rights = model.lefts, model.rights
    mismatches = []

    def note(*fields):
        mismatches.append(_mismatch(*fields))

    def fuzzed(g, d):
        # replace the rep by another member of its coset: nothing may change
        return pair.embed(mul[g][pair.sample_level(d, rng)], d)

    for _ in range(trials):
        d1 = rng.randrange(top + 1)
        d2 = rng.randrange(top + 1)
        g1 = rng.randrange(model.n)
        g2 = rng.randrange(model.n)
        f1 = fuzzed(g1, d1)
        f2 = fuzzed(g2, d2)
        coset1 = lefts[d1].of(f1.rep)
        coset2 = lefts[d2].of(f2.rep)
        label = (
            f"{model.names[f1.rep]}@{d1}, {model.names[f2.rep]}@{d2}"
        )

        # mul: the deepest coset holding the literal product set; that set
        # contains a whole coset of N_d2, so no level finer than d2 can
        product_set = set()
        for x in coset1:
            product_set.update(map(mul[x].__getitem__, coset2))
        want_d = _deepest_coset(lefts, product_set, mul[f1.rep][f2.rep])
        prod = _unless_exhausted(lambda: f1 * f2)
        got_d = None if prod is None else prod.depth
        if got_d != want_d:
            note("mul-depth", label, want_d, got_d)
        if prod is not None and want_d is not None:
            claimed = lefts[prod.depth].of(prod.rep)
            if not product_set <= claimed:
                note("mul-coset", label, sorted(product_set), sorted(claimed))

        # inv: the same rule for the literal inverse set
        inverse_set = {inv[x] for x in coset1}
        want_d = _deepest_coset(lefts, inverse_set, inv[f1.rep])
        invf = _unless_exhausted(f1.inverse)
        got_d = None if invf is None else invf.depth
        if got_d != want_d:
            note("inv-depth", label, want_d, got_d)
        if invf is not None:
            claimed = lefts[invf.depth].of(invf.rep)
            if not inverse_set <= claimed:
                note("inv-coset", label, sorted(inverse_set), sorted(claimed))

        # eq_at_depth against literal coset equality
        d = rng.randrange(min(d1, d2) + 1)
        ids = lefts[d].ids
        want = ids[f1.rep] == ids[f2.rep]
        if f1.eq_at_depth(f2, d) != want:
            note("eq_at_depth", f"{label} at {d}", want, not want)

        # valuation by literal upward scan, deliberately not the engine's search
        want_v = None
        for dd in range(min(d1, d2) + 1):
            ids = lefts[dd].ids
            if ids[f1.rep] != ids[f2.rep]:
                break
            want_v = dd
        val = f1.valuation(f2)
        got_v = None if val.depth < 0 else val.depth
        if got_v != want_v:
            note("valuation", label, want_v, got_v)
        if (want_v == min(d1, d2)) != val.indistinguishable:
            note("valuation-flag", label, want_v == min(d1, d2), val.indistinguishable)

        # right_rep: feasible iff the known left coset sits in one right
        # coset, which must then be the claimed one
        d = rng.randrange(top + 1)
        right_ids = rights[d].ids
        feasible = len({right_ids[x] for x in coset1}) == 1
        h = _unless_exhausted(lambda: f1.right_rep(d))
        if (h is not None) != feasible:
            note("right_rep-feasible", f"{label} at {d}", feasible, h is not None)
        if h is not None:
            if not coset1 <= rights[d].of(h):
                note("right_rep-coset", f"{label} at {d}", "containment", "violated")

        # products of bottom-depth elements against the completion table
        b1 = pair.embed(g1, top)
        b2 = pair.embed(g2, top)
        prod = _unless_exhausted(lambda: b1 * b2)
        want_class = table.table[table.coset_of[g1]][table.coset_of[g2]]
        if prod is None or table.coset_of[prod.rep] != want_class:
            got = None if prod is None else table.coset_of[prod.rep]
            note("table", f"{model.names[g1]} * {model.names[g2]}", want_class, got)

    return OracleReport(model=model.name, trials=trials, mismatches=mismatches)


def run_model_suite(pair: FiniteModelPair, trials: int, rng) -> OracleReport:
    """Exhaustive refinement/left-right/table checks plus randomized replay."""
    model = pair.model
    mismatches = []

    for d in range(len(model.levels)):
        left, right = model.lefts[d], model.rights[d]
        # M and gN ∩ Nh depend on g and h only through gN and Nh; one pass
        # over gN yields each nonempty gN ∩ Nh, keyed by Nh's id, and an
        # empty one is trivially a union of cosets
        for g, gN in zip(left.reps, left.sets):
            M = refinement_subgroup(model, d, g)
            pieces = defaultdict(set)
            for x in gN:
                pieces[right.ids[x]].add(x)
            for i in sorted(pieces):
                if not is_union_of_left_cosets(model, pieces[i], M):
                    inputs = f"level {d}, g={model.names[g]}, h={model.names[right.reps[i]]}"
                    mismatches.append(
                        _mismatch("refinement", inputs, "union of left cosets", "not a union")
                    )

    for chain in coherent_chains(model):
        if not left_right_check(model, chain):
            mismatches.append(
                _mismatch("left-right", model.names[min(chain[-1])],
                          "coherent right chain", "incoherent")
            )

    try:
        report = compare_engine(pair, trials, rng)
    except OracleError as err:  # raised by the completion table, before any trial
        report = OracleReport(model=model.name, trials=0, mismatches=[])
        mismatches.append(
            _mismatch("completion-table", model.name, "single-coset products", err)
        )
    report.mismatches[:0] = mismatches
    return report
