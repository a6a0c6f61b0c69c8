"""The Baumslag-Solitar group BS(1,2) acting affinely on dyadic rationals.

Elements are affine maps x -> 2**m * x + r with r a dyadic rational,
stored as the pair (r, m).  The generators are the translation
a = (1, 0) and the doubling map t = (0, 1); they satisfy t a t^-1 = a^2.
The distinguished subgroup is the translation lattice K = {(z, 0)},
commensurated but not normal, with chain level d the translations by
multiples of 2**d.  Conjugating level d by a word with doubling exponent
m moves it to level d - m at worst, whence the depth bound d + |m|.

The chain is cofinal among the finite-index subgroups of K that are
commensurated-compatible here only in the pro-2 sense: the computed
completion has K-closure Z_2 (the 2-adic integers), not all of Z-hat.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .core import CommensuratedPair, ContractViolation, Depth, DiscreteTarget


class DyadicAffine(NamedTuple):
    shift: Fraction
    texp: int


_LITERAL = re.compile(r"\(\s*(-?\d+)(?:\s*/\s*(\d+))?\s*;\s*(-?\d+)\s*\)")


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class BS12Pair(CommensuratedPair):
    name = "bs12"
    target_names = ("texp",)

    def __init__(self):
        self.generators = {
            "a": DyadicAffine(Fraction(1), 0),
            "t": DyadicAffine(Fraction(0), 1),
        }
        self.literal_pattern = _LITERAL

    @property
    def identity(self) -> DyadicAffine:
        return DyadicAffine(Fraction(0), 0)

    def mul(self, x: DyadicAffine, y: DyadicAffine) -> DyadicAffine:
        # composition of affine maps: first y, then x
        return DyadicAffine(x.shift + Fraction(2) ** x.texp * y.shift, x.texp + y.texp)

    def inv(self, x: DyadicAffine) -> DyadicAffine:
        return DyadicAffine(-(Fraction(2) ** -x.texp) * x.shift, -x.texp)

    def in_level(self, x: DyadicAffine, depth: Depth) -> bool:
        return (
            x.texp == 0
            and x.shift.denominator == 1
            and x.shift.numerator % (1 << depth) == 0
        )

    def conj_depth(self, g: DyadicAffine, depth: Depth) -> Depth:
        # every member of the coset g·N_d has the same doubling exponent
        return depth + abs(g.texp)

    def level_index(self, depth: Depth) -> int:
        return 1 << depth

    def format_element(self, x: DyadicAffine) -> str:
        return f"({x.shift}; {x.texp})"

    def parse_literal(self, text: str) -> DyadicAffine:
        m = _LITERAL.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"bs12: bad element literal {text!r}")
        num, den, texp = m.group(1), m.group(2), m.group(3)
        if den is not None and int(den) == 0:
            raise ValueError(f"bs12: zero denominator in {text!r}")
        shift = Fraction(int(num), int(den)) if den else Fraction(int(num))
        elt = DyadicAffine(shift, int(texp))
        self.validate(elt)
        return elt

    def level_rep(self, x: DyadicAffine, depth: Depth) -> str:
        # the coset x·N_d consists of (x.shift + 2**(texp+d)·z, x.texp);
        # normalize the shift into [0, 2**(texp+d))
        step = Fraction(2) ** (x.texp + depth)
        shift = x.shift - (x.shift // step) * step
        return f"({shift}; {x.texp})"

    def validate(self, x) -> None:
        if not isinstance(x, DyadicAffine):
            raise ContractViolation(f"bs12: not an affine element: {x!r}")
        if not isinstance(x.shift, Fraction) or not isinstance(x.texp, int):
            raise ContractViolation(f"bs12: malformed element fields: {x!r}")
        if not _is_power_of_two(x.shift.denominator):
            raise ContractViolation(
                f"bs12: shift {x.shift} is not a dyadic rational"
            )

    def describe(self) -> str:
        return (
            "Baumslag-Solitar group BS(1,2) = <a,t | t a t^-1 = a^2>, "
            "K = <a>, level d = <a^(2^d)> (pro-2 closure of K)"
        )

    def target(self, name: str) -> DiscreteTarget:
        """``texp``: the doubling exponent, a homomorphism onto Z killing K."""
        if name != "texp":
            return super().target(name)
        return DiscreteTarget(
            name="texp",
            phi=lambda g: g.texp,
            kill_level=0,
            combine=lambda u, v: u + v,
        )

    def sample(self, rng) -> DyadicAffine:
        num = rng.randrange(-(1 << 10), 1 << 10)
        return DyadicAffine(
            Fraction(num, 1 << rng.randrange(0, 6)), rng.randrange(-5, 6)
        )

    def sample_level(self, depth: Depth, rng) -> DyadicAffine:
        return DyadicAffine(
            Fraction((1 << depth) * rng.randrange(-(1 << 8), 1 << 8)), 0
        )


def bs12_pair() -> BS12Pair:
    """BS(1,2) with K the translation subgroup and its power-of-two chain."""
    return BS12Pair()
