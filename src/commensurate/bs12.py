"""The Baumslag-Solitar group BS(1,2) acting affinely on dyadic rationals.

Elements are affine maps x -> 2**m * x + r with r a dyadic rational,
stored as the pair (r, m).  The generators are the translation
a = (1, 0) and the doubling map t = (0, 1); they satisfy t a t^-1 = a^2.
The distinguished subgroup is the translation lattice K = {(z, 0)},
commensurated but not normal, with chain level d the translations by
multiples of 2**d.  Conjugating level d by a word with doubling exponent
m moves it to level d - m at worst, whence the depth bound d + |m|.

The levels 2**d·Z are cofinal only among the subgroups of K of 2-power
index.  So K closes to Z_2 (the 2-adic integers), not to Z-hat, and this
instance computes a proper quotient of the completion G-hat_K.

Shifts are Fractions; the identity, generators and ``texp`` target are
built at import.  A product or an inverse builds one Fraction when the
shift it moves is nonzero and none otherwise.  A level rep reduces the
shift's numerator on integers and builds one Fraction to print it.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .core import (
    RATIONAL, CommensuratedPair, ContractViolation, Depth, DiscreteTarget, check_exact_bits,
    p_adic_level, quoted, read_int, read_ratio,
)


class DyadicAffine(NamedTuple):
    shift: Fraction
    texp: int


_LITERAL = re.compile(rf"\(\s*{RATIONAL}\s*;\s*(-?\d+)\s*\)")

_TEXP = DiscreteTarget(name="texp", phi=lambda g: g.texp, kill_level=0, combine=lambda u, v: u + v)


def _shifted(base: Fraction | int, num: int, den: int, texp: int) -> Fraction:
    """base + 2**texp · num/den, refused before it is built when too large.

    Both denominators are powers of two, 2**i and 2**j say, so 2**s with
    s = max(i, j - texp) is a common one, and one Fraction is built.
    """
    check_exact_bits(abs(texp) + max(num.bit_length(), den.bit_length()))
    i, e = base.denominator.bit_length() - 1, texp - den.bit_length() + 1
    s = max(i, -e)
    return Fraction((base.numerator << (s - i)) + (num << (s + e)), 1 << s)


class BS12Pair(CommensuratedPair):
    name = "bs12"
    identity = DyadicAffine(Fraction(0), 0)
    generators = {"a": DyadicAffine(Fraction(1), 0), "t": DyadicAffine(Fraction(0), 1)}
    literal_pattern = _LITERAL
    target_names = ("texp",)
    constant_conj_cost = True

    def mul(self, x: DyadicAffine, y: DyadicAffine) -> DyadicAffine:
        # first y, then x; a zero shift needs no 2**texp, which may be huge
        s = y.shift
        shift = _shifted(x.shift, s.numerator, s.denominator, x.texp) if s else x.shift
        return DyadicAffine(shift, x.texp + y.texp)

    def inv(self, x: DyadicAffine) -> DyadicAffine:
        s = x.shift
        shift = _shifted(0, -s.numerator, s.denominator, -x.texp) if s else s
        return DyadicAffine(shift, -x.texp)

    def in_level(self, x: DyadicAffine, depth: Depth) -> bool:
        return (
            x.texp == 0
            and x.shift.denominator == 1
            and x.shift.numerator % (1 << depth) == 0
        )

    def conj_depth(self, g: DyadicAffine, depth: Depth) -> Depth:
        # every member of the coset g·N_d has the same doubling exponent
        return depth + abs(g.texp)

    def level_of(self, x: DyadicAffine, cap: Depth) -> Depth:
        if x.texp or x.shift.denominator != 1:
            return -1
        return p_adic_level(x.shift.numerator, 2, cap)

    def level_index(self, depth: Depth) -> int:
        self.check_depth(depth)
        return 1 << depth

    def level_generators(self, depth: Depth) -> list:
        self.check_depth(depth)
        return [DyadicAffine(Fraction(1 << depth), 0)]

    def format_element(self, x: DyadicAffine) -> str:
        return f"({x.shift}; {x.texp})"

    def parse_literal(self, text: str) -> DyadicAffine:
        m = _LITERAL.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"bs12: bad element literal {quoted(text)}")
        num, den, texp = m.groups()
        elt = DyadicAffine(Fraction(*read_ratio(num, den, "bs12", text)), read_int(texp))
        self.validate(elt)
        return elt

    def level_rep(self, x: DyadicAffine, depth: Depth) -> str:
        self.check_depth(depth)
        # x·N_d is (x.shift + 2**(texp + d)·z, x.texp); with the shift n/2**k,
        # reduce n mod 2**m for m = texp + d + k, which leaves 0 when m <= 0
        n, den = x.shift.numerator, x.shift.denominator
        m = x.texp + depth + den.bit_length() - 1
        if m <= 0:
            n = 0
        elif n < 0 or n.bit_length() > m:  # else 0 <= n < 2**m already
            if n.bit_length() < m > 4 * sys.get_int_max_str_digits() > 0:  # 2**m + n is too long
                raise ValueError("the level rep exceeds the display limit")
            n %= 1 << m
        return self.format_element(DyadicAffine(Fraction(n, den), x.texp))

    def validate(self, x) -> None:
        if not isinstance(x, DyadicAffine):
            raise ContractViolation(f"bs12: not an affine element: {x!r}")
        if (
            not isinstance(x.shift, Fraction)
            or not isinstance(x.texp, int)
            or isinstance(x.texp, bool)
        ):
            raise ContractViolation(f"bs12: malformed element fields: {x!r}")
        den = x.shift.denominator
        if den & (den - 1):  # a Fraction's denominator is positive
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
        return _TEXP if name == "texp" else super().target(name)

    def sample(self, rng) -> DyadicAffine:
        num = rng.randrange(-(1 << 10), 1 << 10)
        return DyadicAffine(
            Fraction(num, 1 << rng.randrange(0, 6)), rng.randrange(-5, 6)
        )
