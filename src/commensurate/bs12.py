"""The Baumslag-Solitar group BS(1,2) acting affinely on dyadic rationals.

Elements are affine maps x -> 2**m * x + r with r a dyadic rational,
written as the pair (r, m).  The generators are the translation
a = (1, 0) and the doubling map t = (0, 1); they satisfy t a t^-1 = a^2.
The distinguished subgroup is the translation lattice K = {(z, 0)},
commensurated but not normal, with chain level d the translations by
multiples of 2**d.  Conjugating level d by a word with doubling exponent
m moves it to level d - m at worst, whence the depth bound d + |m|.

The levels 2**d·Z are cofinal only among the subgroups of K of 2-power
index.  So K closes to Z_2 (the 2-adic integers), not to Z-hat, and this
instance computes a proper quotient of the completion G-hat_K.

A DyadicAffine stores the map x -> 2**texp * x + num/2**k as the three
integers num, k and texp, with num odd or k = 0: the shift's numerator
and the exponent of its denominator, in lowest terms.  A product adds
two shifts over the larger denominator exponent and cancels the powers
of two the sum gains, an inverse negates the shift and moves its
exponent by texp, and the chain tests read num when k and texp are 0.
Literals are read into integers by ``core.read_ratio`` and refused from
them, text is printed from them, and ``core.check_exact_bits`` bounds a
level rep as it bounds a product.  Only the Fraction face loads fractions;
its constructor refuses any non-element, so validate is one type test.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING

from .core import (
    RATIONAL, CommensuratedPair, ContractViolation, Depth, DiscreteTarget, check_exact_bits,
    p_adic_level, quoted, read_int, read_ratio,
)

if TYPE_CHECKING:
    from fractions import Fraction


class DyadicAffine:
    """The affine map x -> 2**texp * x + shift, stored as the integers num,
    k and texp with shift = num/2**k, num odd or k = 0.

    DyadicAffine(shift, texp) takes a dyadic Fraction shift and an int texp
    and raises ContractViolation on anything else.  .shift gives the shift
    back reduced, and iteration, len, == and hash are those of the 2-tuple
    (shift, texp), as when DyadicAffine was a NamedTuple.  No method assigns
    to a DyadicAffine after it is built.
    """

    __slots__ = ("num", "k", "texp")

    def __init__(self, shift: Fraction, texp: int):
        from fractions import Fraction

        if not isinstance(shift, Fraction) or not isinstance(texp, int) or isinstance(texp, bool):
            fields = f"DyadicAffine(shift={shift!r}, texp={texp!r})"
            raise ContractViolation(f"bs12: malformed element fields: {fields}")
        den = shift.denominator
        if den & (den - 1):
            raise ContractViolation(f"bs12: shift {shift} is not a dyadic rational")
        self.num, self.k, self.texp = shift.numerator, den.bit_length() - 1, texp

    @property
    def shift(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.num, 1 << self.k)

    def __iter__(self):
        return iter((self.shift, self.texp))

    def __len__(self) -> int:
        return 2

    def __eq__(self, other):
        if isinstance(other, DyadicAffine):
            return (self.num, self.k, self.texp) == (other.num, other.k, other.texp)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"DyadicAffine(shift={self.shift!r}, texp={self.texp!r})"


def _affine(num: int, k: int, texp: int) -> DyadicAffine:
    """The DyadicAffine with these fields, which must already be in lowest terms."""
    x = object.__new__(DyadicAffine)
    x.num, x.k, x.texp = num, k, texp
    return x


def _reduced(num: int, k: int, texp: int) -> DyadicAffine:
    """The DyadicAffine of the shift num/2**k, for k >= 0, in lowest terms."""
    z = min(k, (num & -num).bit_length() - 1) if num else k
    return _affine(num >> z, k - z, texp)


def _text(num: int, k: int, texp: int) -> str:
    """An element's text, its shift num/2**k spelled as str(Fraction) spells it."""
    return f"({num}; {texp})" if k == 0 else f"({num}/{1 << k}; {texp})"


_LITERAL = re.compile(rf"\(\s*{RATIONAL}\s*;\s*(-?\d+)\s*\)")

_TEXP = DiscreteTarget(name="texp", phi=lambda g: g.texp, kill_level=0, combine=lambda u, v: u + v)


class BS12Pair(CommensuratedPair):
    name = "bs12"
    identity = _affine(0, 0, 0)
    generators = {"a": _affine(1, 0, 0), "t": _affine(0, 0, 1)}
    literal_pattern = _LITERAL
    target_names = ("texp",)
    constant_conj_cost = True

    def mul(self, x: DyadicAffine, y: DyadicAffine) -> DyadicAffine:
        # first y, then x: the shift is a/2**i + b/2**j for x.shift = a/2**i,
        # y.shift = b/2**k and j = k - x.texp.  A zero b needs no 2**texp,
        # which may be huge; the bound sees the shift being moved.
        a, i, b, k, texp = x.num, x.k, y.num, y.k, x.texp + y.texp
        if not b:
            return _affine(a, i, texp)
        check_exact_bits(abs(x.texp) + max(b.bit_length(), k + 1))
        j = k - x.texp
        s = max(i, j)  # the sum's denominator exponent, before cancelling
        if s <= 0:
            return _affine(a + (b << -j), 0, texp)
        n = (a << (s - i)) + (b << (s - j))
        return _affine(n, s, texp) if n & 1 else _reduced(n, s, texp)

    def inv(self, x: DyadicAffine) -> DyadicAffine:
        # x^-1 maps v to 2**-texp · v - num/2**(k + texp)
        n, k, texp = x.num, x.k, x.texp
        if not n:
            return _affine(0, 0, -texp)
        check_exact_bits(abs(texp) + max(n.bit_length(), k + 1))
        e = k + texp
        if e <= 0:
            return _affine(-n << -e, 0, -texp)
        return _affine(-n, e, -texp) if n & 1 else _reduced(-n, e, -texp)

    def in_level(self, x: DyadicAffine, depth: Depth) -> bool:
        return x.texp == 0 and x.k == 0 and x.num % (1 << depth) == 0

    def conj_depth(self, g: DyadicAffine, depth: Depth) -> Depth:
        # every member of the coset g·N_d has the same doubling exponent
        return depth + abs(g.texp)

    def level_of(self, x: DyadicAffine, cap: Depth) -> Depth:
        if x.texp or x.k:
            return -1
        return p_adic_level(x.num, 2, cap)

    def level_index(self, depth: Depth) -> int:
        self.check_depth(depth)
        return 1 << depth

    def level_generators(self, depth: Depth) -> list:
        self.check_depth(depth)
        return [_affine(1 << depth, 0, 0)]

    def format_element(self, x: DyadicAffine) -> str:
        return _text(x.num, x.k, x.texp)

    def parse_literal(self, text: str) -> DyadicAffine:
        m = _LITERAL.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"bs12: bad element literal {quoted(text)}")
        num, den, texp = m.groups()
        n, d = read_ratio(num, den, "bs12", text)
        texp = read_int(texp)
        q = math.gcd(n, d)
        n, d = n // q, d // q
        if d & (d - 1):
            raise ContractViolation(f"bs12: shift {n}/{d} is not a dyadic rational")
        return _affine(n, d.bit_length() - 1, texp)

    def level_rep(self, x: DyadicAffine, depth: Depth) -> str:
        self.check_depth(depth)
        # x·N_d is (x.shift + 2**(texp + d)·z, x.texp); with the shift n/2**k,
        # reduce n mod 2**m for m = texp + d + k, which leaves 0 when m <= 0.
        # An odd n stays odd, so the rep's shift n/2**k is in lowest terms.
        n, k = x.num, x.k
        m = x.texp + depth + k
        if m <= 0:
            n = k = 0
        elif n < 0 or n.bit_length() > m:  # else 0 <= n < 2**m already
            if n.bit_length() < m:  # n < 0, and 2**m + n is m bits long
                check_exact_bits(m)
            n %= 1 << m
        return _text(n, k, x.texp)

    def validate(self, x) -> None:
        if not isinstance(x, DyadicAffine):
            raise ContractViolation(f"bs12: not an affine element: {x!r}")

    def describe(self) -> str:
        return (
            "Baumslag-Solitar group BS(1,2) = <a,t | t a t^-1 = a^2>, "
            "K = <a>, level d = <a^(2^d)> (pro-2 closure of K)"
        )

    def target(self, name: str) -> DiscreteTarget:
        """``texp``: the doubling exponent, a homomorphism onto Z killing K."""
        return _TEXP if name == "texp" else super().target(name)

    def sample(self, rng) -> DyadicAffine:
        return _reduced(rng.randrange(-(1 << 10), 1 << 10), rng.randrange(0, 6), rng.randrange(-5, 6))
