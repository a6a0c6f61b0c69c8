"""SL2 over Z[1/p], filtered by principal congruence subgroups.

G is the group of determinant-one 2x2 matrices whose entries are
rationals with p-power denominators; K is its integral subgroup
SL2(Z).  Level d is the congruence kernel of reduction mod p**d.  The
conjugation bound is d + 2*v(g), where v(g) is the largest p-exponent
among the entry denominators of g: clearing denominators on both sides
of x n x^-1 costs at most p**(2v).  Right-multiplying by an integral
matrix cannot increase denominators, so the bound is uniform on cosets.

The congruence chain is not cofinal among all finite-index subgroups of
SL2(Z) (there are non-congruence ones); the computed completion is the
p-congruence completion, a dense subgroup image in SL2(Q_p).

Elements are kept as four reduced Fraction entries, but the pair computes
on integers: every denominator is a power of p, so the largest one is a
common denominator.  Products multiply the integer matrices over it and
reduce once per entry, and the chain test reads numerators directly.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple

from .core import (
    CommensuratedPair, ContractViolation, Depth, check_exact_bits, deepest_level, quoted, read_int,
    two_adic_level,
)
from .integers import PRIME_LIMIT, is_prime


class Mat2(NamedTuple):
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction


# an entry: numerator and optional denominator, each its own group
_Q = r"(-?\d+)(?:\s*/\s*(\d+))?"
_LITERAL = re.compile(
    rf"\[\s*\[\s*{_Q}\s*,\s*{_Q}\s*\]\s*,\s*\[\s*{_Q}\s*,\s*{_Q}\s*\]\s*\]"
)


def _entry(num: str, den) -> Fraction:
    """A literal entry from its regex groups; den is None for an integer."""
    return Fraction(read_int(num), read_int(den)) if den else Fraction(read_int(num))


def _mat(a, b, c, d) -> Mat2:
    return Mat2(Fraction(a), Fraction(b), Fraction(c), Fraction(d))


def _integral(x: Mat2) -> tuple[int, int, int, int, int]:
    """x as integers (a, b, c, d) over its largest denominator, and that denominator.

    Every denominator is a power of p, so the largest is a multiple of
    the others.
    """
    a, b, c, d = x
    da, db, dc, dd = a.denominator, b.denominator, c.denominator, d.denominator
    den = max(da, db, dc, dd)
    return (
        a.numerator * (den // da),
        b.numerator * (den // db),
        c.numerator * (den // dc),
        d.numerator * (den // dd),
        den,
    )


class SL2Pair(CommensuratedPair):
    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < PRIME_LIMIT or not is_prime(p):
            raise ValueError(f"p must be a prime below {PRIME_LIMIT}, got {p!r}")
        self.p = p
        self.name = f"sl2:{p}"
        self.generators = {
            "u": _mat(1, 1, 0, 1),
            "l": _mat(1, 0, 1, 1),
            "h": Mat2(Fraction(p), Fraction(0), Fraction(0), Fraction(1, p)),
        }
        self.literal_pattern = _LITERAL

    @property
    def identity(self) -> Mat2:
        return _mat(1, 0, 0, 1)

    def mul(self, x: Mat2, y: Mat2) -> Mat2:
        # (A/m)(B/n) = AB/(mn) for integer matrices A, B
        a, b, c, d, m = _integral(x)
        e, f, g, h, n = _integral(y)
        check_exact_bits(
            max(map(int.bit_length, (a, b, c, d, m))) + max(map(int.bit_length, (e, f, g, h, n)))
        )
        entries = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        den = m * n
        if den == 1:
            return Mat2(*map(Fraction, entries))
        return Mat2(*(Fraction(k, den) for k in entries))

    def inv(self, x: Mat2) -> Mat2:
        # determinant is 1, so the adjugate is the inverse
        return Mat2(x.d, -x.b, -x.c, x.a)

    def _den_exponent(self, q: Fraction) -> int:
        den, e = q.denominator, 0
        while den % self.p == 0:
            den //= self.p
            e += 1
        if den != 1:
            raise ContractViolation(
                f"{self.name}: entry {q} has a denominator outside p-powers"
            )
        return e

    def denominator_exponent(self, g: Mat2) -> int:
        """Largest p-exponent among entry denominators (same for g and g^-1).

        The largest denominator is matched against p**e for e read off
        its logarithm; every smaller p-power divides it.  When either
        check fails, each entry is factored in turn, which reports the
        first one whose denominator is not a p-power.
        """
        top = max(q.denominator for q in g)
        e = round(math.log(top, self.p))
        if self.p ** e == top and not any(top % q.denominator for q in g):
            return e
        return max(self._den_exponent(q) for q in g)

    def in_level(self, x: Mat2, depth: Depth) -> bool:
        a, b, c, d = x
        if a.denominator != 1 or b.denominator != 1 or c.denominator != 1 or d.denominator != 1:
            return False
        q = self.p ** depth
        return (
            (a.numerator - 1) % q == 0
            and b.numerator % q == 0
            and c.numerator % q == 0
            and (d.numerator - 1) % q == 0
        )

    def conj_depth(self, g: Mat2, depth: Depth) -> Depth:
        return depth + self.conj_cost(g)

    def conj_cost(self, g: Mat2) -> Depth:
        return 2 * self.denominator_exponent(g)

    def level_of(self, x: Mat2, cap: Depth) -> Depth:
        # x is in N_k exactly when p**k divides a - 1, b, c and d - 1
        a, b, c, d = x
        if a.denominator != 1 or b.denominator != 1 or c.denominator != 1 or d.denominator != 1:
            return -1
        n = math.gcd(a.numerator - 1, b.numerator, c.numerator, d.numerator - 1)
        if self.p == 2 or n == 0:
            return two_adic_level(n, cap)
        return deepest_level(lambda k: n % self.p**k == 0, cap)

    def level_index(self, depth: Depth) -> int:
        # order of SL2(Z/p^d)
        if depth == 0:
            return 1
        return self.p ** (3 * depth - 2) * (self.p * self.p - 1)

    def format_element(self, x: Mat2) -> str:
        return f"[[{x.a},{x.b}],[{x.c},{x.d}]]"

    def parse_literal(self, text: str) -> Mat2:
        m = _LITERAL.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"{self.name}: bad matrix literal {quoted(text)}")
        a, a_den, b, b_den, c, c_den, d, d_den = m.groups()
        try:
            elt = Mat2(_entry(a, a_den), _entry(b, b_den), _entry(c, c_den), _entry(d, d_den))
        except ZeroDivisionError:
            raise ValueError(f"{self.name}: zero denominator in {quoted(text)}") from None
        self.validate(elt)
        return elt

    def level_rep(self, x: Mat2, depth: Depth) -> str:
        if depth == 0 or any(q.denominator != 1 for q in x):
            return self.format_element(x)
        q = self.p ** depth
        a, b, c, d = (entry.numerator % q for entry in x)
        return f"[[{a},{b}],[{c},{d}]]"

    def validate(self, x) -> None:
        if not isinstance(x, Mat2) or not all(isinstance(q, Fraction) for q in x):
            raise ContractViolation(f"{self.name}: not a matrix element: {x!r}")
        self.denominator_exponent(x)
        a, b, c, d, den = _integral(x)
        if a * d - b * c != den * den:
            raise ContractViolation(f"{self.name}: determinant of {self.format_element(x)} is not 1")

    def describe(self) -> str:
        return (
            f"SL2(Z[1/{self.p}]) with K = SL2(Z), level d = kernel of reduction "
            f"mod {self.p}^d (congruence completion; dense in SL2(Q_{self.p}))"
        )

    def sample(self, rng) -> Mat2:
        gens = list(self.generators.values())
        out = self.identity
        for _ in range(rng.randrange(0, 7)):
            g = rng.choice(gens)
            if rng.randrange(2):
                g = self.inv(g)
            out = self.mul(out, g)
        return out

    def sample_level(self, depth: Depth, rng) -> Mat2:
        q = self.p ** depth
        out = self.identity
        for _ in range(4):
            k = q * rng.randrange(-3, 4)
            if rng.randrange(2):
                step = _mat(1, k, 0, 1)
            else:
                step = _mat(1, 0, k, 1)
            out = self.mul(out, step)
        return out
