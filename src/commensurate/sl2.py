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
on integers: every denominator is a power of p, so the largest, p**e, is a
common denominator.  Each method reads an element once, through
``SL2Pair._read``: four integer numerators over p**e, then p**e and e.
Validation checks that reading and v(g) is its e; products multiply the
integer matrices and reduce once per entry; the chain tests read the
numerators of an integral element.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .core import (
    CommensuratedPair, ContractViolation, Depth, check_exact_bits, p_adic_level, quoted, read_int,
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


class SL2Pair(CommensuratedPair):
    constant_conj_cost = True

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

    def _read(self, x: Mat2, check: bool = True) -> tuple[int, int, int, int, int, Optional[int]]:
        """x as integers (a, b, c, d) over its common denominator p**e, then p**e and e.

        Every denominator is a power of p, so the largest, p**e, is a
        multiple of the others.  With ``check``, e is read off its
        logarithm, and the largest is matched against p**e and the others
        against it.  A mismatch means some entry's denominator is not a
        p-power, and each entry is factored in turn to name the first such
        one.  Products and chain tests read elements that were validated
        when embedded, or built from such; they skip the check, and e is
        None unless x is integral.
        """
        a, b, c, d = x
        (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
        (nc, dc), (nd, dd) = c.as_integer_ratio(), d.as_integer_ratio()
        den = max(da, db, dc, dd)
        if den == 1:
            return na, nb, nc, nd, 1, 0
        e = None
        if check:
            e = round(math.log(den, self.p))
            if self.p ** e != den or den % da or den % db or den % dc or den % dd:
                e = max(self._den_exponent(q) for q in x)
        return na * (den // da), nb * (den // db), nc * (den // dc), nd * (den // dd), den, e

    def mul(self, x: Mat2, y: Mat2) -> Mat2:
        # (A/m)(B/n) = AB/(mn) for integer matrices A, B
        a, b, c, d, m, _ = self._read(x, check=False)
        e, f, g, h, n, _ = self._read(y, check=False)
        check_exact_bits(
            max(map(int.bit_length, (a, b, c, d, m))) + max(map(int.bit_length, (e, f, g, h, n)))
        )
        den = m * n
        k, l, r, s = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        if den == 1:
            return Mat2(Fraction(k), Fraction(l), Fraction(r), Fraction(s))
        return Mat2(Fraction(k, den), Fraction(l, den), Fraction(r, den), Fraction(s, den))

    def inv(self, x: Mat2) -> Mat2:
        # determinant is 1, so the adjugate is the inverse
        return Mat2(x.d, -x.b, -x.c, x.a)

    def denominator_exponent(self, g: Mat2) -> int:
        """Largest p-exponent among entry denominators (same for g and g^-1)."""
        return self._read(g)[5]

    def in_level(self, x: Mat2, depth: Depth) -> bool:
        a, b, c, d, den, _ = self._read(x, check=False)
        if den != 1:
            return False
        q = self.p ** depth
        return (a - 1) % q == 0 and b % q == 0 and c % q == 0 and (d - 1) % q == 0

    def conj_depth(self, g: Mat2, depth: Depth) -> Depth:
        return depth + 2 * self.denominator_exponent(g)

    def level_of(self, x: Mat2, cap: Depth) -> Depth:
        # x is in N_k exactly when p**k divides a - 1, b, c and d - 1
        a, b, c, d, den, _ = self._read(x, check=False)
        if den != 1:
            return -1
        return p_adic_level(math.gcd(a - 1, b, c, d - 1), self.p, cap)

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
        a, b, c, d, den, _ = self._read(x, check=False)
        if depth == 0 or den != 1:
            return self.format_element(x)
        q = self.p ** depth
        return f"[[{a % q},{b % q}],[{c % q},{d % q}]]"

    def validate(self, x) -> None:
        if not (
            isinstance(x, Mat2) and isinstance(x.a, Fraction) and isinstance(x.b, Fraction)
            and isinstance(x.c, Fraction) and isinstance(x.d, Fraction)
        ):
            raise ContractViolation(f"{self.name}: not a matrix element: {x!r}")
        a, b, c, d, den, _ = self._read(x)
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
