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
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .core import CommensuratedPair, ContractViolation, Depth


class Mat2(NamedTuple):
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction


_Q = r"-?\d+(?:\s*/\s*\d+)?"
_LITERAL = re.compile(
    rf"\[\s*\[\s*({_Q})\s*,\s*({_Q})\s*\]\s*,\s*\[\s*({_Q})\s*,\s*({_Q})\s*\]\s*\]"
)


def _mat(a, b, c, d) -> Mat2:
    return Mat2(Fraction(a), Fraction(b), Fraction(c), Fraction(d))


# Miller-Rabin with the first 13 primes as bases is exact below this bound.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic primality for 2 <= p < _PRIME_LIMIT."""
    for a in _PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class SL2Pair(CommensuratedPair):
    def __init__(self, p: int):
        if not isinstance(p, int) or not 2 <= p < _PRIME_LIMIT or not _is_prime(p):
            raise ValueError(f"p must be a prime below {_PRIME_LIMIT}, got {p!r}")
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
        return Mat2(
            x.a * y.a + x.b * y.c,
            x.a * y.b + x.b * y.d,
            x.c * y.a + x.d * y.c,
            x.c * y.b + x.d * y.d,
        )

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
        """Largest p-exponent among entry denominators (same for g and g^-1)."""
        return max(self._den_exponent(q) for q in g)

    def in_level(self, x: Mat2, depth: Depth) -> bool:
        if any(q.denominator != 1 for q in x):
            return False
        q = self.p ** depth
        return (
            (x.a - 1) % q == 0
            and x.b % q == 0
            and x.c % q == 0
            and (x.d - 1) % q == 0
        )

    def conj_depth(self, g: Mat2, depth: Depth) -> Depth:
        return depth + 2 * self.denominator_exponent(g)

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
            raise ValueError(f"{self.name}: bad matrix literal {text!r}")
        try:
            elt = Mat2(*(Fraction(g.replace(" ", "")) for g in m.groups()))
        except ZeroDivisionError:
            raise ValueError(f"{self.name}: zero denominator in {text!r}") from None
        self.validate(elt)
        return elt

    def level_rep(self, x: Mat2, depth: Depth) -> str:
        if depth == 0 or any(q.denominator != 1 for q in x):
            return self.format_element(x)
        q = self.p ** depth
        return f"[[{x.a % q},{x.b % q}],[{x.c % q},{x.d % q}]]"

    def validate(self, x) -> None:
        if not isinstance(x, Mat2) or not all(isinstance(q, Fraction) for q in x):
            raise ContractViolation(f"{self.name}: not a matrix element: {x!r}")
        for q in x:
            self._den_exponent(q)
        if x.a * x.d - x.b * x.c != 1:
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


def sl2_pair(p: int) -> SL2Pair:
    """SL2(Z[1/p]) over SL2(Z) with the mod-p**d congruence chain."""
    return SL2Pair(p)
