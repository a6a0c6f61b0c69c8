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

A Mat2 stores an integer matrix over the least common denominator of its
entries, in lowest terms together.  Every denominator of an element of G
is a power of p, so that denominator is p**v(g).  Products multiply the
integer matrices and divide once by a gcd, the inverse is the adjugate
over the same denominator, the chain tests read the integers of an
element whose denominator is 1, and v(g) is read off the denominator.
Each literal entry is a ``core.RATIONAL``, read by ``core.read_ratio``
into the integers, and text is printed from them; an entry whose
denominator is not a p-power is named from them too.  Only the Fraction
face of a Mat2 builds Fractions; ``fractions`` loads on its first use.

A level rep of a matrix whose denominator is not 1 is the whole matrix,
so ``eval`` at attained depth D asks for its text D + 2 times.  The text
of the last element printed is kept, one entry keyed by its five
integers, shared by every pair and thread.
"""

from __future__ import annotations

import functools
import math
import re
from typing import TYPE_CHECKING

from .core import (
    RATIONAL, CommensuratedPair, ContractViolation, Depth, check_exact_bits, p_adic_level, quoted,
    read_ratio,
)
from .integers import PRIME_LIMIT, is_prime

if TYPE_CHECKING:
    from fractions import Fraction


class Mat2:
    """The matrix [[a, b], [c, d]] of four Fractions, stored as integers na,
    nb, nc, nd over their least common denominator den, in lowest terms.

    Mat2(a, b, c, d) takes the Fractions, .a to .d and iteration give them
    back reduced, and == and hash agree with their 4-tuple.  No method
    assigns to a Mat2 after it is built.
    """

    __slots__ = ("na", "nb", "nc", "nd", "den")

    def __init__(self, a: Fraction, b: Fraction, c: Fraction, d: Fraction):
        from fractions import Fraction

        entries = (a, b, c, d)
        for q in entries:
            if not isinstance(q, Fraction):
                raise TypeError(f"Mat2 entries must be Fractions, got {type(q).__name__}")
        # reduced entries over their lcm are in lowest terms together
        den = math.lcm(*(q.denominator for q in entries))
        self.na, self.nb, self.nc, self.nd = (q.numerator * (den // q.denominator) for q in entries)
        self.den = den

    a = property(lambda self: _entry(self.na, self.den))
    b = property(lambda self: _entry(self.nb, self.den))
    c = property(lambda self: _entry(self.nc, self.den))
    d = property(lambda self: _entry(self.nd, self.den))

    def __iter__(self):
        return iter((self.a, self.b, self.c, self.d))

    def __len__(self) -> int:
        return 4

    def __eq__(self, other):
        if isinstance(other, Mat2):
            return (self.na, self.nb, self.nc, self.nd, self.den) == (
                other.na, other.nb, other.nc, other.nd, other.den)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return "Mat2(a={!r}, b={!r}, c={!r}, d={!r})".format(*self)


def _entry(n: int, den: int) -> Fraction:
    """The entry n/den of a Mat2's Fraction face."""
    from fractions import Fraction

    return Fraction(n, den)


def _mat2(na: int, nb: int, nc: int, nd: int, den: int) -> Mat2:
    """The Mat2 with these fields, which must already be in lowest terms together."""
    x = object.__new__(Mat2)
    x.na, x.nb, x.nc, x.nd, x.den = na, nb, nc, nd, den
    return x


def _reduced(na: int, nb: int, nc: int, nd: int, den: int) -> Mat2:
    """The Mat2 of na/den, nb/den, nc/den and nd/den, for den > 0."""
    q = math.gcd(den, na, nb, nc, nd)
    if q == 1:
        return _mat2(na, nb, nc, nd, den)
    return _mat2(na // q, nb // q, nc // q, nd // q, den // q)


_ROW = rf"\[\s*{RATIONAL}\s*,\s*{RATIONAL}\s*\]"
_LITERAL = re.compile(rf"\[\s*{_ROW}\s*,\s*{_ROW}\s*\]")
# how an element and a level rep are printed
_LAYOUT = "[[{},{}],[{},{}]]"


@functools.lru_cache(maxsize=1)  # the text depends only on the five integers
def _spelled(na: int, nb: int, nc: int, nd: int, den: int) -> str:
    """The text of na/den, nb/den, nc/den and nd/den, each as str(Fraction) spells it."""
    entries = []
    for n in (na, nb, nc, nd):
        q = math.gcd(n, den)
        entries.append(str(n // q) if q == den else f"{n // q}/{den // q}")
    return _LAYOUT.format(*entries)


class SL2Pair(CommensuratedPair):
    identity = _mat2(1, 0, 0, 1, 1)
    literal_pattern = _LITERAL
    constant_conj_cost = True

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"p must be a prime below {PRIME_LIMIT}, got {p!r}")
        self.p = p
        self.name = f"sl2:{p}"
        self.generators = {
            "u": _mat2(1, 1, 0, 1, 1),
            "l": _mat2(1, 0, 1, 1, 1),
            "h": _mat2(p * p, 0, 0, 1, p),
        }

    def mul(self, x: Mat2, y: Mat2) -> Mat2:
        # (A/m)(B/n) = AB/(mn) for integer matrices A, B
        a, b, c, d, m = x.na, x.nb, x.nc, x.nd, x.den
        e, f, g, h, n = y.na, y.nb, y.nc, y.nd, y.den
        check_exact_bits(
            max(a.bit_length(), b.bit_length(), c.bit_length(), d.bit_length(), m.bit_length())
            + max(e.bit_length(), f.bit_length(), g.bit_length(), h.bit_length(), n.bit_length())
        )
        return _reduced(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h, m * n)

    def inv(self, x: Mat2) -> Mat2:
        # determinant is 1, so the adjugate is the inverse
        return _mat2(x.nd, -x.nb, -x.nc, x.na, x.den)

    def denominator_exponent(self, g: Mat2) -> int:
        """v(g), the largest p-exponent among entry denominators (same for g and g^-1).

        It is e with g.den = p**e: the lowest set bit for p = 2, else a
        logarithm (exact on every p-power that fits in memory) checked
        against p**e.  On a mismatch den has a part r > 1 prime to p, and
        the first entry n/den that r does not divide is named, reduced.
        """
        den, p = g.den, self.p
        if den == 1:
            return 0
        e = (den & -den).bit_length() - 1 if p == 2 else round(math.log(den, p))
        if p ** e != den:
            r = den // p ** p_adic_level(den, p, den)
            n, q = next((n, math.gcd(n, den)) for n in (g.na, g.nb, g.nc, g.nd) if n % r)
            raise ContractViolation(
                f"{self.name}: entry {n // q}/{den // q} has a denominator outside p-powers")
        return e

    def in_level(self, x: Mat2, depth: Depth) -> bool:
        if x.den != 1:
            return False
        q = self.p ** depth
        return (x.na - 1) % q == 0 and x.nb % q == 0 and x.nc % q == 0 and (x.nd - 1) % q == 0

    def conj_depth(self, g: Mat2, depth: Depth) -> Depth:
        return depth + 2 * self.denominator_exponent(g)

    def level_of(self, x: Mat2, cap: Depth) -> Depth:
        # x is in N_k exactly when p**k divides a - 1, b, c and d - 1
        if x.den != 1:
            return -1
        return p_adic_level(math.gcd(x.na - 1, x.nb, x.nc, x.nd - 1), self.p, cap)

    def level_index(self, depth: Depth) -> int:
        # order of SL2(Z/p^d)
        self.check_depth(depth)
        if depth == 0:
            return 1
        return self.p ** (3 * depth - 2) * (self.p * self.p - 1)

    def level_generators(self, depth: Depth) -> list:
        # u^2, l^2 and -I generate level 1 at p = 2.  Otherwise u^q, l^q and
        # I + q·[[1, 1], [-1, -1]] span K(d)/K(d+1) ≅ sl2(F_p); K(d) is uniform, so they
        # generate it topologically (Dixon, du Sautoy, Mann and Segal, Analytic pro-p groups)
        self.check_depth(depth)
        if depth == 0:
            return [self.generators["u"], self.generators["l"]]  # SL2(Z)
        q = self.p ** depth
        third = _mat2(-1, 0, 0, -1, 1) if q == 2 else _mat2(1 + q, q, -q, 1 - q, 1)
        return [_mat2(1, q, 0, 1, 1), _mat2(1, 0, q, 1, 1), third]

    def format_element(self, x: Mat2) -> str:
        return _spelled(x.na, x.nb, x.nc, x.nd, x.den)

    def parse_literal(self, text: str) -> Mat2:
        m = _LITERAL.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"{self.name}: bad matrix literal {quoted(text)}")
        (a, p), (b, q), (c, r), (d, s) = (
            read_ratio(*m.group(i, i + 1), self.name, text) for i in (1, 3, 5, 7))
        den = math.lcm(p, q, r, s)
        elt = _reduced(a * (den // p), b * (den // q), c * (den // r), d * (den // s), den)
        self.validate(elt)
        return elt

    def level_rep(self, x: Mat2, depth: Depth) -> str:
        self.check_depth(depth)
        if depth == 0 or x.den != 1:
            return self.format_element(x)
        q = self.p ** depth
        return _LAYOUT.format(x.na % q, x.nb % q, x.nc % q, x.nd % q)

    def validate(self, x) -> None:
        if not isinstance(x, Mat2):
            raise ContractViolation(f"{self.name}: not a matrix element: {x!r}")
        self.denominator_exponent(x)
        if x.na * x.nd - x.nb * x.nc != x.den * x.den:
            raise ContractViolation(f"{self.name}: determinant of {self.format_element(x)} is not 1")

    def describe(self) -> str:
        return (
            f"SL2(Z[1/{self.p}]) with K = SL2(Z), level d = kernel of reduction "
            f"mod {self.p}^d (congruence completion; dense in SL2(Q_{self.p}))"
        )
