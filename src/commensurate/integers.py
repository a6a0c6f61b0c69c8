"""Additive integers filtered by divisibility chains.

The group and the distinguished subgroup coincide (G = K = Z, written
multiplicatively by the engine), so conjugation is trivial and every
operation keeps full depth.  Two chains are offered:

* ``z<base>`` (:class:`IntegerChainPair`) — level d is the multiples of
  base**d, and the completion is the pro-base completion of Z (the
  inverse limit of Z/base**d).
* ``zfact`` (:class:`FactorialChainPair`) — level d is the multiples of
  d!, a chain cofinal among the finite-index subgroups of Z, so the
  completion is the full profinite completion of Z.
"""

from __future__ import annotations

import math
import re
from typing import Callable

from .core import (
    CommensuratedPair, ContractViolation, Depth, DiscreteTarget, p_adic_level, quoted, read_int,
)

_MOD_TARGET = re.compile(r"mod:(\d+)")

#: Trial division bound for factoring ``mod:<m>`` moduli on the d! chain.
_TRIAL_LIMIT = 1 << 16


# Miller-Rabin with the first 13 primes as bases is exact below this bound.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Whether p is prime, decided exactly; False outside 2 <= p < PRIME_LIMIT."""
    if not 2 <= p < PRIME_LIMIT:
        return False
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


def _factorise(m: int) -> dict[int, int]:
    """{p: a} with m the product of the p**a; ValueError when it cannot tell.

    Trial division runs up to _TRIAL_LIMIT.  A cofactor left over has no
    prime factor below that bound, so it is prime when it is below the
    bound squared or when Miller-Rabin proves it; otherwise it is refused.
    """
    out: dict[int, int] = {}
    rest, p = m, 2
    while p < _TRIAL_LIMIT and p * p <= rest:
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
        p += 1 if p == 2 else 2
    if rest > 1:
        if rest >= _TRIAL_LIMIT**2 and not is_prime(rest):
            raise ValueError(
                f"cannot factor the modulus {m}: {rest} has no prime factor "
                f"below {_TRIAL_LIMIT} and is not provably prime"
            )
        out[rest] = 1
    return out


def _legendre(d: int, p: int) -> int:
    """The exponent of the prime p in d! (Legendre's formula)."""
    v = 0
    while d:
        d //= p
        v += d
    return v


def _chain_level(x: int, cap: Depth, step: Callable[[Depth, Depth], int]) -> Depth:
    """The deepest d <= cap with modulus(d) dividing x, on a chain whose
    step(d, s) = modulus(d + s) / modulus(d) is an integer.

    Steps of 1, 2, 4, ... levels are divided out of the quotient
    x / modulus(d) while they divide it and fit under cap; then the step
    halves down to 1, dividing out each that does.  That is about
    2·log2(d) divisions, none by a step past modulus(2d + 1).
    """
    if x == 0:
        return cap
    d, s, climbing = 0, 1, True
    while s:
        q, r = divmod(x, step(d, s)) if d + s <= cap else (x, 1)
        if not r:
            x, d = q, d + s
        climbing = climbing and not r
        s = 2 * s if climbing else s // 2
    return d


class IntegerChainPair(CommensuratedPair):
    """Z with chain level d = base**d·Z."""

    target_names = ("mod:<m>",)
    constant_conj_cost = True

    def __init__(self, base: int):
        if not isinstance(base, int) or base < 2:
            raise ValueError(f"base must be an integer >= 2, got {base!r}")
        self.base = base
        self.name = f"z{base}"
        # a prime base's levels are read off the p-adic valuation
        self._prime = is_prime(base)

    def modulus(self, depth: Depth) -> int:
        return self.base ** depth

    def step(self, depth: Depth, span: Depth) -> int:
        return self.base ** span

    # group arithmetic (additive, so "product" is +)

    identity = 0

    def mul(self, x: int, y: int) -> int:
        return x + y

    def inv(self, x: int) -> int:
        return -x

    # chain

    def in_level(self, x: int, depth: Depth) -> bool:
        return x % self.modulus(depth) == 0

    def conj_depth(self, g: int, depth: Depth) -> Depth:
        # abelian: conjugation fixes every subgroup
        return depth

    def level_of(self, x: int, cap: Depth) -> Depth:
        if self._prime:
            return p_adic_level(x, self.base, cap)
        return _chain_level(x, cap, self.step)

    def level_index(self, depth: Depth):
        return self.modulus(depth)

    # text formats

    def int_literal(self, value: int) -> int:
        return value

    def level_rep(self, x: int, depth: Depth) -> str:
        return str(x % self.modulus(depth))

    def validate(self, x) -> None:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ContractViolation(f"{self.name}: not an integer element: {x!r}")

    def describe(self) -> str:
        return (
            f"integers under addition, level d = multiples of {self.base}^d "
            f"(the pro-{self.base} completion of Z)"
        )

    def target(self, name: str) -> DiscreteTarget:
        """``mod:<m>``: reduction mod m, when some level's modulus is divisible by m."""
        m = _MOD_TARGET.fullmatch(name)
        if m is None:
            return super().target(name)
        modulus = read_int(m.group(1), "target name")
        if modulus < 1:
            raise ValueError(f"target {quoted(name)}: modulus must be >= 1")
        kill = self._kill_level(modulus)
        if kill is None:
            raise ValueError(
                f"target {quoted(name)} is unavailable on {self.name}: no chain "
                f"level has a modulus divisible by {modulus}"
            )
        return DiscreteTarget(
            name=name,
            phi=lambda x: x % modulus,
            kill_level=kill,
            combine=lambda u, v: (u + v) % modulus,
        )

    def _kill_level(self, modulus: int):
        """Least level whose modulus m divides, or None when there is none."""
        # after d steps the residual is m / gcd(m, base**d), so the count
        # at residual 1 is the least d with m | base**d; a step with gcd 1
        # means some prime of m does not divide the base
        d, residual = 0, modulus
        while residual != 1:
            g = math.gcd(residual, self.base)
            if g == 1:
                return None
            residual //= g
            d += 1
        return d

    def sample(self, rng) -> int:
        return rng.randrange(-(1 << 34), 1 << 34)

    def sample_level(self, depth: Depth, rng) -> int:
        return self.modulus(depth) * rng.randrange(-(1 << 16), 1 << 16)


class FactorialChainPair(IntegerChainPair):
    """Z with chain level d = d!·Z.  modulus and step are static, for other d! chains to
    call unbound; mul, inv, in_level and conj_depth stay where bench/tracing.py counts them."""

    name = "zfact"

    def __init__(self):
        self._prime = False  # no base to check, and levels are read by the quotient walk

    modulus = staticmethod(math.factorial)

    @staticmethod
    def step(depth: Depth, span: Depth) -> int:
        return math.perm(depth + span, span)

    def describe(self) -> str:
        return (
            "integers under addition, level d = multiples of d! "
            "(cofinal chain: the full profinite completion of Z)"
        )

    def _kill_level(self, modulus: int) -> int:
        # p**a divides d! iff v_p(d!) >= a, and the least such d is a
        # multiple of p: the answer is the largest of those over p**a || m
        levels = [0]
        for p, a in _factorise(modulus).items():
            k = 1
            while _legendre(p * k, p) < a:
                k += 1
            levels.append(p * k)
        return max(levels)
