"""Additive integers filtered by divisibility chains.

The group and the distinguished subgroup coincide (G = K = Z, written
multiplicatively by the engine), so conjugation is trivial and every
operation keeps full depth.  Two chains are offered:

* ``base:b`` — level d is the subgroup of multiples of b**d.  The
  completion this computes is the pro-b completion of Z (the inverse
  limit of Z/b**d).
* ``factorial`` — level d is the multiples of d!.  Every finite-index
  subgroup of Z contains some d!Z, so this chain is cofinal and the
  computed completion is the full profinite completion of Z.
"""

from __future__ import annotations

import math
import re

from .core import CommensuratedPair, ContractViolation, Depth, DiscreteTarget

FACTORIAL = "factorial"

_MOD_TARGET = re.compile(r"mod:(\d+)")


class IntegerChainPair(CommensuratedPair):
    """Z with chain level d = modulus(d)·Z."""

    target_names = ("mod:<m>",)

    def __init__(self, base):
        if base == FACTORIAL:
            self.base = FACTORIAL
            self.name = "zfact"
        else:
            if not isinstance(base, int) or base < 2:
                raise ValueError(f"base must be an integer >= 2, got {base!r}")
            self.base = base
            self.name = f"z{base}"

    def modulus(self, depth: Depth) -> int:
        if self.base == FACTORIAL:
            return math.factorial(depth)
        return self.base ** depth

    # group arithmetic (additive, so "product" is +)

    @property
    def identity(self) -> int:
        return 0

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
        if self.base == FACTORIAL:
            return (
                "integers under addition, level d = multiples of d! "
                "(cofinal chain: the full profinite completion of Z)"
            )
        return (
            f"integers under addition, level d = multiples of {self.base}^d "
            f"(the pro-{self.base} completion of Z)"
        )

    def target(self, name: str) -> DiscreteTarget:
        """``mod:<m>``: reduction mod m, when some level's modulus is divisible by m."""
        m = _MOD_TARGET.fullmatch(name)
        if m is None:
            return super().target(name)
        modulus = int(m.group(1))
        if modulus < 1:
            raise KeyError(f"target {name!r}: modulus must be >= 1")
        kill = self._kill_level(modulus)
        if kill is None:
            raise KeyError(
                f"target {name!r} is unavailable on {self.name}: no chain "
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
        if self.base != FACTORIAL:
            # possible iff every prime of the modulus divides the base
            residual = modulus
            while (g := math.gcd(residual, self.base)) > 1:
                residual //= g
            if residual != 1:
                return None
        d = 0
        while self.modulus(d) % modulus != 0:
            d += 1
        return d

    def sample(self, rng) -> int:
        return rng.randrange(-(1 << 34), 1 << 34)

    def sample_level(self, depth: Depth, rng) -> int:
        return self.modulus(depth) * rng.randrange(-(1 << 16), 1 << 16)


def integers_pair(base) -> IntegerChainPair:
    """Pair for Z with the base**d chain, or the d! chain for ``"factorial"``."""
    return IntegerChainPair(base)
