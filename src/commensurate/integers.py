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

from .core import CommensuratedPair, ContractViolation, Depth

FACTORIAL = "factorial"


class IntegerChainPair(CommensuratedPair):
    """Z with chain level d = modulus(d)·Z."""

    def __init__(self, base):
        if base == FACTORIAL:
            self.base = FACTORIAL
            self.name = "zfact"
        else:
            if not isinstance(base, int) or base < 2:
                raise ValueError(f"base must be an integer >= 2, got {base!r}")
            self.base = base
            self.name = f"z{base}"
        self.max_depth = None
        self.generators = {}
        self.literal_pattern = None

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

    def format_element(self, x: int) -> str:
        return str(x)

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

    def sample(self, rng) -> int:
        return rng.randrange(-(1 << 34), 1 << 34)

    def sample_level(self, depth: Depth, rng) -> int:
        return self.modulus(depth) * rng.randrange(-(1 << 16), 1 << 16)


def integers_pair(base) -> IntegerChainPair:
    """Pair for Z with the base**d chain, or the d! chain for ``"factorial"``."""
    return IntegerChainPair(base)
