"""Finite-precision arithmetic in the completion of a group along a subgroup chain.

A group G together with a descending chain of finite-index subgroups
N_0 = K >= N_1 >= N_2 >= ... of a commensurated subgroup K determines a
completion whose elements are coherent choices of cosets, one per level.
At finite precision such an element is a single exact representative plus
a depth d, read as "the left coset rep.N_d, and every coarser coset that
the chain nesting implies".  Products and inverses compute the maximal
depth the inputs can support; when no depth is attainable they fail
loudly and report the input depth that would have sufficed.

The engine is generic over :class:`CommensuratedPair`, which packages the
exact group arithmetic, the chain membership test and the conjugation
depth bound.  All values are immutable and all operations are pure, so
everything here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: Chain index: 0 is the coarsest level (the subgroup K itself), larger is finer.
Depth = int


class CompletionError(Exception):
    """Base class for completion arithmetic failures."""


class PrecisionExhausted(CompletionError):
    """An operation needed more depth than its inputs carry.

    ``required_depth`` is the smallest input depth that would have let the
    operation produce any output at all.
    """

    def __init__(self, message: str, required_depth: Depth):
        super().__init__(message)
        self.required_depth = required_depth


class ContractViolation(CompletionError):
    """An instance broke the commensurated-pair contract.

    Signals a defective instance or element data outside the instance's
    group, not a recoverable caller error.
    """


class CommensuratedPair(ABC):
    """Exact group arithmetic bundled with a subgroup chain.

    This is the only seam between an instance and the engine.  Concrete
    pairs supply the arithmetic of a group G (``identity``, :meth:`mul`,
    :meth:`inv`), a membership test :meth:`in_level` for each chain level
    N_d inside the distinguished subgroup K = N_0, and :meth:`conj_depth`.
    Every chain level must be normal in K and the chain must be nested;
    ``conj_depth`` must be monotone in the level and uniform over the
    coset it is asked about (see its docstring).  All shipped pairs
    satisfy these by construction; the test suite fuzzes them.  The other
    methods are optional: :meth:`level_index` for level displays, the text
    formats, :meth:`validate`, the samplers, and the discrete targets that
    :attr:`target_names` lists and :meth:`target` builds.

    Pairs are immutable after construction.
    """

    #: Short identifier used by the CLI and in reports.
    name: str = "pair"
    #: Deepest usable chain level, or None when the chain is unbounded.
    max_depth: Optional[Depth] = None
    #: Generator names available to the expression grammar.
    generators: dict[str, Any] = {}
    #: Regex for instance-specific literal tokens (None: only integers).
    literal_pattern: Optional[re.Pattern] = None
    #: Display names of the discrete targets :meth:`target` can build.
    target_names: tuple[str, ...] = ()

    # --- group arithmetic -------------------------------------------------

    @property
    @abstractmethod
    def identity(self) -> Any:
        """The identity element of G."""

    @abstractmethod
    def mul(self, x: Any, y: Any) -> Any:
        """Exact product x.y in G."""

    @abstractmethod
    def inv(self, x: Any) -> Any:
        """Exact inverse of x in G."""

    # --- chain ------------------------------------------------------------

    @abstractmethod
    def in_level(self, x: Any, depth: Depth) -> bool:
        """Whether x lies in the chain level N_depth."""

    @abstractmethod
    def conj_depth(self, g: Any, depth: Depth) -> Depth:
        """A level j >= depth with N_j inside both x.N_depth.x^-1 and
        x^-1.N_depth.x for *every* x in the coset g.N_depth.

        The uniformity over the coset is what makes truncated products and
        inverses well defined; monotonicity in ``depth`` is what lets the
        engine find the maximal attainable output depth with a logarithmic
        number of calls.  The value need not be least, only sound.
        """

    def level_index(self, depth: Depth) -> int:
        """The index [K : N_depth], shown for each level by the CLI."""
        raise NotImplementedError

    # --- text formats and helpers ------------------------------------------

    def format_element(self, x: Any) -> str:
        return str(x)

    def parse_literal(self, text: str) -> Any:
        raise ValueError(f"{self.name}: unsupported literal {text!r}")

    def int_literal(self, value: int) -> Any:
        """Element denoted by a bare integer literal, if the instance has one."""
        raise ValueError(f"{self.name}: integer literals are not elements here")

    def level_rep(self, x: Any, depth: Depth) -> str:
        """Display form of the coset x.N_depth (an instance-local choice)."""
        return self.format_element(x)

    def validate(self, x: Any) -> None:
        """Raise ContractViolation when x is not an element of G."""

    def describe(self) -> str:
        return self.name

    def target(self, name: str) -> "DiscreteTarget":
        """The discrete target called ``name``; KeyError with a reason otherwise."""
        raise KeyError(f"unknown target {name!r} for instance {self.name}")

    def sample(self, rng) -> Any:
        """A random element of G, for randomized test suites."""
        raise NotImplementedError

    def sample_level(self, depth: Depth, rng) -> Any:
        """A random member of N_depth, for randomized test suites."""
        raise NotImplementedError

    # --- embedding ---------------------------------------------------------

    def check_depth(self, depth: Depth) -> None:
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        if self.max_depth is not None and depth > self.max_depth:
            raise ValueError(
                f"{self.name}: chain has no level {depth} (deepest is {self.max_depth})"
            )

    def embed(self, g: Any, depth: Depth) -> "CompletionElement":
        """The image of g known at ``depth``.

        Group elements embed exactly at every level, so callers may
        re-embed the same g at any finer depth later; this is the only
        operation that mints precision.
        """
        self.check_depth(depth)
        self.validate(g)
        return CompletionElement(self, g, depth)


@dataclass(frozen=True)
class Valuation:
    """How far apart two completion elements are, as seen through the chain.

    ``depth`` is the largest level at which the cosets agree (-1 when they
    already differ at level 0).  ``indistinguishable`` is True when the
    cosets still agree at the deepest level both inputs carry.
    """

    depth: Depth
    indistinguishable: bool

    def __str__(self) -> str:
        if self.indistinguishable:
            return f"indistinguishable at depth {self.depth}"
        if self.depth < 0:
            return "disjoint at level 0"
        return str(self.depth)


def _gallop(hit: Callable[[Depth], bool], start: Depth, stop: Depth) -> Optional[Depth]:
    """First d on the walk start, start ± 1, ..., stop at which hit(d) holds, or None.

    Agrees with a linear walk whenever hit never turns false again after
    turning true.  It probes start and then 1, 3, 7, ... levels further
    (clamped to stop), then bisects the last bracket, so a first hit g
    levels in costs about 2·log2(g) + 2 calls.  The returned depth was
    probed and hit; the one before it on the walk, if any, was probed and
    missed; None means stop itself was probed and missed.
    """
    step = 1 if stop >= start else -1
    span = abs(stop - start)
    miss, reach = -1, 0  # offsets from start: last known miss, next probe
    while not hit(start + step * reach):
        if reach == span:
            return None
        miss, reach = reach, min(span, 2 * reach + 1)
    while reach - miss > 1:
        mid = (miss + reach) // 2
        if hit(start + step * mid):
            reach = mid
        else:
            miss = mid
    return start + step * reach


def _attainable_depth(pair: CommensuratedPair, g: Any, cap: Depth, budget: Depth):
    """Largest d <= cap with conj_depth(g, d) <= budget, or None.

    conj_depth is monotone in d, so the first success walking down from
    cap is the maximum; :func:`_gallop` finds it in O(log cap) calls.
    """
    return _gallop(lambda d: pair.conj_depth(g, d) <= budget, cap, 0)


@dataclass(frozen=True, eq=False)
class CompletionElement:
    """A group element known up to right multiplication by N_depth.

    Denotes the left coset rep.N_depth together with every coarser coset
    rep.N_d, d <= depth, that the chain nesting implies.  Two elements
    describe the same coset at level d exactly when rep1^-1.rep2 is in
    N_d; use :meth:`eq_at_depth`, not ``==``.
    """

    pair: CommensuratedPair
    rep: Any
    depth: Depth

    def __repr__(self) -> str:
        return f"<{self.pair.format_element(self.rep)} @ depth {self.depth}>"

    def _same_pair(self, other: "CompletionElement") -> None:
        if not isinstance(other, CompletionElement):
            raise TypeError(f"expected a CompletionElement, got {type(other).__name__}")
        if other.pair is not self.pair:
            raise ValueError("elements belong to different pairs")

    def __mul__(self, other: "CompletionElement") -> "CompletionElement":
        """Product at the maximal attainable depth.

        The output depth is the largest d <= other.depth such that
        conj_depth(other.rep, d) <= self.depth; at every level up to it the
        product coset is (rep1.rep2).N_d regardless of how either factor is
        refined.
        """
        self._same_pair(other)
        pair = self.pair
        d = _attainable_depth(pair, other.rep, other.depth, self.depth)
        if d is None:
            required = pair.conj_depth(other.rep, 0)
            raise PrecisionExhausted(
                f"product needs a left factor of depth >= {required}, "
                f"have {self.depth}",
                required_depth=required,
            )
        return CompletionElement(pair, pair.mul(self.rep, other.rep), d)

    def inverse(self) -> "CompletionElement":
        """Inverse at the maximal attainable depth.

        The output depth is the largest d with conj_depth(rep, d) <= depth:
        at such d the conjugation bound turns the known left coset into a
        left coset of the inverse.
        """
        pair = self.pair
        d = _attainable_depth(pair, self.rep, self.depth, self.depth)
        if d is None:
            required = pair.conj_depth(self.rep, 0)
            raise PrecisionExhausted(
                f"inverse needs depth >= {required}, have {self.depth}",
                required_depth=required,
            )
        return CompletionElement(pair, pair.inv(self.rep), d)

    def truncate(self, depth: Depth) -> "CompletionElement":
        """The same element seen at a coarser depth.

        Increasing depth is an error: only :meth:`CommensuratedPair.embed`
        mints precision.
        """
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        if depth > self.depth:
            raise PrecisionExhausted(
                f"cannot truncate depth {self.depth} to finer depth {depth}",
                required_depth=depth,
            )
        if depth == self.depth:
            return self
        return CompletionElement(self.pair, self.rep, depth)

    def eq_at_depth(self, other: "CompletionElement", depth: Depth) -> bool:
        """Whether both elements determine the same left coset at ``depth``."""
        self._same_pair(other)
        if depth > min(self.depth, other.depth):
            raise PrecisionExhausted(
                f"comparison at depth {depth} exceeds available depths "
                f"{self.depth} and {other.depth}",
                required_depth=depth,
            )
        pair = self.pair
        return pair.in_level(pair.mul(pair.inv(self.rep), other.rep), depth)

    def valuation(self, other: "CompletionElement") -> Valuation:
        """Largest level at which the two elements agree.

        Agreement at a level implies agreement at every coarser one, so a
        galloping search up from level 0 finds the first disagreement in
        O(log depth) comparisons.
        """
        self._same_pair(other)
        cap = min(self.depth, other.depth)
        split = _gallop(lambda d: not self.eq_at_depth(other, d), 0, cap)
        if split is None:
            return Valuation(depth=cap, indistinguishable=True)
        return Valuation(depth=split - 1, indistinguishable=False)

    def right_rep(self, depth: Depth) -> Any:
        """A representative h with N_depth.h in the denoted filter.

        The conjugation bound shows the known left coset sits inside
        N_depth.rep, so rep itself serves once that bound is within the
        available depth.
        """
        required = self.pair.conj_depth(self.rep, depth)
        if required > self.depth:
            raise PrecisionExhausted(
                f"right coset at level {depth} needs depth >= {required}, "
                f"have {self.depth}",
                required_depth=required,
            )
        return self.rep


@dataclass(frozen=True)
class DiscreteTarget:
    """A homomorphism to a group with decidable equality, evaluable at
    finite precision because the chain level ``kill_level`` lands on the
    target's identity.

    ``combine`` is the target group's product, used by callers checking
    multiplicativity.
    """

    name: str
    phi: Callable[[Any], Any]
    kill_level: Depth
    combine: Callable[[Any, Any], Any]

    def evaluate(self, f: CompletionElement) -> Any:
        """Value of the induced map on f; constant on f's coset at kill_level."""
        if f.depth < self.kill_level:
            raise PrecisionExhausted(
                f"target {self.name!r} needs depth >= {self.kill_level}, "
                f"have {f.depth}",
                required_depth=self.kill_level,
            )
        return self.phi(f.rep)
