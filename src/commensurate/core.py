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
exact group arithmetic, the chain membership test and the generators of
each level.  All values are immutable and all operations are pure, so
everything here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
import re
import sys
from abc import ABC, abstractmethod
from typing import Any, Callable, NamedTuple, Optional

#: Chain index: 0 is the coarsest level (the subgroup K itself), larger is finer.
Depth = int

#: Levels the derived conj_depth searches past depth on an unbounded chain, which has no end.
CONJ_SPAN = 1 << 16

#: Largest bit size of an exact product that an instance builds.  Products
#: near it take about 0.1 s (an sl2:3 square, Python 3.11); each doubling
#: past it costs about four times more, until memory runs out.
MAX_EXACT_BITS = 1 << 18


def check_exact_bits(bits: int) -> None:
    """Refuse, before it is built, an exact product of more than MAX_EXACT_BITS bits."""
    if bits > MAX_EXACT_BITS:
        raise ValueError(f"exact product exceeds the bound of {MAX_EXACT_BITS} bits")


def quoted(text: str) -> str:
    """An error message's quote of user text: the repr of its first 60 characters."""
    return repr(text[:60])


def read_int(text: str, where: str = "", malformed: str = "", error=ValueError) -> int:
    """The integer ``text`` spells, read as ``int()`` reads it.

    Both refusals raise the caller's exception class ``error``.  Text that
    ``int()`` reads once Python's int conversion limit is lifted is refused
    for its length: ``{where}: integer exceeds the limit of N digits``.
    Any other text raises the caller's ``malformed`` message.
    """
    try:
        return int(text)
    except ValueError:
        try:  # with each number cut to one digit, int() judges its form alone
            int(re.sub(r"\d+(?:_\d+)*", "0", text))
        except ValueError:
            raise error(malformed) from None
    limit = sys.get_int_max_str_digits()
    prefix = f"{where}: " if where else ""
    raise error(f"{prefix}integer exceeds the limit of {limit} digits") from None


#: A rational literal entry ``n`` or ``n/d``: numerator and optional denominator groups.
RATIONAL = r"(-?\d+)(?:\s*/\s*(\d+))?"


def read_ratio(num: str, den: Optional[str], owner: str, text: str) -> tuple[int, int]:
    """The numerator and denominator (1 when absent) of a RATIONAL entry of the
    literal ``text``, read in that order, as ``Fraction`` reads them."""
    n, d = read_int(num), read_int(den) if den else 1
    if d == 0:
        raise ValueError(f"{owner}: zero denominator in {quoted(text)}")
    return n, d


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
    N_d inside the distinguished subgroup K = N_0, and the generators
    :meth:`level_generators` of each level.  Every level must be normal in
    K and the chain nested; the test suite fuzzes the shipped pairs.
    ``in_level`` and ``conj_depth`` may trust their depth, which the engine
    checks first; ``level_generators`` refuses one that :meth:`check_depth`
    refuses.  Optional methods: :meth:`level_index` for level displays, the
    text formats (:meth:`parse_literal` is the one reader of literal text),
    :meth:`validate`, and the discrete targets that :attr:`target_names`
    lists and :meth:`target` builds.

    Two optional parts answer the engine's depth questions in closed
    form.  :attr:`constant_conj_cost` says that conj_depth(g, d) =
    d + conj_depth(g, 0) at every d; then a product, an inverse or a power
    reads the cost with one conj_depth call, and otherwise searches it in
    O(log depth) calls per factor.  :meth:`level_of` gives the deepest
    chain level containing an element; the default searches in_level in
    O(log depth) calls, and an override must agree with it exactly.

    Pairs are immutable after construction.  Fixed data (``identity``,
    :attr:`generators`, :attr:`literal_pattern`) may be class attributes,
    shared by every pair of the class; a class attribute satisfies the
    abstract ``identity`` property.
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
    #: Whether conj_depth(g, d) == d + conj_depth(g, 0) at every g and d.
    constant_conj_cost: bool = False

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

    def power(self, x: Any, k: int) -> Any:
        """Exact power x^k in G (k may be negative), by square-and-multiply.

        Exact arithmetic is associative, so this equals the k-fold product
        at O(log |k|) multiplications.
        """
        if k < 0:
            x, k = self.inv(x), -k
        out = self.identity
        while k:
            if k & 1:
                out = self.mul(out, x)
            k >>= 1
            if k:
                x = self.mul(x, x)
        return out

    # --- chain ------------------------------------------------------------

    @abstractmethod
    def in_level(self, x: Any, depth: Depth) -> bool:
        """Whether x lies in the chain level N_depth."""

    def conj_depth(self, g: Any, depth: Depth) -> Depth:
        """The least level j >= depth with N_j inside both x.N_depth.x^-1 and
        x^-1.N_depth.x for *every* x in the coset g.N_depth.

        Coset uniformity makes truncated products and inverses well defined;
        monotonicity and j >= depth let the engine find the maximal depth in
        O(log depth) calls.  N_j conjugates into N_depth exactly when its
        generators do, so j is galloped up to max_depth, or CONJ_SPAN levels
        (then a ContractViolation).  A closed-form override must equal it.
        """
        g_inv = self.inv(g)
        stop = depth + CONJ_SPAN if self.max_depth is None else self.max_depth
        j = _gallop(lambda j: all(
            self.in_level(self.mul(self.mul(x, s), y), depth)
            for s in self.level_generators(j) for x, y in ((g, g_inv), (g_inv, g))
        ), depth, stop)
        if j is None:
            raise ContractViolation(f"{self.name}: no level up to {stop} conjugates into {depth}")
        return j

    def level_of(self, x: Any, cap: Depth) -> Depth:
        """The deepest d <= cap with x in N_d, or -1 when x is outside K = N_0.

        The default gallops on :meth:`in_level` up from level 0 to the end
        of the run of levels that hold x, in O(log cap) calls.
        """
        split = _gallop(lambda d: not self.in_level(x, d), 0, cap)
        return cap if split is None else split - 1

    def level_index(self, depth: Depth) -> int:
        """The index [K : N_depth], shown for each level by the CLI."""
        raise ValueError(f"instance {self.name} gives no level index")

    # --- text formats and helpers ------------------------------------------

    def format_element(self, x: Any) -> str:
        return str(x)

    def parse_literal(self, text: str) -> Any:
        """The element that a literal's text names; ValueError with a reason otherwise.

        It must be a pure function of the text: an evaluation reads each
        distinct literal text once and reuses the value for its repeats.
        """
        raise ValueError(f"{self.name}: unsupported literal {quoted(text)}")

    def level_rep(self, x: Any, depth: Depth) -> str:
        """Display form of the coset x.N_depth (an instance-local choice)."""
        return self.format_element(x)

    def validate(self, x: Any) -> None:
        """Raise ContractViolation when x is not an element of G."""

    def describe(self) -> str:
        return self.name

    def target(self, name: str) -> "DiscreteTarget":
        """The discrete target called ``name``; ValueError with a reason otherwise."""
        raise ValueError(f"unknown target {quoted(name)} for instance {self.name}")

    def level_generators(self, depth: Depth) -> list:
        """Elements that generate N_depth topologically: conj_depth and the samplers read them."""
        raise ValueError(f"instance {self.name} gives no level generators")

    def sample(self, rng) -> Any:
        """A random word of up to six generators or inverses, for randomized tests."""
        return self._word(rng, list(self.generators.values()), rng.randrange(0, 7), (1, -1))

    def sample_level(self, depth: Depth, rng) -> Any:
        """A random member of N_depth: a product of four random powers of its generators."""
        return self._word(rng, self.level_generators(depth), 4, range(-3, 4))

    def _word(self, rng, gens: list, length: int, exponents) -> Any:
        """A product of ``length`` random powers of ``gens``: the identity when it is empty."""
        out = self.identity
        for _ in range(length if gens else 0):
            out = self.mul(out, self.power(rng.choice(gens), rng.choice(exponents)))
        return out

    # --- embedding ---------------------------------------------------------

    def check_depth(self, depth: Depth) -> None:
        _check_int_depth(depth)
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


def _check_int_depth(depth: Any) -> None:
    if type(depth) is not int:
        raise ValueError(f"depth must be an int, got {type(depth).__name__}")


class Valuation(NamedTuple):
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


def p_adic_level(n: int, p: int, cap: Depth) -> Depth:
    """The deepest d <= cap with p**d dividing n, for a prime p.

    n = 0 gives cap, and p = 2 the lowest set bit of n, capped.  Otherwise
    p**d divides n only if p**d <= |n|, so d <= n.bit_length(); then
    gcd(n, p**m) is p**d with d the answer, for m the smaller of cap and
    that bound.  d is read off its logarithm, whose relative error of a
    few units in the last place rounds away for any d below 10**14.
    """
    if n == 0:
        return cap
    if p == 2:
        return min(cap, (n & -n).bit_length() - 1)
    return round(math.log(math.gcd(n, p ** min(cap, n.bit_length())), p))


_PRODUCT_NEEDS = "product needs a left factor of depth"


def _exhausted(need: str, required: Depth, have: Depth) -> PrecisionExhausted:
    """The error for an operation that needs depth ``required`` and has ``have``."""
    return PrecisionExhausted(f"{need} >= {required}, have {have}", required_depth=required)


def _attainable_depth(pair: CommensuratedPair, g: Any, cap: Depth, budget: Depth, need: str,
                      factors: int = 1):
    """The depth left after ``factors`` right factors g·N_cap.

    The fold is e_0 = budget, e_(i+1) = max{d <= cap : conj_depth(g, d) <= e_i}:
    a product is one factor, a k-fold power k - 1 on its first (cap ==
    budget).  For both, a declared constant cost c = conj_depth(g, 0)
    gives e_n = min(cap, budget - c·n) in one call, or runs out with
    budget mod c left when c·n > budget.  Otherwise conj_depth(g, d) >= d
    and is monotone in d, so each fold gallops down from min(cap, e_i) in
    O(log) calls, and the never-rising sequence stops at a fixed point
    within budget + 2 folds.  When no d qualifies, PrecisionExhausted
    names ``need``, the last e_i, and the least depth that would have
    sufficed, conj_depth(g, 0): c, or the walk's last probe.
    """
    if pair.constant_conj_cost:
        cost = pair.conj_depth(g, 0)
        spent = cost * factors
        if spent > budget:
            raise _exhausted(need, cost, budget % cost)
        return min(cap, budget - spent)
    required = None

    def fits(d: Depth) -> bool:
        nonlocal required
        required = pair.conj_depth(g, d)
        return required <= budget

    for _ in range(factors):
        d = _gallop(fits, min(cap, budget), 0)
        if d is None:
            raise _exhausted(need, required, budget)
        if d == budget:
            break
        budget = d
    return budget


class CompletionElement:
    """A group element known up to right multiplication by N_depth.

    Denotes the left coset rep.N_depth together with every coarser coset
    rep.N_d, d <= depth, that the chain nesting implies.  Two elements
    describe the same coset at level d exactly when rep1^-1.rep2 is in
    N_d; use :meth:`eq_at_depth`, since ``==`` and ``hash`` go by identity.
    No method assigns to an element after ``__init__``.
    """

    __slots__ = ("pair", "rep", "depth")

    def __init__(self, pair: CommensuratedPair, rep: Any, depth: Depth):
        self.pair = pair
        self.rep = rep
        self.depth = depth

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
        d = _attainable_depth(self.pair, other.rep, other.depth, self.depth, _PRODUCT_NEEDS)
        return CompletionElement(self.pair, self.pair.mul(self.rep, other.rep), d)

    def left_mul(self, g: Any) -> "CompletionElement":
        """g·self for an exact group element g, at self's depth.

        G acts on the completion by left translation, g·(rep·N_d) =
        (g·rep)·N_d at every level d, so an exact left factor maps each
        coset exactly: it costs no depth and needs no search.  Only right
        factors and inverses conjugate the chain.
        """
        self.pair.validate(g)
        return CompletionElement(self.pair, self.pair.mul(g, self.rep), self.depth)

    def __pow__(self, k: int) -> "CompletionElement":
        """The k-fold left-to-right product of self (of its inverse if k < 0):
        one :func:`_attainable_depth` question for |k| - 1 right factors on
        the first, and an exact binary power for the rep."""
        pair = self.pair
        if k == 0:
            return pair.embed(pair.identity, self.depth)
        base = self if k > 0 else self.inverse()
        d = _attainable_depth(pair, base.rep, base.depth, base.depth, _PRODUCT_NEEDS, abs(k) - 1)
        return CompletionElement(pair, pair.power(base.rep, abs(k)), d)

    def inverse(self) -> "CompletionElement":
        """Inverse at the maximal attainable depth.

        The output depth is the largest d with conj_depth(rep, d) <= depth:
        at such d the conjugation bound turns the known left coset into a
        left coset of the inverse.
        """
        pair = self.pair
        d = _attainable_depth(pair, self.rep, self.depth, self.depth, "inverse needs depth")
        return CompletionElement(pair, pair.inv(self.rep), d)

    def truncate(self, depth: Depth) -> "CompletionElement":
        """The same element seen at a coarser depth.

        Increasing depth is an error: only :meth:`CommensuratedPair.embed`
        mints precision.
        """
        _check_int_depth(depth)
        if depth > self.depth:
            raise PrecisionExhausted(
                f"cannot truncate depth {self.depth} to finer depth {depth}",
                required_depth=depth,
            )
        self.pair.check_depth(depth)
        if depth == self.depth:
            return self
        return CompletionElement(self.pair, self.rep, depth)

    def eq_at_depth(self, other: "CompletionElement", depth: Depth) -> bool:
        """Whether both elements determine the same left coset at ``depth``."""
        self._same_pair(other)
        _check_int_depth(depth)
        if depth > min(self.depth, other.depth):
            raise PrecisionExhausted(
                f"comparison at depth {depth} exceeds available depths "
                f"{self.depth} and {other.depth}",
                required_depth=depth,
            )
        pair = self.pair
        pair.check_depth(depth)
        return pair.in_level(pair.mul(pair.inv(self.rep), other.rep), depth)

    def valuation(self, other: "CompletionElement") -> Valuation:
        """Largest level at which the two elements agree.

        The cosets agree at level d exactly when the one quotient
        rep1^-1.rep2 lies in N_d, so that quotient is computed once and
        :meth:`CommensuratedPair.level_of` reads its level, capped at the
        depth both inputs carry: in closed form where the pair has one,
        else in O(log depth) membership tests.  The cosets are
        indistinguishable exactly when that level is the cap.
        """
        self._same_pair(other)
        pair = self.pair
        cap = min(self.depth, other.depth)
        level = pair.level_of(pair.mul(pair.inv(self.rep), other.rep), cap)
        return Valuation(level, level == cap)

    def right_rep(self, depth: Depth) -> Any:
        """A representative h with N_depth.h in the denoted filter.

        The conjugation bound shows the known left coset sits inside
        N_depth.rep, so rep itself serves once that bound is within the
        available depth.
        """
        self.pair.check_depth(depth)
        required = self.pair.conj_depth(self.rep, depth)
        if required > self.depth:
            raise _exhausted(f"right coset at level {depth} needs depth", required, self.depth)
        return self.rep


class DiscreteTarget(NamedTuple):
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
            raise _exhausted(f"target {quoted(self.name)} needs depth", self.kill_level, f.depth)
        return self.phi(f.rep)
