"""Fully enumerable finite groups with explicit subgroup chains.

These models exist so that every completion operation can be checked
against literal set arithmetic.  A model is either a permutation group
(generators on at most 16 points) or an explicit multiplication table
(order at most 200); the distinguished subgroup K and the chain levels
are given by generator lists and closed off here.  Everything is stored
as index tables, so the oracle can treat cosets as plain sets.  A
permutation model's table is built from generator columns: one
composition per element and generator, then one index lookup per entry
(see ``perm_mul_table``), so it is closed and associative by
construction.  A table model's load checks both, associativity by
Light's test (Clifford and Preston, *The Algebraic Theory of
Semigroups*, vol. 1, 1961) on at most log2(n) generators: n·log2(n) row
comparisons instead of all n² pairs.

Model text format, one "key: value" per line, full-line # comments:

    name: s4
    kind: perm            # or "table"
    points: 4             # perm kind
    gens: (1 2), (1 2 3 4)
    K: (1 2), (1 2 3)
    level: (1 2 3)        # one line per chain level below K, in order
    level: -              # "-" = trivial subgroup

    kind: table
    row: 0 1 2 3          # row i lists the products i*j
    ...
    K: #1                 # table elements are written #k

Chain requirements: each level is a subgroup of the one above, strictly
smaller, normal in K; the bottom level is normal in the whole group,
which is what makes the brute-force completion below it exact.  Each
level is checked as it is built, so a file is refused at its first bad
level: nesting from its generators, each repeat kept once, strict descent
by order, and normality from its left coset table, as N is normal in H
exactly when s·h ∈ h·N for every generator h of H and s of N.
``corrupt_conj_depth: true`` (or ``false``, the default) makes the pair
answer conj_depth(g, d) = d, which breaks its depth bound on purpose so
oracle sensitivity can be shown.  Any other key, and a key of the other
kind (``points``/``gens`` in a table model, ``row``/``order`` in a perm
model), is refused with the number of its line.
"""

from __future__ import annotations

import os
import re
import stat
from functools import cached_property
from typing import NamedTuple

from .core import CommensuratedPair, ContractViolation, Depth, quoted, read_int

MAX_POINTS = 16
MAX_ORDER = 200
MAX_MODEL_BYTES = 1 << 20  # an order-200 table model is about 140 KB
_KEYS = frozenset(
    {"name", "kind", "points", "gens", "k", "level", "order", "row", "corrupt_conj_depth"}
)
# the keys that only the other kind of model reads
_FOREIGN_KEYS = {"perm": ("order", "row"), "table": ("points", "gens")}


class ModelError(ValueError):
    """Malformed model text or a chain violating the preconditions."""


# --- permutations on 0..k-1 as tuples ---------------------------------------

def perm_identity(points: int) -> tuple:
    return tuple(range(points))

def perm_compose(p: tuple, q: tuple) -> tuple:
    """p after q."""
    return tuple([p[i] for i in q])

# element literals, shared by the model loader and the expression tokenizer
_PERM_LITERAL = re.compile(r"\(\s*(?:\d+(?:\s+\d+)*)?\s*\)(?:\s*\(\s*(?:\d+(?:\s+\d+)*)?\s*\))*")
_TABLE_LITERAL = re.compile(r"#\d+")

def perm_from_cycles(text: str, points: int, where: str = "") -> tuple:
    """Parse "(1 2)(3 4)" or "(1 2) (3 4)" (1-based points, "()" = identity);
    ``where`` names the source in the message for a point past the digit limit."""
    body = text.strip()
    if not _PERM_LITERAL.fullmatch(body):
        raise ModelError(f"bad permutation literal {quoted(text)}")
    result = perm_identity(points)
    for cycle_text in re.findall(r"\(([^()]*)\)", body):
        entries = [read_int(tok, where) for tok in cycle_text.split()]
        if any(not 1 <= v <= points for v in entries):
            raise ModelError(f"point out of range 1..{points} in {quoted(text)}")
        if len(set(entries)) != len(entries):
            raise ModelError(f"repeated point in cycle in {quoted(text)}")
        cyc = list(range(points))
        for i, v in enumerate(entries):
            cyc[v - 1] = entries[(i + 1) % len(entries)] - 1
        # cycles compose as functions, rightmost applied first
        result = perm_compose(result, tuple(cyc))
    return result

def perm_to_cycles(p: tuple) -> str:
    seen, parts = set(), []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            seen.add(start)
            continue
        cyc, i = [], start
        while i not in seen:
            seen.add(i)
            cyc.append(i + 1)
            i = p[i]
        parts.append("(" + " ".join(str(v) for v in cyc) + ")")
    return "".join(parts) if parts else "()"


def _closure(identity, gens, mul, cap=None) -> set:
    """What right multiplication by ``gens`` reaches from ``identity``: in a
    finite group, the subgroup they generate.  More than ``cap`` elements
    raises ModelError."""
    out = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = mul(x, g)
            if y not in out:
                if cap is not None and len(out) >= cap:
                    raise ModelError(f"group order exceeds {cap}")
                out.add(y)
                frontier.append(y)
    return out


def perm_mul_table(elements, index, gens) -> list:
    """Rows ``i·j`` of the group that ``gens`` generate, as index tuples.

    ``elements`` are the group's permutations sorted, so index 0 is the
    identity, and ``index`` maps each back to its position.  ``right[i]``
    is the index of ``i·g`` for one generator g: n compositions per
    generator.  Column j lists ``i·j`` for every i, and
    ``i·(j·g) = (i·j)·g``, so the column of ``j·g`` is column j mapped
    through ``right``; a walk from the identity's column reaches every
    column, since right multiplication by the generators reaches every
    element.
    """
    rights = [[index[perm_compose(p, g)] for p in elements] for g in gens]
    columns: list = [None] * len(elements)
    columns[0] = range(len(elements))
    frontier = [0]
    while frontier:
        j = frontier.pop()
        column = columns[j]
        for right in rights:
            k = right[j]
            if columns[k] is None:
                columns[k] = list(map(right.__getitem__, column))
                frontier.append(k)
    return list(zip(*columns))


# --- the model ---------------------------------------------------------------

class CosetTable(NamedTuple):
    """The cosets of one chain level, each a literal set.

    ``ids[x]`` numbers the coset holding element x, ``sets[i]`` is the
    i-th coset and ``reps[i]`` its least member; ids follow the order of
    the least members.
    """

    ids: tuple
    sets: tuple
    reps: tuple

    @classmethod
    def build(cls, n: int, coset) -> CosetTable:
        """The table of the partition of 0..n-1 into the sets ``coset(x)``."""
        ids: list = [None] * n
        sets, reps = [], []
        for x in range(n):
            if ids[x] is None:
                members = coset(x)
                for y in members:
                    ids[y] = len(sets)
                sets.append(members)
                reps.append(x)
        return cls(tuple(ids), tuple(sets), tuple(reps))

    def of(self, x: int) -> frozenset:
        return self.sets[self.ids[x]]

    def normalised(self, mul_table, gens, by) -> bool:
        """Whether h⁻¹·s·h lies in the level N, that is s·h in h·N, for every
        s in ``gens`` and h in ``by``."""
        ids = self.ids
        return all(ids[mul_table[s][h]] == ids[h] for h in by for s in gens)


class FiniteModel:
    """A finite group as index tables, plus K and the chain as index sets.

    ``levels[0]`` is K; ``levels[-1]`` is the bottom of the chain, and
    ``level_gens[d]`` are the model text's generators of ``levels[d]``.  A
    permutation model also keeps ``perm_index``, each permutation's index,
    and ``perms``, the permutations in index order.  ``element_name(x)``
    spells one element and ``names`` all of them, built on first use.
    ``lefts[d]`` is the ``CosetTable`` of the left cosets g·N_d, and
    ``levels[d]`` is its coset of the identity; a right coset N_d·g is
    (g⁻¹·N_d)⁻¹.  Tables are built once, in the constructor; instances
    are immutable after it and hash by identity.
    """

    def __init__(self, name, kind, mul_table, level_gens,
                 corrupt=False, points=None, perm_index=None):
        self.name = name
        self.kind = kind
        self.points = points
        self.perm_index = perm_index
        self.perms = None if perm_index is None else tuple(perm_index)  # keys in index order
        self.n = len(mul_table)
        self.mul_table = tuple(tuple(row) for row in mul_table)
        self.corrupt = bool(corrupt)
        self.e, self.inv_table = self._check_group_axioms()
        self.level_gens = tuple(map(tuple, level_gens))
        levels, lefts = [], []
        for d, gens in enumerate(self.level_gens):
            label = "K" if d == 0 else f"chain level {d}"
            if levels and not levels[-1].issuperset(gens):
                raise ModelError(f"{label} is not inside level {d - 1}")
            N = _closure(self.e, gens, self.mul)
            if levels and len(N) == len(levels[-1]):
                raise ModelError(f"{label} does not descend strictly")
            table = CosetTable.build(self.n, lambda x, N=N: self.left_coset(x, N))
            if not table.normalised(self.mul_table, gens, self.level_gens[0]):
                raise ModelError(f"{label} is not normal in K")
            levels.append(table.of(self.e))
            lefts.append(table)
        self.levels, self.lefts = tuple(levels), tuple(lefts)
        if not self.lefts[-1].normalised(self.mul_table, self.level_gens[-1], range(self.n)):
            raise ModelError(
                f"chain bottom {{{', '.join(sorted(map(self.element_name, self.bottom)))}}}"
                " is not normal in the whole group"
            )

    # construction helpers

    def _check_group_axioms(self) -> tuple:
        """The identity and the inverse table, once the table is a group."""
        n, table = self.n, self.mul_table
        if n == 0 or n > MAX_ORDER:
            raise ModelError(f"model order {n} outside 1..{MAX_ORDER}")
        # a permutation model's rows are index lookups: closed by construction
        if self.kind == "table" and any(
                len(row) != n or min(row) < 0 or max(row) >= n for row in table):
            raise ModelError("multiplication table is not closed")
        # the first e whose row and column are both the identity map
        plain = tuple(range(n))
        ident = next(
            (e for e in range(n)
             if table[e] == plain and all(row[e] == j for j, row in enumerate(table))),
            None,
        )
        if ident is None:
            raise ModelError("multiplication table has no identity")
        inv = []
        for i, row in enumerate(table):
            # the first j with both i·j and j·i the identity
            try:
                j = row.index(ident)
                while table[j][i] != ident:
                    j = row.index(ident, j + 1)
            except ValueError:
                raise ModelError(f"element {self.element_name(i)} has no inverse") from None
            inv.append(j)
        if self.kind == "table":
            # Light's test (Clifford and Preston, The Algebraic Theory of
            # Semigroups, vol. 1, 1961): the g with row a·g equal to row g
            # mapped through row a, for every a, are closed under products,
            # so a set that generates the table from the identity suffices;
            # take the least element not yet reached.  An associative table
            # with an identity and inverses is a group, where each one at
            # least doubles what is reached: refuse past log2(n) of them.
            gens, reached = [], {ident}
            for g in range(n):
                if g in reached:
                    continue
                gens.append(g)
                rg = table[g]
                if 1 << len(gens) > n or any(
                        table[ra[g]] != tuple(map(ra.__getitem__, rg)) for ra in table):
                    raise ModelError("multiplication table is not associative")
                reached = _closure(ident, gens, self.mul)
        return ident, tuple(inv)

    # index arithmetic

    def mul(self, i: int, j: int) -> int:
        return self.mul_table[i][j]

    def inv(self, i: int) -> int:
        return self.inv_table[i]

    def conj(self, g: int, x: int) -> int:
        return self.mul_table[self.mul_table[g][x]][self.inv_table[g]]

    def left_coset(self, g: int, members) -> frozenset:
        return frozenset(map(self.mul_table[g].__getitem__, members))

    @property
    def bottom(self) -> frozenset:
        return self.levels[-1]

    def element_name(self, x: int) -> str:
        """Element x as the model text writes it: its cycles, or ``#x``."""
        return f"#{x}" if self.perms is None else perm_to_cycles(self.perms[x])

    @cached_property
    def names(self) -> tuple:
        return tuple(map(self.element_name, range(self.n)))


# --- parsing -----------------------------------------------------------------

def _split_items(value: str):
    """The comma-separated items of a generator line; "-" has none."""
    if value == "-":
        return []
    return [item.strip() for item in value.split(",") if item.strip()]


def _parse_lines(text: str):
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ModelError(f"line {lineno}: expected 'key: value', got {quoted(line)}")
        key, _, value = line.partition(":")
        pairs.append((key.strip().lower(), value.strip(), lineno))
    return pairs


def parse_model(text: str) -> FiniteModel:
    fields: dict = {"level": [], "row": []}
    first_line: dict = {}  # key -> the line it first appears on
    for key, value, lineno in _parse_lines(text):
        if key not in _KEYS:
            raise ModelError(f"line {lineno}: unknown key {quoted(key)}")
        first_line.setdefault(key, lineno)
        if key in ("level", "row"):
            fields[key].append((value, lineno))
        elif key in fields:
            raise ModelError(f"line {lineno}: duplicate key {key!r}")
        else:
            fields[key] = value

    kind = fields.get("kind", "perm")
    name = fields.get("name", "model")
    flag = fields.get("corrupt_conj_depth", "false")
    if flag.lower() not in ("true", "false"):
        raise ModelError(
            f"line {first_line['corrupt_conj_depth']}: corrupt_conj_depth must be "
            f"true or false, got {quoted(flag)}"
        )
    corrupt = flag.lower() == "true"
    if "k" not in fields:
        raise ModelError("missing K line")
    foreign = [(first_line[key], key) for key in _FOREIGN_KEYS.get(kind, ()) if key in first_line]
    if foreign:
        lineno, key = min(foreign)
        raise ModelError(f"line {lineno}: key {key!r} does not apply to {kind} models")

    if kind == "perm":
        points = read_int(fields.get("points", ""), f"line {first_line.get('points')}",
                          "perm models need an integer 'points' line", ModelError)
        if not 1 <= points <= MAX_POINTS:
            raise ModelError(f"points must be 1..{MAX_POINTS}")
        if "gens" not in fields:
            raise ModelError("perm models need a 'gens' line")

        def read(item, lineno):
            return perm_from_cycles(item, points, f"line {lineno}")

        items = [read(item, first_line["gens"]) for item in _split_items(fields["gens"])]
        gens = list(dict.fromkeys(items))
        elements = sorted(_closure(perm_identity(points), gens, perm_compose, MAX_ORDER))
        perm_index = {p: i for i, p in enumerate(elements)}
        table = perm_mul_table(elements, perm_index, gens)

        def element(perm):
            if perm not in perm_index:
                raise ModelError(f"generator {perm_to_cycles(perm)} is outside the group")
            return perm_index[perm]

    elif kind == "table":
        table = []
        for value, lineno in fields["row"]:
            try:  # one int() per entry keeps a good row fast; read_int names a bad one
                table.append([int(tok) for tok in value.split()])
            except ValueError:
                for tok in value.split():
                    read_int(tok, f"line {lineno}", f"bad table row {quoted(value)}", ModelError)
        if not table:
            raise ModelError("table models need 'row' lines")
        stated = fields.get("order", str(len(table)))
        order = read_int(stated, f"line {first_line.get('order')}",
                         f"'order' must be an integer, got {quoted(stated)}", ModelError)
        if order != len(table):
            raise ModelError("stated order does not match the number of rows")
        points = perm_index = None

        def read(item, lineno):
            if not _TABLE_LITERAL.fullmatch(item):
                raise ModelError(f"bad table element {quoted(item)}")
            index = read_int(item[1:], f"line {lineno}")
            if index >= order:
                raise ModelError(f"bad table element {quoted(item)}")
            return index

        def element(i):
            return i

    else:
        raise ModelError(f"unknown model kind {quoted(kind)}")

    def indices(value, lineno):
        # every item is read before any is looked up, so a malformed item
        # is named ahead of one outside the group; a repeat is looked up once
        items = [read(item, lineno) for item in _split_items(value)]
        return [element(x) for x in dict.fromkeys(items)]

    k = indices(fields["k"], first_line["k"])
    levels = [indices(value, lineno) for value, lineno in fields["level"]]
    return FiniteModel(
        name, kind, table, [k, *levels],
        corrupt=corrupt, points=points, perm_index=perm_index,
    )


def load_model(path) -> FiniteModel:
    """The model in the regular file ``path`` of at most MAX_MODEL_BYTES;
    a device, a FIFO or a larger file is refused before it is read."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ModelError(f"model file {str(path)!r} is not a regular file")
    with open(path, "rb") as fh:
        data = fh.read(MAX_MODEL_BYTES + 1)
    if len(data) > MAX_MODEL_BYTES:
        raise ModelError(f"model file {str(path)!r} is larger than {MAX_MODEL_BYTES} bytes")
    return parse_model(data.decode("utf-8"))


# --- the pair ----------------------------------------------------------------

class FiniteModelPair(CommensuratedPair):
    """Completion pair over a FiniteModel; elements are table indices.

    ``conj_depths[d][g]`` is the derived conj_depth(g, d), or d in a corrupt
    model.  ``deepest[x]`` is the deepest level that holds x, or -1 when x
    is outside K, so in_level(x, d) is deepest[x] >= d and level_of(x, cap)
    is min(cap, deepest[x]).  conj_depth, in_level and level_of trust their
    depth, which the engine checks first.
    The oracle checks the engine's depths against literal cosets.
    """

    def __init__(self, model: FiniteModel):
        self.model = model
        self.name = model.name
        self.max_depth = len(model.levels) - 1
        self.literal_pattern = _PERM_LITERAL if model.kind == "perm" else _TABLE_LITERAL
        deepest = [-1] * model.n
        for d, level in enumerate(model.levels):  # the levels nest, so the last write wins
            for x in level:
                deepest[x] = d
        self.deepest = tuple(deepest)  # in_level reads it, so the fill below does too
        # a left coset's rep g decides for all of g·N_d, since every level is normal
        # in K: x = g·n has x·N_j·x^-1 = g·N_j·g^-1 and x^-1·N_j·x = n^-1·(g^-1·N_j·g)·n;
        # the bottom level, normal in the whole group, answers itself
        rows = []
        for d, lefts in enumerate(model.lefts):
            by_coset = [d] * len(lefts.reps) if model.corrupt or d == self.max_depth else [
                CommensuratedPair.conj_depth(self, g, d) for g in lefts.reps]
            rows.append(tuple(by_coset[i] for i in lefts.ids))
        self.conj_depths = tuple(rows)

    @property
    def identity(self) -> int:
        return self.model.e

    def mul(self, x: int, y: int) -> int:
        return self.model.mul(x, y)

    def inv(self, x: int) -> int:
        return self.model.inv(x)

    def in_level(self, x: int, depth: Depth) -> bool:
        return self.deepest[x] >= depth

    def conj_depth(self, g: int, depth: Depth) -> Depth:
        return self.conj_depths[depth][g]

    def level_of(self, x: int, cap: Depth) -> Depth:
        return min(cap, self.deepest[x])

    def level_index(self, depth: Depth) -> int:
        self.check_depth(depth)
        return len(self.model.levels[0]) // len(self.model.levels[depth])

    def format_element(self, x: int) -> str:
        return self.model.element_name(x)

    def parse_literal(self, text: str) -> int:
        model = self.model
        if model.kind == "perm":
            perm = perm_from_cycles(text, model.points)
            idx = model.perm_index.get(perm)
            if idx is None:
                raise ContractViolation(
                    f"{self.name}: permutation {text.strip()} is outside the group"
                )
            return idx
        m = _TABLE_LITERAL.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"{self.name}: bad element literal {quoted(text)}")
        idx = read_int(text.strip()[1:])
        if idx >= model.n:
            raise ContractViolation(
                f"{self.name}: no element {text.strip()} (order is {model.n})"
            )
        return idx

    def level_rep(self, x: int, depth: Depth) -> str:
        self.check_depth(depth)
        table = self.model.lefts[depth]
        return self.model.element_name(table.reps[table.ids[x]])

    def validate(self, x) -> None:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.model.n:
            raise ContractViolation(f"{self.name}: no element with index {x!r}")

    def level_generators(self, depth: Depth) -> list:
        self.check_depth(depth)
        return list(self.model.level_gens[depth])

    def sample(self, rng) -> int:
        return rng.randrange(self.model.n)
