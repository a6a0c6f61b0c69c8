"""Fully enumerable finite groups with explicit subgroup chains.

These models exist so that every completion operation can be checked
against literal set arithmetic.  A model is either a permutation group
(generators on at most 16 points) or an explicit multiplication table
(order at most 200); the distinguished subgroup K and the chain levels
are given by generator lists and closed off here.  Everything is stored
as index tables, so the oracle can treat cosets as plain sets.  A
permutation model's table is built from generator columns: one
composition per element and generator, then one index lookup per entry
(see ``perm_mul_table``).

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

Chain requirements (checked on load): each level is a subgroup of the
one above, strictly smaller, normal in K; the bottom level is normal in
the whole group, which is what makes the brute-force completion below
it exact.  The coset tables decide normality: N is normal in H exactly
when h·N = N·h for every h in H.  ``corrupt_conj_depth: true`` (or
``false``, the default) makes the load set every ``conj_depths[d]``
entry to d, which breaks the pair's depth bound on purpose so oracle
sensitivity can be shown.  Any other key, and a key of the other kind
(``points``/``gens`` in a table model, ``row``/``order`` in a perm
model), is refused with the number of its line.
"""

from __future__ import annotations

import os
import re
import stat
from dataclasses import dataclass

from .core import CommensuratedPair, ContractViolation, Depth

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

def perm_from_cycles(text: str, points: int) -> tuple:
    """Parse "(1 2)(3 4)" or "(1 2) (3 4)" (1-based points, "()" = identity)."""
    body = text.strip()
    if not _PERM_LITERAL.fullmatch(body):
        raise ModelError(f"bad permutation literal {text!r}")
    result = perm_identity(points)
    for cycle_text in re.findall(r"\(([^()]*)\)", body):
        entries = [int(tok) for tok in cycle_text.split()]
        if any(not 1 <= v <= points for v in entries):
            raise ModelError(f"point out of range 1..{points} in {text!r}")
        if len(set(entries)) != len(entries):
            raise ModelError(f"repeated point in cycle in {text!r}")
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
    """The subgroup that ``gens`` generate in a finite group, by search from
    ``identity``; more than ``cap`` elements raises ModelError."""
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

@dataclass(frozen=True)
class CosetTable:
    """The cosets of one chain level on one side, each a literal set.

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


class FiniteModel:
    """A finite group as index tables, plus K and the chain as index sets.

    ``levels[0]`` is K; ``levels[-1]`` is the bottom of the chain.  A
    permutation model also keeps ``perm_index``, each permutation's index.
    Every table is built once, in the constructor, and instances are
    immutable after it and hash by identity:

    - ``lefts[d]`` and ``rights[d]``: the left cosets g·N_d and the right
      cosets N_d·g, as ``CosetTable``s;
    - ``level_members[d]``: the members of N_d, sorted;
    - ``conj_depths[d][g]``: the least j >= d with g·N_j·g^-1 and
      g^-1·N_j·g inside N_d; d itself in a corrupt model.
    """

    def __init__(self, name, kind, names, mul_table, K_gens, level_gens,
                 corrupt=False, points=None, perm_index=None):
        self.name = name
        self.kind = kind
        self.points = points
        self.perm_index = perm_index
        self.n = len(mul_table)
        self.names = tuple(names)
        self.mul_table = tuple(tuple(row) for row in mul_table)
        self.corrupt = bool(corrupt)
        self.e, self.inv_table = self._check_group_axioms()
        self.levels = tuple(
            frozenset(_closure(self.e, gens, self.mul)) for gens in (K_gens, *level_gens)
        )
        self.lefts = tuple(
            CosetTable.build(self.n, lambda x, N=N: self.left_coset(x, N)) for N in self.levels
        )
        self.rights = tuple(
            CosetTable.build(self.n, lambda x, N=N: self.right_coset(N, x)) for N in self.levels
        )
        self._check_chain()
        self.level_members = tuple(tuple(sorted(level)) for level in self.levels)
        self.conj_depths = tuple(
            (d,) * self.n if self.corrupt else self._conj_depths(d) for d in range(len(self.levels))
        )

    # construction helpers

    def _check_group_axioms(self) -> tuple:
        """The identity and the inverse table, once the table is a group."""
        n, table = self.n, self.mul_table
        if n == 0 or n > MAX_ORDER:
            raise ModelError(f"model order {n} outside 1..{MAX_ORDER}")
        if any(len(row) != n or min(row) < 0 or max(row) >= n for row in table):
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
                raise ModelError(f"element {self.names[i]} has no inverse") from None
            inv.append(j)
        if self.kind == "table":
            # permutation models are associative by construction;
            # row a·b must be row b mapped through row a
            for ra in table:
                for b, rb in enumerate(table):
                    if table[ra[b]] != tuple(map(ra.__getitem__, rb)):
                        raise ModelError("multiplication table is not associative")
        return ident, tuple(inv)

    def _check_chain(self):
        for d, level in enumerate(self.levels):
            label = "K" if d == 0 else f"chain level {d}"
            if d > 0:
                if not level <= self.levels[d - 1]:
                    raise ModelError(f"{label} is not inside level {d - 1}")
                if level == self.levels[d - 1]:
                    raise ModelError(f"{label} does not descend strictly")
            if any(self.lefts[d].of(k) != self.rights[d].of(k) for k in self.levels[0]):
                raise ModelError(f"{label} is not normal in K")
        # both tables number cosets by least member: equal partitions, equal tables
        if self.lefts[-1] != self.rights[-1]:
            raise ModelError(
                f"chain bottom {{{', '.join(sorted(self.names[i] for i in self.bottom))}}}"
                " is not normal in the whole group"
            )

    # index arithmetic

    def mul(self, i: int, j: int) -> int:
        return self.mul_table[i][j]

    def inv(self, i: int) -> int:
        return self.inv_table[i]

    def conj(self, g: int, x: int) -> int:
        return self.mul_table[self.mul_table[g][x]][self.inv_table[g]]

    def left_coset(self, g: int, members) -> frozenset:
        return frozenset(map(self.mul_table[g].__getitem__, members))

    def right_coset(self, members, g: int) -> frozenset:
        return frozenset([self.mul_table[x][g] for x in members])

    def _conj_depths(self, d: int) -> tuple:
        """``conj_depths[d]``, one search per left coset of N_d.

        g·N_j·g^-1 lies in N_d exactly when g·N_j lies in N_d·g.  The
        least such j is the same for every x = g·n in g·N_d: every level
        is normal in K, so x·N_j·x^-1 = g·N_j·g^-1 and
        x^-1·N_j·x = n^-1·(g^-1·N_j·g)·n.  The bottom level is normal in
        the whole group, so it needs no test.
        """
        top = len(self.levels) - 1
        rights = self.rights[d]

        def stable(g, j):
            return self.lefts[j].of(g) <= rights.of(g)

        depths: list = [None] * self.n
        for g, coset in zip(self.lefts[d].reps, self.lefts[d].sets):
            ginv = self.inv_table[g]
            j = next((j for j in range(d, top) if stable(g, j) and stable(ginv, j)), top)
            for x in coset:
                depths[x] = j
        return tuple(depths)

    @property
    def bottom(self) -> frozenset:
        return self.levels[-1]


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
            raise ModelError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        pairs.append((key.strip().lower(), value.strip(), lineno))
    return pairs


def parse_model(text: str) -> FiniteModel:
    fields: dict = {"level": [], "row": []}
    first_line: dict = {}  # key -> the line it first appears on
    for key, value, lineno in _parse_lines(text):
        if key not in _KEYS:
            raise ModelError(f"line {lineno}: unknown key {key!r}")
        first_line.setdefault(key, lineno)
        if key in ("level", "row"):
            fields[key].append(value)
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
            f"true or false, got {flag!r}"
        )
    corrupt = flag.lower() == "true"
    if "k" not in fields:
        raise ModelError("missing K line")
    foreign = [(first_line[key], key) for key in _FOREIGN_KEYS.get(kind, ()) if key in first_line]
    if foreign:
        lineno, key = min(foreign)
        raise ModelError(f"line {lineno}: key {key!r} does not apply to {kind} models")

    if kind == "perm":
        try:
            points = int(fields["points"])
        except (KeyError, ValueError):
            raise ModelError("perm models need an integer 'points' line") from None
        if not 1 <= points <= MAX_POINTS:
            raise ModelError(f"points must be 1..{MAX_POINTS}")
        if "gens" not in fields:
            raise ModelError("perm models need a 'gens' line")

        def read(item):
            return perm_from_cycles(item, points)

        gens = [read(item) for item in _split_items(fields["gens"])]
        elements = sorted(_closure(perm_identity(points), gens, perm_compose, MAX_ORDER))
        perm_index = {p: i for i, p in enumerate(elements)}
        table = perm_mul_table(elements, perm_index, gens)
        names = [perm_to_cycles(p) for p in elements]

        def element(perm):
            if perm not in perm_index:
                raise ModelError(f"generator {perm_to_cycles(perm)} is outside the group")
            return perm_index[perm]

    elif kind == "table":
        table = []
        for value in fields["row"]:
            try:
                table.append([int(tok) for tok in value.split()])
            except ValueError:
                raise ModelError(f"bad table row {value!r}") from None
        if not table:
            raise ModelError("table models need 'row' lines")
        try:
            order = int(fields.get("order", len(table)))
        except ValueError:
            raise ModelError(f"'order' must be an integer, got {fields['order']!r}") from None
        if order != len(table):
            raise ModelError("stated order does not match the number of rows")
        names = [f"#{i}" for i in range(order)]
        points = perm_index = None

        def read(item):
            if not _TABLE_LITERAL.fullmatch(item) or int(item[1:]) >= order:
                raise ModelError(f"bad table element {item!r}")
            return int(item[1:])

        def element(i):
            return i

    else:
        raise ModelError(f"unknown model kind {kind!r}")

    def indices(value):
        # every item is read before any is looked up, so a malformed item
        # is named ahead of one outside the group
        return [element(x) for x in [read(item) for item in _split_items(value)]]

    return FiniteModel(
        name, kind, names, table, indices(fields["k"]), [indices(v) for v in fields["level"]],
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

    conj_depth is the least level that works, read off the model's
    ``conj_depths`` table, which its coset tables decide.  The oracle
    checks the engine's depths built on it against literal coset
    containment.
    """

    def __init__(self, model: FiniteModel):
        self.model = model
        self.name = model.name
        self.max_depth = len(model.levels) - 1
        self.literal_pattern = _PERM_LITERAL if model.kind == "perm" else _TABLE_LITERAL

    @property
    def identity(self) -> int:
        return self.model.e

    def mul(self, x: int, y: int) -> int:
        return self.model.mul(x, y)

    def inv(self, x: int) -> int:
        return self.model.inv(x)

    def in_level(self, x: int, depth: Depth) -> bool:
        return x in self.model.levels[depth]

    def conj_depth(self, g: int, depth: Depth) -> Depth:
        return self.model.conj_depths[depth][g]

    def level_index(self, depth: Depth) -> int:
        return len(self.model.levels[0]) // len(self.model.levels[depth])

    def format_element(self, x: int) -> str:
        return self.model.names[x]

    def parse_literal(self, text: str) -> int:
        model = self.model
        if model.kind == "perm":
            try:
                perm = perm_from_cycles(text, model.points)
            except ModelError as err:
                raise ValueError(str(err)) from None
            idx = model.perm_index.get(perm)
            if idx is None:
                raise ContractViolation(
                    f"{self.name}: permutation {text.strip()} is outside the group"
                )
            return idx
        m = _TABLE_LITERAL.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"{self.name}: bad element literal {text!r}")
        idx = int(text.strip()[1:])
        if idx >= model.n:
            raise ContractViolation(
                f"{self.name}: no element {text.strip()} (order is {model.n})"
            )
        return idx

    def level_rep(self, x: int, depth: Depth) -> str:
        table = self.model.lefts[depth]
        return self.model.names[table.reps[table.ids[x]]]

    def validate(self, x) -> None:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < self.model.n:
            raise ContractViolation(f"{self.name}: no element with index {x!r}")

    def describe(self) -> str:
        sizes = "|".join(str(len(s)) for s in self.model.levels)
        return (
            f"finite model of order {self.model.n} "
            f"(K order {len(self.model.levels[0])}, chain orders {sizes})"
        )

    def sample(self, rng) -> int:
        return rng.randrange(self.model.n)

    def sample_level(self, depth: Depth, rng) -> int:
        return rng.choice(self.model.level_members[depth])


def finite_model_pair(model: FiniteModel) -> FiniteModelPair:
    """Completion pair whose depth bounds are read off the model's coset tables."""
    return FiniteModelPair(model)
