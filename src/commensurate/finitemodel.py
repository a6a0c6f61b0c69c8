"""Fully enumerable finite groups with explicit subgroup chains.

These models exist so that every completion operation can be checked
against literal set arithmetic.  A model is either a permutation group
(generators on at most 16 points) or an explicit multiplication table
(order at most 200); the distinguished subgroup K and the chain levels
are given by generator lists and closed off here.  Everything is stored
as index tables, so the oracle can treat cosets as plain sets.

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
it exact.  ``corrupt_conj_depth: true`` deliberately breaks the pair's
depth bound so oracle sensitivity can be demonstrated.
"""

from __future__ import annotations

import re
from functools import cache

from .core import CommensuratedPair, ContractViolation, Depth

MAX_POINTS = 16
MAX_ORDER = 200


class ModelError(ValueError):
    """Malformed model text or a chain violating the preconditions."""


# --- permutations on 0..k-1 as tuples ---------------------------------------

def perm_identity(points: int) -> tuple:
    return tuple(range(points))

def perm_compose(p: tuple, q: tuple) -> tuple:
    """p after q."""
    return tuple(p[q[i]] for i in range(len(p)))

def perm_inverse(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)

def perm_from_cycles(text: str, points: int) -> tuple:
    """Parse "(1 2)(3 4)" (1-based points, "()" = identity)."""
    body = text.strip()
    if not re.fullmatch(r"(\(\s*(\d+(\s+\d+)*)?\s*\))+", body):
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


# --- the model ---------------------------------------------------------------

class FiniteModel:
    """A finite group as index tables, plus K and the chain as index sets.

    ``levels[0]`` is K; ``levels[-1]`` is the bottom of the chain.
    Instances are immutable after construction and hash by identity.
    """

    def __init__(self, name, kind, names, mul_table, K_gens, level_gens,
                 corrupt=False, points=None):
        self.name = name
        self.kind = kind
        self.points = points
        self.n = len(mul_table)
        self.names = tuple(names)
        self.mul_table = tuple(tuple(row) for row in mul_table)
        self.corrupt = bool(corrupt)
        self._check_group_axioms()
        K = self._close(K_gens)
        levels = [K]
        for gens in level_gens:
            levels.append(self._close(gens))
        self.levels = tuple(frozenset(s) for s in levels)
        self._check_chain()

    # construction helpers

    def _check_group_axioms(self):
        n, table = self.n, self.mul_table
        if n == 0 or n > MAX_ORDER:
            raise ModelError(f"model order {n} outside 1..{MAX_ORDER}")
        if any(len(row) != n or any(not 0 <= v < n for v in row) for row in table):
            raise ModelError("multiplication table is not closed")
        ident = None
        for e in range(n):
            if all(table[e][j] == j and table[j][e] == j for j in range(n)):
                ident = e
                break
        if ident is None:
            raise ModelError("multiplication table has no identity")
        self.e = ident
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if table[i][j] == ident and table[j][i] == ident:
                    inv[i] = j
                    break
            if inv[i] is None:
                raise ModelError(f"element {self.names[i]} has no inverse")
        self.inv_table = tuple(inv)
        if self.kind == "table":
            # permutation models are associative by construction
            for a in range(n):
                ra = table[a]
                for b in range(n):
                    rab = table[ra[b]]
                    rb = table[b]
                    if any(rab[c] != ra[rb[c]] for c in range(n)):
                        raise ModelError("multiplication table is not associative")

    def _close(self, gens) -> frozenset:
        out = {self.e}
        frontier = [self.e]
        gens = list(gens)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.mul_table[x][g]
                if y not in out:
                    out.add(y)
                    frontier.append(y)
        return frozenset(out)

    def _check_chain(self):
        for d, level in enumerate(self.levels):
            label = "K" if d == 0 else f"chain level {d}"
            if d > 0:
                if not level <= self.levels[d - 1]:
                    raise ModelError(f"{label} is not inside level {d - 1}")
                if level == self.levels[d - 1]:
                    raise ModelError(f"{label} does not descend strictly")
            for k in self.levels[0]:
                if any(self.conj(k, x) not in level for x in level):
                    raise ModelError(f"{label} is not normal in K")
        bottom = self.levels[-1]
        for g in range(self.n):
            if any(self.conj(g, x) not in bottom for x in bottom):
                raise ModelError(
                    f"chain bottom {{{', '.join(sorted(self.names[i] for i in bottom))}}}"
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
        return frozenset(self.mul_table[g][x] for x in members)

    def right_coset(self, members, g: int) -> frozenset:
        return frozenset(self.mul_table[x][g] for x in members)

    @property
    def bottom(self) -> frozenset:
        return self.levels[-1]


# --- parsing -----------------------------------------------------------------

def _split_items(value: str):
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
    for key, value, lineno in _parse_lines(text):
        if key in ("level", "row"):
            fields[key].append(value)
        elif key in fields:
            raise ModelError(f"line {lineno}: duplicate key {key!r}")
        else:
            fields[key] = value

    kind = fields.get("kind", "perm")
    name = fields.get("name", "model")
    corrupt = fields.get("corrupt_conj_depth", "false").lower() == "true"
    if "k" not in fields:
        raise ModelError("missing K line")

    if kind == "perm":
        try:
            points = int(fields["points"])
        except (KeyError, ValueError):
            raise ModelError("perm models need an integer 'points' line") from None
        if not 1 <= points <= MAX_POINTS:
            raise ModelError(f"points must be 1..{MAX_POINTS}")
        if "gens" not in fields:
            raise ModelError("perm models need a 'gens' line")

        def parse_gens(value):
            if value == "-":
                return []
            return [perm_from_cycles(item, points) for item in _split_items(value)]

        gens = parse_gens(fields["gens"])
        elements = _perm_closure(gens, points)
        index = {p: i for i, p in enumerate(elements)}
        mul_table = [
            [index[perm_compose(p, q)] for q in elements] for p in elements
        ]
        names = [perm_to_cycles(p) for p in elements]

        def gen_indices(value):
            out = []
            for p in parse_gens(value):
                if p not in index:
                    raise ModelError(f"generator {perm_to_cycles(p)} is outside the group")
                out.append(index[p])
            return out

        return FiniteModel(
            name, "perm", names, mul_table,
            gen_indices(fields["k"]),
            [gen_indices(v) for v in fields["level"]],
            corrupt=corrupt, points=points,
        )

    if kind == "table":
        rows = []
        for value in fields["row"]:
            try:
                rows.append([int(tok) for tok in value.split()])
            except ValueError:
                raise ModelError(f"bad table row {value!r}") from None
        if not rows:
            raise ModelError("table models need 'row' lines")
        if "order" in fields and int(fields["order"]) != len(rows):
            raise ModelError("stated order does not match the number of rows")
        names = [f"#{i}" for i in range(len(rows))]

        def gen_indices(value):
            if value == "-":
                return []
            out = []
            for item in _split_items(value):
                m = re.fullmatch(r"#(\d+)", item)
                if m is None or int(m.group(1)) >= len(rows):
                    raise ModelError(f"bad table element {item!r}")
                out.append(int(m.group(1)))
            return out

        return FiniteModel(
            name, "table", names, rows,
            gen_indices(fields["k"]),
            [gen_indices(v) for v in fields["level"]],
            corrupt=corrupt,
        )

    raise ModelError(f"unknown model kind {kind!r}")


def load_model(path) -> FiniteModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


def _perm_closure(gens, points):
    ident = perm_identity(points)
    out = {ident}
    frontier = [ident]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = perm_compose(p, g)
            if q not in out:
                if len(out) >= MAX_ORDER:
                    raise ModelError(f"group order exceeds {MAX_ORDER}")
                out.add(q)
                frontier.append(q)
    return sorted(out)


# --- the pair ----------------------------------------------------------------

_PERM_LITERAL = re.compile(r"\(\s*(?:\d+(?:\s+\d+)*)?\s*\)(?:\s*\(\s*(?:\d+(?:\s+\d+)*)?\s*\))*")
_TABLE_LITERAL = re.compile(r"#\d+")


class FiniteModelPair(CommensuratedPair):
    """Completion pair over a FiniteModel; elements are table indices.

    conj_depth is the least level that works, found by brute force over
    the whole coset — the reference behaviour the infinite instances'
    closed-form bounds are tested against.
    """

    def __init__(self, model: FiniteModel):
        self.model = model
        self.name = model.name
        self.max_depth = len(model.levels) - 1
        # per instance, so a dropped pair frees its cache with it
        self._least_conj_depth = cache(self._least_conj_depth)
        if model.kind == "perm":
            self.literal_pattern = _PERM_LITERAL
            points = model.points or 1
            self._perm_index = {
                perm_from_cycles(name, points): i
                for i, name in enumerate(model.names)
            }
        else:
            self.literal_pattern = _TABLE_LITERAL
            self._perm_index = {}

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
        if self.model.corrupt:
            return depth  # deliberately unsound; for oracle sensitivity tests
        return self._least_conj_depth(g, depth)

    def _least_conj_depth(self, g: int, depth: Depth) -> Depth:
        model = self.model
        level_d = model.levels[depth]
        coset = model.left_coset(g, level_d)
        for j in range(depth, self.max_depth + 1):
            if all(
                model.conj(x, n) in level_d and model.conj(model.inv(x), n) in level_d
                for x in coset
                for n in model.levels[j]
            ):
                return j
        raise ContractViolation(
            f"{self.name}: no chain level is uniformly conjugation-stable for "
            f"{model.names[g]} at depth {depth}"
        )

    def level_index(self, depth: Depth) -> int:
        return len(self.model.levels[0]) // len(self.model.levels[depth])

    def format_element(self, x: int) -> str:
        return self.model.names[x]

    def parse_literal(self, text: str) -> int:
        model = self.model
        if model.kind == "perm":
            try:
                perm = perm_from_cycles(text, model.points or 1)
            except ModelError as err:
                raise ValueError(str(err)) from None
            idx = self._perm_index.get(perm)
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
        coset = self.model.left_coset(x, self.model.levels[depth])
        return self.model.names[min(coset)]

    def validate(self, x) -> None:
        if not isinstance(x, int) or not 0 <= x < self.model.n:
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
        return rng.choice(sorted(self.model.levels[depth]))


def finite_model_pair(model: FiniteModel) -> FiniteModelPair:
    """Completion pair whose depth bounds are brute-forced from the model."""
    return FiniteModelPair(model)
