"""The ``deep`` workload: engine operations at depths 256 to 65536.

Each request embeds one or two group elements through the library API
and then multiplies, inverts, compares (``valuation``) or asks for a
right representative.  The depth search and the valuation scan are on
the blocking path; parsing and formatting are absent.  Expected results
come from the closed forms in ``reference``: attained depth
min(d2, d1 - cost), d - cost for inverses, the quotient's level for
valuations, and the required depth when precision runs out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import reference as ref

INSTANCES = ("z2", "zfact", "bs12", "sl2:2", "sl2:3")
# requests per cell, per op, in a full batch; right_rep (one conj_depth
# call) and inverses outside sl2 take microseconds, so they are fewer and
# the median request is one that searches or scans
OPS = {"mul": 12, "inverse": 6, "valuation": 12, "right_rep": 4}
# per-instance cap on the agreement level of valuation inputs, which sets
# the scan length (each step does bigint or Fraction work that grows with d)
VALUATION_CAP = {"z2": 4096, "zfact": 200, "bs12": 2048, "sl2:2": 600, "sl2:3": 400}
# share of requests at an edge: precision runs out, or a valuation finds
# its inputs indistinguishable
EDGE_SHARE = 0.2


@dataclass
class Request:
    instance: str
    op: str
    x: object
    d1: int
    y: object = None
    d2: int = 0
    level: int = 0
    expect: tuple = ()


def _depth(u: float) -> int:
    """Depth log-uniform in [256, 65536] at quantile u."""
    return int(2 ** (8 + 8 * u))


def strata(n: int, key: str) -> list[float]:
    """One point from each of n equal strata of [0, 1), in order.

    The points' offset within their strata comes from ``key`` (batch,
    cell and draw), not from the seed, so request sizes repeat across
    seeds and the seed varies only the elements and words.  Callers
    pair strata by fixed rules rather than at random, so every batch has
    the same mix of cheap and costly requests.
    """
    offset = random.Random(key).random()
    return [(i + offset) / n for i in range(n)]


def is_edge(i: int, n: int, share: float) -> bool:
    """Whether stratum i of n is one of the evenly spaced share * n edges."""
    return int((i + 1) * share) > int(i * share)


class _Group:
    """Reference arithmetic and sampling for one instance."""

    def __init__(self, name: str):
        self.name = name
        if name in ("z2", "zfact"):
            self.base = 2 if name == "z2" else "fact"
            self.mul = lambda x, y: x + y
            self.inv = lambda x: -x
            self.cost = lambda x: 0
            self.level = lambda q: ref.int_valuation(self.base, q)
        elif name == "bs12":
            self.mul, self.inv, self.cost = ref.bs_mul, ref.bs_inv, ref.bs_cost
            self.level = ref.bs_level
        else:
            p = self.p = int(name.split(":")[1])
            self.mul, self.inv = ref.mat_mul, ref.mat_inv
            self.cost = lambda x: ref.mat_cost(p, x)
            self.level = lambda q: ref.mat_level(p, q)

    def sample(self, rng, cost: int):
        """A random element whose conjugation cost is about ``cost``."""
        if self.name in ("z2", "zfact"):
            return rng.randrange(-(1 << 64), 1 << 64)
        if self.name == "bs12":
            shift = Fraction(rng.randrange(-(1 << 20), 1 << 20), 1 << rng.randrange(0, 9))
            return (shift, cost * rng.choice((-1, 1)))
        p = self.p
        one, zero = Fraction(1), Fraction(0)
        out = (one, zero, zero, one)
        for _ in range(rng.randrange(3, 9)):
            k = rng.randrange(-5, 6)
            step = (one, Fraction(k), zero, one) if rng.randrange(2) else (one, zero, Fraction(k), one)
            out = self.mul(out, step)
        # h^v carries denominators p^v, so the cost is 2v
        v = cost // 2
        sign = rng.choice((-1, 1))
        h = (Fraction(p) ** (sign * v), zero, zero, Fraction(p) ** (-sign * v))
        return self.mul(out, h) if rng.randrange(2) else self.mul(h, out)

    def at_level(self, rng, w: int):
        """A quotient lying in chain level w and not in level w + 1."""
        if self.name in ("z2", "zfact"):
            if self.base == "fact":
                w = max(w, 1)  # 0! = 1!: levels 0 and 1 coincide
            k = rng.randrange(1, 1 << 20)
            while self.level(ref.int_modulus(self.base, w) * k) != w:
                k += 1
            return ref.int_modulus(self.base, w) * k
        if self.name == "bs12":
            return (Fraction((2 * rng.randrange(1, 1 << 16) + 1) << w), 0)
        p = self.p
        a = rng.randrange(1, 1 << 16)
        a += a % p == 0
        b = rng.randrange(0, 1 << 16)
        one, zero = Fraction(1), Fraction(0)
        upper = (one, Fraction(a * p ** w), zero, one)
        lower = (one, zero, Fraction(b * p ** w), one)
        return self.mul(upper, lower)


def _small_cost(rng) -> int:
    return rng.randrange(1, 41)


def make_request(group: _Group, op: str, rng, u, edge: bool) -> Request:
    """A request of one cell; u holds three uniforms from the cell's strata."""
    name = group.name
    if op == "mul":
        # the search scans from d2 down to d1 - cost: the gap grows with
        # d2, and a quarter of the strata have d1 > d2 (no scan)
        d1, d2 = _depth(min(1.0, u[0] * (0.25 + u[1]))), _depth(u[0])
        cost = _small_cost(rng)
        if edge and name not in ("z2", "zfact"):
            # an exhausted product scans all d2 + 1 levels, each at a cost
            # that grows with the conjugation cost, so d2 stays small here
            d1, d2 = 256 + int(256 * u[0]), 256 + int(768 * u[1])
            cost = d1 + rng.randrange(1, 64)
        x = group.sample(rng, _small_cost(rng))
        y = group.sample(rng, cost)
        d = ref.product_depth(d1, d2, group.cost(y))
        expect = ("exhausted", group.cost(y)) if d is None else (group.mul(x, y), d)
        return Request(name, op, x, d1, y, d2, expect=expect)
    if op == "inverse":
        d1 = _depth(u[0])
        cost = _small_cost(rng)
        if edge and name not in ("z2", "zfact"):
            d1 = 256 + int(256 * u[0])
            cost = d1 + rng.randrange(1, 64)
        x = group.sample(rng, cost)
        d = ref.inverse_depth(d1, group.cost(x))
        expect = ("exhausted", group.cost(x)) if d is None else (group.inv(x), d)
        return Request(name, op, x, d1, expect=expect)
    if op == "right_rep":
        d1 = _depth(u[0])
        x = group.sample(rng, _small_cost(rng))
        cost = group.cost(x)
        if edge:
            level = max(0, d1 - cost) + rng.randrange(1, 17)
        else:
            level = int(u[1] * (d1 - cost + 1))
        need = level + cost
        expect = ("exhausted", need) if need > d1 else (x,)
        return Request(name, op, x, d1, level=level, expect=expect)
    # valuation: y = x * n with n at a chosen level, or y = x with small caps
    d1, d2 = _depth(u[0]), _depth(u[1])
    x = group.sample(rng, _small_cost(rng))
    if edge:
        d1 = d2 = 256 + int(256 * u[0])
        y = x
    else:
        top = min(VALUATION_CAP[name], min(d1, d2) - 1)
        y = group.mul(x, group.at_level(rng, int(u[2] * (top + 1))))
    level = group.level(group.mul(group.inv(x), y))
    expect = ref.valuation(level, min(d1, d2))
    return Request(name, op, x, d1, y, d2, expect=expect)


class Workload:
    def __init__(self, root, out_dir, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny

    @staticmethod
    def setup_names() -> list[str]:
        return list(INSTANCES)

    def generate(self, batch: int) -> list[Request]:
        """Batch ``batch`` of a run: OPS[op] requests for every instance and op."""
        rng = random.Random(f"deep:{self.seed}:{batch}")
        out = []
        for name in INSTANCES:
            group = _Group(name)
            for op, n in OPS.items():
                n = 1 if self.tiny else n
                a, b, c = (strata(n, f"{batch}:{name}:{op}:{k}") for k in range(3))
                # strata pair by fixed rules (the second uniform falls as
                # the first rises), so the costliest requests of a cell,
                # a long downward search, are the same few in every batch
                out += [
                    make_request(group, op, rng, (a[i], 1 - b[i], c[i]), is_edge(i, n, EDGE_SHARE))
                    for i in range(n)
                ]
        rng.shuffle(out)
        return out


class Runner:
    """Executes deep requests against the library; built after import."""

    def __init__(self):
        from commensurate.bs12 import DyadicAffine
        from commensurate.core import PrecisionExhausted
        from commensurate.registry import resolve_instance
        from commensurate.sl2 import Mat2

        self.pairs = {name: resolve_instance(name) for name in INSTANCES}
        self.exhausted = PrecisionExhausted
        self.types = {"bs12": DyadicAffine, "sl2:2": Mat2, "sl2:3": Mat2}
        self.out_bytes = 0

    def prepare(self, requests: list[Request]) -> list:
        """Convert reference tuples into the program's element types."""
        out = []
        for req in requests:
            kind = self.types.get(req.instance)
            x = kind(*req.x) if kind else req.x
            y = kind(*req.y) if kind and req.y is not None else req.y
            out.append((self.pairs[req.instance], req.op, x, req.d1, y, req.d2, req.level))
        return out

    def execute(self, job):
        pair, op, x, d1, y, d2, level = job
        try:
            f = pair.embed(x, d1)
            if op == "mul":
                r = f * pair.embed(y, d2)
                return (r.rep, r.depth)
            if op == "inverse":
                r = f.inverse()
                return (r.rep, r.depth)
            if op == "valuation":
                v = f.valuation(pair.embed(y, d2))
                return (v.depth, v.indistinguishable)
            return (f.right_rep(level),)
        except self.exhausted as err:
            return ("exhausted", err.required_depth)

    @staticmethod
    def check(requests: list[Request], index: int, result) -> bool:
        return tuple(result) == tuple(requests[index].expect)
