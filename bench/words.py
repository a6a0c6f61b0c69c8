"""The ``words`` workload: CLI ``eval``, ``table`` and ``psi`` on random words.

Each request calls the in-process ``cli.entry`` with stdout and stderr
captured.  Words have 5 to 200 factors: generators, literals, exact
powers up to about 10^4, parenthesised subwords and at most one
truncated part (``inv(embed(g))^k``, ``embed(w)`` or ``inv(w)``).
Depth stays at most 16, where the depth search takes at most 17 steps,
so parsing, exact group products and formatting dominate.

Every word has a twin that is equal in G because a relator or x*x^-1 is
inserted as one more factor; the twin's output must be byte-identical.
The original's exit code, attained depth, representative and psi value
are also predicted by the reference arithmetic.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import reference as ref
from deep import is_edge, strata

MODELS = {"s4": "models/s4.model", "z8": "models/z8.model"}
INSTANCES = ("bs12", "sl2:2", "sl2:3", "z2", "z3", "zfact") + tuple(
    f"model:{path}" for path in MODELS.values()
)
MAX_DEPTH = 16
MAX_BITS = 12000
# share of factors raised to a small power, and of words with one large
# power of an atom (up to 10^max_exp), which the engine multiplies out
# one factor at a time; at most one large power keeps the tail bounded
POWER_SHARE = 0.1
BIG_POWER_SHARE = 0.5
TRUNC_SHARE = 0.5


class _Group:
    """Reference arithmetic, atoms and relators for one instance."""

    def __init__(self, instance: str):
        self.instance = instance
        self.max_depth = MAX_DEPTH
        self.trunc = ("power", "embed", "inv")
        self.trunc_last = False
        self.cost = lambda x: 0
        self.bits = lambda x: 0
        self.targets = None
        one, zero = Fraction(1), Fraction(0)
        if instance == "bs12":
            self.identity = (zero, 0)
            self.mul, self.inv, self.cost, self.fmt = ref.bs_mul, ref.bs_inv, ref.bs_cost, ref.bs_format
            self.gens = {"a": (one, 0), "t": (zero, 1)}
            self.relators = ["(t*a*t^-1*a^-2)", "(a^-2*t*a*t^-1)"]
            self.targets = lambda rng: ("texp", 0, lambda x: x[1])
            # level reps reduce the shift mod 2^(texp + depth)
            self.bits = lambda x: max(
                x[0].numerator.bit_length(), x[0].denominator.bit_length(), abs(x[1])
            ) + MAX_DEPTH
            self.max_exp = 4
        elif instance.startswith("sl2"):
            p = int(instance.split(":")[1])
            self.identity = (one, zero, zero, one)
            self.mul, self.inv, self.fmt = ref.mat_mul, ref.mat_inv, ref.mat_format
            self.cost = lambda x: ref.mat_cost(p, x)
            self.bits = lambda x: max(
                max(q.numerator.bit_length(), q.denominator.bit_length()) for q in x
            )
            self.gens = {
                "u": (one, one, zero, one),
                "l": (one, zero, one, one),
                "h": (Fraction(p), zero, zero, Fraction(1, p)),
            }
            self.relators = ["(u*l^-1*u)^4", f"(h*u*h^-1*u^-{p * p})"]
            self.max_exp = 3
        elif instance.startswith("z"):
            base = "fact" if instance == "zfact" else int(instance[1:])
            self.identity = 0
            self.mul, self.inv, self.fmt = (lambda x, y: x + y), (lambda x: -x), str
            self.bits = int.bit_length
            self.gens = {}
            self.relators = []
            self.max_exp = 4

            def target(rng):
                if base == "fact":
                    m = rng.randrange(2, 41)
                else:
                    m = base ** rng.randrange(1, 6 if base == 2 else 4)
                return f"mod:{m}", ref.kill_level(base, m), lambda x: x % m

            self.targets = target
        elif instance.endswith(MODELS["s4"]):
            self.identity = tuple(range(4))
            self.mul, self.inv, self.fmt = ref.perm_mul, ref.perm_inv, ref.perm_format
            self.gens = {}
            self.relators = ["(1 2)^2", "(1 2 3)^3", "(1 2 3 4)^4"]
            self.max_depth = 2
            # s4 is not abelian and its depth bounds are brute-forced, which
            # the reference does not repeat: only a final embed(w), which
            # keeps the requested depth, is predicted
            self.trunc = ("embed",)
            self.trunc_last = True
            self.max_exp = 4
        else:
            self.identity = 0
            self.mul, self.inv = (lambda x, y: (x + y) % 8), (lambda x: -x % 8)
            self.fmt = lambda x: f"#{x}"
            self.gens = {}
            self.relators = ["(#3*#5)", "#2^4", "#1^8"]
            self.max_depth = 3
            self.max_exp = 4

    def atom(self, rng):
        """(text, value) of a generator or literal."""
        inst = self.instance
        if self.gens and rng.random() < 0.6:
            name = rng.choice(sorted(self.gens))
            return name, self.gens[name]
        if inst == "bs12":
            n, j, m = rng.randrange(-99, 100), rng.randrange(0, 4), rng.randrange(-3, 4)
            text = f"({n}; {m})" if j == 0 else f"({n}/{1 << j}; {m})"
            return text, (Fraction(n, 1 << j), m)
        if inst.startswith("sl2"):
            value = self.identity
            for _ in range(rng.randrange(2, 5)):
                g = self.gens[rng.choice("ulh")]
                value = self.mul(value, g if rng.randrange(2) else self.inv(g))
            return self.fmt(value), value
        if inst.startswith("z"):
            k = rng.choice((-1, 1)) * rng.randrange(1, 1000)
            return (f"({k})" if k < 0 else str(k)), k
        if inst.endswith(MODELS["s4"]):
            while True:
                p = list(range(4))
                rng.shuffle(p)
                p = tuple(p)
                if p != self.identity:
                    return ref.perm_format(p), p
        k = rng.randrange(1, 8)
        return f"#{k}", k

    def power(self, x, k):
        return ref.power(self.mul, self.identity, self.inv, x, k)

    def identity_factor(self, rng) -> str:
        if self.relators and rng.randrange(2):
            return rng.choice(self.relators)
        text, _ = self.atom(rng)
        return f"({text}*{text}^-1)" if rng.randrange(2) else f"({text}^-1*{text})"


def _subword(g: _Group, rng, n_atoms: int):
    """Top-level exact factors [(text, value)] with n_atoms atoms in all."""
    factors = []
    while n_atoms > 0:
        size = min(n_atoms, rng.choice((1, 1, 1, 2, 3, 5)))
        n_atoms -= size
        atoms = [g.atom(rng) for _ in range(size)]
        text = "*".join(t for t, _ in atoms)
        value = g.identity
        for _, v in atoms:
            value = g.mul(value, v)
        if size > 1:
            text = f"({text})"
        if rng.random() < POWER_SHARE:
            k = rng.randrange(2, 21) * rng.choice((-1, 1))
            text, value = f"{text}^{k}", g.power(value, k)
        factors.append((text, value))
    return factors


@dataclass
class Word:
    """A word as top-level factors; one may be truncated."""

    factors: list  # (text, value, trunc) with trunc None or (kind, arg)

    def text(self) -> str:
        return "*".join(f[0] for f in self.factors)


def _trunc_factor(g: _Group, rng):
    kind = rng.choice(g.trunc)
    if kind == "power":
        text, value = g.atom(rng)
        k = rng.randrange(1, 13)
        return (f"inv(embed({text}))^{k}", g.power(g.inv(value), k), ("power", (value, k)))
    inner = _subword(g, rng, rng.randrange(1, 6))
    text = "*".join(t for t, _ in inner)
    value = g.identity
    for _, v in inner:
        value = g.mul(value, v)
    if kind == "embed":
        return (f"embed({text})", value, ("embed", value))
    return (f"inv({text})", g.inv(value), ("inv", value))


def predict(g: _Group, word: Word, depth: int):
    """(value, attained depth) of the word, or ("exhausted", required depth).

    Exact factors multiply exactly.  An exact left part lifts to keep the
    truncated side's depth; each exact factor right of a truncated value
    costs its own conjugation cost.
    """
    value, attained = g.identity, None
    for _, v, trunc in word.factors:
        if trunc is None:
            if attained is not None:
                c = g.cost(v)
                if c > attained:
                    return ("exhausted", c)
                attained -= c
            value = g.mul(value, v)
            continue
        kind, arg = trunc
        if kind == "embed":
            t_depth = depth
        elif kind == "inv":
            c = g.cost(arg)
            if c > depth:
                return ("exhausted", c)
            t_depth = depth - c
        else:
            base, k = arg
            c = g.cost(base)
            if c > depth:
                return ("exhausted", c)
            e = t_depth = depth - c
            for _ in range(k - 1):
                t_depth = ref.product_depth(t_depth, e, c)
                if t_depth is None:
                    return ("exhausted", c)
        value, attained = g.mul(value, v), t_depth
    return value, depth if attained is None else attained


@dataclass
class Request:
    argv: list
    twin_of: int = -1  # index of the original within the batch, -1 if original
    expect: tuple = ()  # (exit code, detail) for originals


COMMANDS = ("eval", "eval-json", "table", "psi")


def _make_pair(g: _Group, command: str, rng, u, big: bool, trunc: bool):
    """(argv, twin argv, expectation); u holds three uniforms from the cell's strata."""
    while True:
        n_atoms = int(5 * 40 ** u[0])
        n_trunc = 1 if g.trunc and trunc else 0
        factors = [(t, v, None) for t, v in _subword(g, rng, n_atoms - n_trunc)]
        if big:
            text, value = g.atom(rng)
            k = int(10 ** (2 + (g.max_exp - 2) * u[1])) * rng.choice((-1, 1))
            factors[rng.randrange(len(factors))] = (f"{text}^{k}", g.power(value, k), None)
        if n_trunc:
            at = len(factors) if g.trunc_last else rng.randrange(len(factors) + 1)
            factors.insert(at, _trunc_factor(g, rng))
        word = Word(factors)
        depth = int(u[2] * (g.max_depth + 1))
        value, attained = predict(g, word, depth)
        # Python refuses to print integers over 4300 digits, and the CLI
        # fails on such values; that defect is out of this workload's scope
        if value == "exhausted" or g.bits(value) <= MAX_BITS:
            break
    twin_factor = g.identity_factor(rng)
    twin = Word(list(factors))
    twin.factors.insert(rng.randrange(len(factors) + 1), (twin_factor, g.identity, None))
    inst = g.instance
    if command == "psi":
        target, kill, phi = g.targets(rng)
        head = ["psi", inst, target]
        if value == "exhausted":
            expect = (3, attained)
        elif attained < kill:
            expect = (3, kill)
        else:
            expect = (0, f"{phi(value)}\n")
    else:
        head = [command.split("-")[0], inst]
        if value == "exhausted":
            expect = (3, attained)
        else:
            expect = (0, (depth, attained, g.fmt(value)))
    tail = ["--depth", str(depth)] + (["--json"] if command == "eval-json" else [])
    return head + [word.text()] + tail, head + [twin.text()] + tail, expect


class Workload:
    def __init__(self, root, out_dir, seed: int, tiny: bool):
        self.seed = seed
        self.per_cell = 1 if tiny else 6

    @staticmethod
    def setup_names() -> list[str]:
        return list(INSTANCES)

    def generate(self, batch: int) -> list[Request]:
        """per_cell original/twin pairs for every instance and command."""
        rng = random.Random(f"words:{self.seed}:{batch}")
        n = self.per_cell
        pairs = []
        for inst in INSTANCES:
            g = _Group(inst)
            for command in COMMANDS:
                if command == "psi" and g.targets is None:
                    continue
                a, b, c = (strata(n, f"{batch}:{inst}:{command}:{k}") for k in range(3))
                pairs += [
                    (command, _make_pair(
                        g, command, rng, (a[i], b[n - 1 - i], c[(i + n // 2) % n]),
                        is_edge(i, n, BIG_POWER_SHARE), is_edge(n - 1 - i, n, TRUNC_SHARE),
                    ))
                    for i in range(n)
                ]
        rng.shuffle(pairs)
        out = []
        for command, (argv, twin_argv, expect) in pairs:
            out.append(Request(argv, expect=(command,) + expect))
            out.append(Request(twin_argv, twin_of=len(out) - 1))
        return out


def _check_original(req: Request, result) -> bool:
    code, out, err = result
    command, want_code, detail = req.expect
    if code != want_code:
        return False
    if want_code == 3:
        return out == "" and err.startswith("error: ") and err.endswith(
            f"(required depth {detail})\n"
        )
    if err:
        return False
    if command == "psi":
        return out == detail
    requested, attained, rep = detail
    if command == "eval-json":
        payload = json.loads(out)
        return (
            payload["requested_depth"] == requested
            and payload["attained_depth"] == attained
            and payload["rep"] == rep
            and [row["level"] for row in payload["levels"]] == list(range(attained + 1))
        )
    lines = out.splitlines()
    if command == "eval":
        head = [
            f"instance: {req.argv[1]}",
            f"requested depth: {requested}",
            f"attained depth: {attained}",
            f"rep: {rep}",
        ]
        if lines[:4] != head:
            return False
        lines = lines[4:]
    return len(lines) == attained + 1 and all(
        line.startswith(f"level {d}: ") for d, line in enumerate(lines)
    )


class Runner:
    """Runs requests through the in-process CLI; built after import."""

    def __init__(self):
        from commensurate import cli

        self.cli = cli
        self.results = {}
        self.out_bytes = 0

    def prepare(self, requests: list[Request]) -> list:
        self.results = {}
        return [req.argv for req in requests]

    def execute(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.entry(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, requests: list[Request], index: int, result) -> bool:
        """Originals against the reference, twins byte for byte against originals."""
        req = requests[index]
        self.out_bytes += len(result[1].encode()) + len(result[2].encode())
        if req.twin_of < 0:
            self.results[index] = result
            return _check_original(req, result)
        return result == self.results.pop(req.twin_of, None)
