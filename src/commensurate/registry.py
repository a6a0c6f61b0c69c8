"""The instance table: names, patterns, listed instances.

Instance names: ``z<base>`` (integers, power chain), ``zfact``
(integers, factorial chain), ``bs12``, ``sl2:<p>`` (``sl2`` means p=2),
and ``model:<path>`` for a finite model file.  Each pair names and
builds its own discrete targets (``CommensuratedPair.target``).  A new
instance is one pair class plus one row of ``_INSTANCES``.
"""

from __future__ import annotations

import re
from importlib import import_module
from types import ModuleType
from typing import Callable, NamedTuple

from .core import CommensuratedPair, DiscreteTarget, quoted, read_int


class _Instance(NamedTuple):
    name: re.Pattern  # matched in full against the requested name
    module: str  # defines the pair; imported when the row first builds one
    build: Callable[[ModuleType, re.Match], CommensuratedPair]
    pattern: str  # what `instances` prints for the name ...
    description: str  # ... and beside it
    listed: tuple[str, ...]  # the names `instances` lists


def load_model(path):
    """``finitemodel.load_model``; the module loads on the first call."""
    from .finitemodel import load_model

    return load_model(path)


def finite_model_pair(model):
    """``finitemodel.FiniteModelPair(model)``; the module loads on the first call."""
    from .finitemodel import FiniteModelPair

    return FiniteModelPair(model)


_INSTANCES = (
    _Instance(re.compile(r"z(\d+)"), "integers",
              lambda mod, m: mod.IntegerChainPair(read_int(m.group(1), "instance name")),
              "z<base>", "integers with the base**d chain", ("z2", "z3")),
    _Instance(re.compile(r"zfact(?:orial)?"), "integers",
              lambda mod, m: mod.FactorialChainPair(),
              "zfact", "integers with the factorial chain", ("zfact",)),
    _Instance(re.compile(r"bs12"), "bs12", lambda mod, m: mod.BS12Pair(),
              "bs12", "Baumslag-Solitar group BS(1,2)", ("bs12",)),
    _Instance(re.compile(r"sl2(?::(\d+))?"), "sl2",
              lambda mod, m: mod.SL2Pair(read_int(m.group(1) or "2", "instance name")),
              "sl2:<p>", "SL2(Z[1/p]) with the congruence chain", ("sl2:2", "sl2:3")),
    # a lambda body looks both names up per call, where bench/tracing.py wraps them
    _Instance(re.compile(r"model:(.*)", re.DOTALL), "finitemodel",
              lambda mod, m: finite_model_pair(load_model(m.group(1))),
              "model:<path>", "finite model loaded from a model file", ()),
)


def resolve_instance(name: str) -> CommensuratedPair:
    """Pair for an instance name; ValueError when the name matches nothing."""
    for row in _INSTANCES:
        m = row.name.fullmatch(name)
        if m is not None:
            return row.build(import_module(f".{row.module}", __package__), m)
    raise ValueError(f"unknown instance {quoted(name)}")


def resolve_target(pair: CommensuratedPair, name: str) -> DiscreteTarget:
    """Target for a name on this pair; ValueError with a reason otherwise."""
    # a function of its own so that bench/tracing.py can time target lookup
    return pair.target(name)


def builtin_instances() -> list[CommensuratedPair]:
    """The pairs shown by the `instances` command, in display order."""
    return [resolve_instance(name) for row in _INSTANCES for name in row.listed]


INSTANCE_PATTERNS = [(row.pattern, row.description) for row in _INSTANCES]
