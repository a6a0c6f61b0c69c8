"""Name-based lookup of instances.

Instance names: ``z<base>`` (integers, power chain), ``zfact``
(integers, factorial chain), ``bs12``, ``sl2:<p>`` (``sl2`` means p=2),
and ``model:<path>`` for a finite model file.  Each pair names and
builds its own discrete targets (``CommensuratedPair.target``).
"""

from __future__ import annotations

import re

from .bs12 import bs12_pair
from .core import CommensuratedPair, DiscreteTarget
from .finitemodel import finite_model_pair, load_model
from .integers import FACTORIAL, integers_pair
from .sl2 import sl2_pair

_Z_NAME = re.compile(r"z(\d+)")
_SL2_NAME = re.compile(r"sl2(?::(\d+))?")


def resolve_instance(name: str) -> CommensuratedPair:
    """Pair for an instance name; KeyError when the name matches nothing."""
    if name in ("zfact", "zfactorial"):
        return integers_pair(FACTORIAL)
    m = _Z_NAME.fullmatch(name)
    if m is not None:
        base = int(m.group(1))
        if base < 2:
            raise KeyError(f"instance {name!r}: base must be >= 2")
        return integers_pair(base)
    if name == "bs12":
        return bs12_pair()
    m = _SL2_NAME.fullmatch(name)
    if m is not None:
        return sl2_pair(int(m.group(1) or 2))
    if name.startswith("model:"):
        return finite_model_pair(load_model(name[len("model:"):]))
    raise KeyError(f"unknown instance {name!r}")


def resolve_target(pair: CommensuratedPair, name: str) -> DiscreteTarget:
    """Target for a name on this pair; KeyError with a reason otherwise."""
    # a function of its own so that bench/tracing.py can time target lookup
    return pair.target(name)


def builtin_instances() -> list[CommensuratedPair]:
    """The pairs shown by the `instances` command, in display order."""
    return [
        integers_pair(2),
        integers_pair(3),
        integers_pair(FACTORIAL),
        bs12_pair(),
        sl2_pair(2),
        sl2_pair(3),
    ]


INSTANCE_PATTERNS = [
    ("z<base>", "integers with the base**d chain"),
    ("zfact", "integers with the factorial chain"),
    ("bs12", "Baumslag-Solitar group BS(1,2)"),
    ("sl2:<p>", "SL2(Z[1/p]) with the congruence chain"),
    ("model:<path>", "finite model loaded from a model file"),
]
