"""Exact finite-precision arithmetic in group completions along
commensurated subgroup chains, with brute-force oracles and a CLI.

The instance modules load when one of their names is first looked up
(PEP 562), so a start that needs one instance compiles only that one.
A served name is stored here, so later lookups are attribute reads.
``_LAZY`` alone maps a name to its module; ``registry`` builds pairs by name.
"""

from importlib import import_module

from .core import (
    CommensuratedPair,
    CompletionElement,
    CompletionError,
    ContractViolation,
    DiscreteTarget,
    PrecisionExhausted,
    Valuation,
)

_LAZY = {
    "BS12Pair": "bs12",
    "DyadicAffine": "bs12",
    "FactorialChainPair": "integers",
    "IntegerChainPair": "integers",
    "Mat2": "sl2",
    "SL2Pair": "sl2",
    "FiniteModel": "finitemodel",
    "FiniteModelPair": "finitemodel",
    "ModelError": "finitemodel",
    "finite_model_pair": "registry",
    "load_model": "finitemodel",
    "parse_model": "finitemodel",
}


def __getattr__(name: str):
    # any other name, a submodule's included, is left to the import system
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


__all__ = sorted([
    "CommensuratedPair",
    "CompletionElement",
    "CompletionError",
    "ContractViolation",
    "DiscreteTarget",
    "PrecisionExhausted",
    "Valuation",
    *_LAZY,
])
