"""Exact finite-precision arithmetic in group completions along
commensurated subgroup chains, with brute-force oracles and a CLI."""

from .bs12 import BS12Pair, DyadicAffine
from .core import (
    CommensuratedPair,
    CompletionElement,
    CompletionError,
    ContractViolation,
    DiscreteTarget,
    PrecisionExhausted,
    Valuation,
)
from .finitemodel import (
    FiniteModel,
    FiniteModelPair,
    ModelError,
    finite_model_pair,
    load_model,
    parse_model,
)
from .integers import FACTORIAL, IntegerChainPair
from .sl2 import Mat2, SL2Pair

__all__ = [
    "BS12Pair",
    "CommensuratedPair",
    "CompletionElement",
    "CompletionError",
    "ContractViolation",
    "DiscreteTarget",
    "DyadicAffine",
    "FACTORIAL",
    "FiniteModel",
    "FiniteModelPair",
    "IntegerChainPair",
    "Mat2",
    "ModelError",
    "PrecisionExhausted",
    "SL2Pair",
    "Valuation",
    "finite_model_pair",
    "load_model",
    "parse_model",
]
