"""Constrained online convex optimization with memory-dependent losses
and constraints: penalty-OGD and optimistic delayed-FTRL learners,
benchmark environments, and bound/metric calculators.

The package namespace holds the documented entry points; every other
name is imported from its module (`cocomem.core`, `cocomem.metrics`, ...).
"""

from .core import Variant
from .environments import (
    AppendixAInstance,
    NoisyPredictor,
    PerfectPredictor,
    SeparableLinearInstance,
    ZeroPredictor,
)
from .metrics import (
    RunTrace,
    best_in_hindsight,
    invariant_suite,
    regret_and_ccv,
    theorem_bound_report,
)
from .optimistic import run_doubling, run_optimistic
from .penalty import PenaltyKind
from .penalty_ogd import run_penalty_ogd

__all__ = [
    "AppendixAInstance",
    "NoisyPredictor",
    "PenaltyKind",
    "PerfectPredictor",
    "RunTrace",
    "SeparableLinearInstance",
    "Variant",
    "ZeroPredictor",
    "best_in_hindsight",
    "invariant_suite",
    "regret_and_ccv",
    "run_doubling",
    "run_optimistic",
    "run_penalty_ogd",
    "theorem_bound_report",
]
