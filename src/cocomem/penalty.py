"""Penalty functions applied to cumulative violation, and the
theorem-prescribed penalty parameters.

Two shapes are supported: quadratic  lam * V^2  and exponential
exp(lam * V) - 1.  Both are nonnegative, convex, increasing, and vanish
at V = 0; their derivative scales the constraint term of the surrogate
the learners descend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# exp argument cap; a binding cap signals misconfiguration (the theorem
# tunings keep lam*V at O(log T)), and `saturated` reads it from a trace's
# `lam` and `v_dual` columns.
EXP_CAP = 700.0


class PenaltyKind(Enum):
    QUADRATIC = "quadratic"
    EXPONENTIAL = "exponential"


def check_lambda(lam) -> None:
    """Raise unless the penalty parameter is positive and finite (None is
    not); an array of per-round parameters is checked element by element."""
    lam = np.asarray(lam, dtype=float)
    if not np.all((lam > 0) & np.isfinite(lam)):
        raise ValueError("penalty parameter must be positive and finite")


def phi_prime(kind: PenaltyKind, lam: float, v: float) -> float:
    """Phi'(v) for a checked parameter and v >= 0: the formula behind
    `Penalty.prime`, callable without building a `Penalty` per round."""
    if kind is PenaltyKind.QUADRATIC:
        return 2.0 * lam * v
    return lam * math.exp(min(lam * v, EXP_CAP))


def saturated(kind: PenaltyKind, lam, v):
    """Whether Phi'(v) hit the exponent cap; with arrays of per-round lam
    and v it flags each round."""
    return kind is PenaltyKind.EXPONENTIAL and lam * v > EXP_CAP


@dataclass(frozen=True)
class Penalty:
    kind: PenaltyKind
    lam: float

    def __post_init__(self):
        check_lambda(self.lam)

    def value(self, v: float) -> float:
        if v < 0:
            raise ValueError("cumulative violation must be >= 0")
        if self.kind is PenaltyKind.QUADRATIC:
            return self.lam * v * v
        return math.exp(min(self.lam * v, EXP_CAP)) - 1.0

    def prime(self, v: float) -> float:
        if v < 0:
            raise ValueError("cumulative violation must be >= 0")
        return phi_prime(self.kind, self.lam, v)


# ---------------------------------------------------------------------------
# Theorem-prescribed penalty parameters


def lambda_quadratic(horizon: int) -> float:
    """lam = 1/sqrt(T): the quadratic-penalty tuning, whether or not the
    constraints have memory."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return 1.0 / math.sqrt(horizon)


def lambda_exponential_short_memory(
    horizon: int, memory: int, diameter: float, l_f: float, l_g: float
) -> float:
    """lam = 0.5 / (sqrt(2T)*|X|*L_g + m^1.5*|X|*sqrt(T*L_f*L_g)): the
    exponential-penalty tuning for short memory windows."""
    denom = math.sqrt(2 * horizon) * diameter * l_g + memory**1.5 * diameter * math.sqrt(
        horizon * l_f * l_g
    )
    if not (denom > 0 and math.isfinite(denom)):
        raise ValueError("nonpositive or non-finite tuning denominator")
    return 0.5 / denom


def lambda_theorem(kind: PenaltyKind, instance) -> float:
    """Penalty OGD's theorem lam on the instance: `lambda_quadratic` under
    the quadratic penalty, the short-memory tuning under the exponential."""
    if kind is PenaltyKind.QUADRATIC:
        return lambda_quadratic(instance.horizon)
    T, m, k = instance.horizon, instance.m, instance.constants()
    return lambda_exponential_short_memory(T, m, instance.fset.diameter, k.l_f, k.l_g)


def lambda_optimistic(budget: float, offset: float) -> float:
    """lam = 1 / (2 (budget + offset)), the optimistic learner's tuning:
    budget C sqrt(E) for an estimate E of the cumulative constraint
    prediction error, or the doubling trick's; offset G d, d the dual delay."""
    denom = 2.0 * (budget + offset)
    if not (denom > 0 and math.isfinite(denom)):
        raise ValueError("nonpositive or non-finite tuning denominator")
    return 1.0 / denom


def short_memory_condition(horizon: int, memory: int) -> bool:
    """m <= T^(1/6) / (log T)^(1/3): when the exponential tuning's CCV
    improvement applies."""
    if horizon < 2:
        return memory == 0
    return memory <= horizon ** (1.0 / 6.0) / math.log(horizon) ** (1.0 / 3.0)

