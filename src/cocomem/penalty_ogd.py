"""Penalty-driven online gradient descent: the no-prediction learner.

Each round the learner observes the current loss/constraint pair,
accumulates the (lifted) constraint violation, and descends the
memory-less surrogate

    L_t(x) = f_t(x,...,x) + Phi'(V_t) * max(g_t(x,...,x), 0)

with the adaptive step  |X| / (sqrt(2) * sqrt(sum of squared surrogate
gradient norms)).  The dual update precedes the gradient so the
multiplier Phi'(V_t) reflects the current round's violation.
"""

from __future__ import annotations

import math

import numpy as np

from .core import MemoryFunctionOracle, Variant, round_table, splat
from .geometry import project
from .metrics import RunTrace
from .penalty import LambdaSchedule, Penalty, PenaltyKind, lambda_quadratic


def surrogate_gradient(
    loss: MemoryFunctionOracle,
    constraint: MemoryFunctionOracle,
    x: np.ndarray,
    phi_prime: float,
) -> np.ndarray:
    """grad f(x,..,x) + Phi'(V) * grad g+(x,..,x); the hinge subgradient is
    zero whenever the lifted constraint value is <= 0."""
    grad = loss.grad_splat(x)
    if phi_prime != 0.0 and constraint.value_splat(x) > 0.0:
        grad = grad + phi_prime * constraint.grad_splat(x)
    return grad


def adaptive_step(diameter: float, grad_sq_sum: float) -> float:
    """|X| / (sqrt(2) sqrt(sum_tau ||grad||^2)); zero while no gradient has
    been seen, so the update is a no-op."""
    if grad_sq_sum <= 0.0:
        return 0.0
    return diameter / (math.sqrt(2.0) * math.sqrt(grad_sq_sum))


class PenaltyOgdLearner:
    """Single-run learner state; one instance per (config, seed).  It
    plays `n_rounds` rounds and writes the k-th into row k of `records`."""

    def __init__(self, fset, memory: int, variant: Variant, kind: PenaltyKind,
                 schedule: LambdaSchedule, n_rounds: int):
        self.fset = fset
        self.m = memory
        self.variant = variant
        self.kind = kind
        self.schedule = schedule
        self.x = fset.center
        self.window = splat(self.x, memory)
        self.grad_sq_sum = 0.0
        self.v_dual = 0.0
        self.ccv = 0.0
        self.records = round_table(n_rounds, fset.dim)
        self.played = 0

    def play_round(self, t: int, loss: MemoryFunctionOracle,
                   constraint: MemoryFunctionOracle) -> np.record:
        if loss.dim != self.fset.dim or constraint.dim != self.fset.dim:
            raise ValueError("oracle dimension does not match the feasible set")
        if loss.memory != self.m or constraint.memory != self.m:
            raise ValueError("oracle memory length does not match the learner")
        x = self.x
        f_mem = loss.value(self.window)
        f_spl = loss.value_splat(x)
        g_spl = constraint.value_splat(x)
        if self.variant is Variant.COCO_M2:
            g_mem = constraint.value(self.window)
        else:
            g_mem = g_spl
        g_plus = max(g_mem, 0.0)

        # dual update first: the multiplier sees this round's violation
        self.v_dual += max(g_spl, 0.0)
        v = self.v_dual
        self.ccv += g_plus

        lam = self.schedule.at(t)
        pen = Penalty(self.kind, lam)
        phi_prime = pen.prime(v)
        grad = surrogate_gradient(loss, constraint, x, phi_prime)
        self.grad_sq_sum += float(grad @ grad)
        eta = adaptive_step(self.fset.diameter, self.grad_sq_sum)
        x_next = project(self.fset, x - eta * grad)

        row = self.played
        self.records[row] = (
            t, x, f_mem, f_spl, g_mem, g_spl, g_plus, v, self.ccv, phi_prime, lam,
            f_spl + phi_prime * max(g_spl, 0.0), float(np.linalg.norm(grad)), eta,
            0.0, 0.0, 0.0, pen.saturates(v),
        )
        self.played += 1
        self.x = x_next
        self.window.push(x_next)
        return self.records[row]


def run_penalty_ogd(
    instance,
    variant: Variant,
    kind: PenaltyKind = PenaltyKind.QUADRATIC,
    schedule: LambdaSchedule | None = None,
) -> RunTrace:
    """Drive the learner over the instance's rounds and collect the trace."""
    if schedule is None:
        schedule = LambdaSchedule("fixed", lambda_quadratic(instance.horizon))
    first = instance.first_round
    learner = PenaltyOgdLearner(instance.fset, instance.m, variant, kind, schedule,
                                instance.horizon - first + 1)
    for t in range(first, instance.horizon + 1):
        learner.play_round(t, instance.loss(t), instance.constraint(t))
    return RunTrace(
        algorithm="penalty_ogd",
        variant=variant,
        penalty_kind=kind,
        records=learner.records,
        instance=instance,
        first_round=first,
        extras={"lambda_mode": schedule.mode, "lambda_value": schedule.value},
    )
