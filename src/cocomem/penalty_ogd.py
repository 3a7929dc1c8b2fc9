"""Penalty-driven online gradient descent: the no-prediction learner.

Each round the learner observes the current loss/constraint pair,
accumulates the (lifted) constraint violation, and descends the
memory-less surrogate

    L_t(x) = f_t(x,...,x) + Phi'(V_t) * max(g_t(x,...,x), 0)

with the adaptive step  |X| / (sqrt(2) * sqrt(sum of squared surrogate
gradient norms)).  The dual update precedes the gradient so the
multiplier Phi'(V_t) reflects the current round's violation.

`run_penalty_ogd` plays every round in Python floats: it reads each
round's coefficient rows through the instance family's
`round_evaluator`, computes Phi' with `penalty.phi_prime`, steps with
`geometry.point_step` and writes each round's row of the trace table as
it plays it, in the row order `PenaltyOgdLearner` uses.
`PenaltyOgdLearner` is the reference implementation on the oracle
protocol (`loss(t)` / `constraint(t)` objects, `Penalty`, `project`); the
tests hold the float loop to it, bit for bit in 1-D with m <= 6.
"""

from __future__ import annotations

import math

import numpy as np

from .core import MemoryFunctionOracle, Variant, fdot, round_table
from .geometry import point_step, project
from .metrics import RunTrace
from .penalty import Penalty, PenaltyKind, check_lambda, lambda_theorem, phi_prime

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
    plays one round per entry of `lams`, the k-th with lambda `lams[k]`,
    and writes it into row k of `records`.  `window` is the (m+1, d) array
    of the last m+1 decisions, oldest first, with the set center standing
    in before the first round."""

    def __init__(self, fset, memory: int, variant: Variant, kind: PenaltyKind,
                 lams: list[float]):
        self.fset = fset
        self.m = memory
        self.variant = variant
        self.kind = kind
        self.lams = lams
        self.x = fset.center
        self.window = np.tile(self.x, (memory + 1, 1))
        self.grad_sq_sum = 0.0
        self.v_dual = 0.0
        self.ccv = 0.0
        self.records = round_table(len(lams), fset.dim)
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

        row = self.played
        lam = self.lams[row]
        phi_prime = Penalty(self.kind, lam).prime(v)
        grad = surrogate_gradient(loss, constraint, x, phi_prime)
        self.grad_sq_sum += float(grad @ grad)
        eta = adaptive_step(self.fset.diameter, self.grad_sq_sum)
        x_next = project(self.fset, x - eta * grad)

        self.records[row] = (
            t, x, f_mem, f_spl, g_mem, g_spl, g_plus, v, self.ccv, phi_prime, lam,
            float(np.linalg.norm(grad)), eta, 0.0, 0.0, 0.0,
        )
        self.played += 1
        self.x = x_next
        self.window[:-1] = self.window[1:]
        self.window[-1] = x_next
        return self.records[row]


def run_penalty_ogd(
    instance,
    variant: Variant,
    kind: PenaltyKind = PenaltyKind.QUADRATIC,
    lam: float | np.ndarray | None = None,
) -> RunTrace:
    """Play the instance's rounds in Python floats and collect the trace.

    `lam` is the penalty parameter: None for the theorem's
    (`lambda_theorem`), a number for every round, or a 1-D array with one
    value per played round; the `lam` column records it.  Round for round
    this repeats `PenaltyOgdLearner.play_round` fed by `instance.loss(t)` /
    `instance.constraint(t)` with the same expressions (in 1-D with m <= 6
    also the same summation order, so the trace is byte-identical; see
    `environments` on longer sums).  Every lambda is checked before the
    first round; each round writes its row of the trace table."""
    rounds = instance.rounds
    if lam is None:
        lam = lambda_theorem(kind, instance)
    # a length other than the round count fails to broadcast (ValueError)
    lams = np.broadcast_to(lam, len(rounds)).tolist()
    check_lambda(lams)
    evaluate = instance.round_evaluator(rounds, variant is Variant.COCO_M2)
    step = point_step(instance.fset)
    diameter, dim = instance.fset.diameter, instance.dim
    x = tuple(instance.fset.center.tolist())
    window = x * (instance.m + 1)
    v = ccv = grad_sq_sum = 0.0
    records = round_table(len(rounds), dim)
    for k, (t, lam) in enumerate(zip(rounds, lams)):
        f_mem, f_spl, f_grad, g_mem, g_spl, g_grad = evaluate(k, window, x)
        g_plus = max(g_mem, 0.0)
        # dual update first: the multiplier sees this round's violation
        v += max(g_spl, 0.0)
        ccv += g_plus
        pp = phi_prime(kind, lam, v)
        grad = f_grad
        if pp != 0.0 and g_spl > 0.0:
            grad = [fj + pp * gj for fj, gj in zip(f_grad, g_grad)]
        gg = fdot(grad, grad)
        grad_sq_sum += gg
        eta = adaptive_step(diameter, grad_sq_sum)
        records[k] = (
            t, x, f_mem, f_spl, g_mem, g_spl, g_plus, v, ccv, pp, lam,
            math.sqrt(gg), eta, 0.0, 0.0, 0.0,
        )
        x = step(x, eta, grad)
        window = window[dim:] + x
    return RunTrace(
        algorithm="penalty_ogd",
        variant=variant,
        penalty_kind=kind,
        records=records,
        instance=instance,
    )
