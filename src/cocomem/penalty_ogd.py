"""Penalty-driven online gradient descent: the no-prediction learner.

Each round the learner observes the current loss/constraint pair,
accumulates the (lifted) constraint violation, and descends the
memory-less surrogate

    L_t(x) = f_t(x,...,x) + Phi'(V_t) * max(g_t(x,...,x), 0)

with the adaptive step  |X| / (sqrt(2) * sqrt(sum of squared surrogate
gradient norms)).  The dual update precedes the gradient so the
multiplier Phi'(V_t) reflects the current round's violation.

`run_penalty_ogd` plays in Python floats and runs only the recursion per
round: g_splat, V, Phi', the gradient, the step and the projection,
reading each round's lift rows (`halfspaces`, `loss_lift`) as data and
writing the decision, g_splat (as g_mem), Phi', the gradient norm and
the step into the trace table's columns.  Its loop writes the expressions
of `penalty.phi_prime`, `adaptive_step` and `geometry.project` (the clamp
at d = 1, the radial scaling at d >= 2) inline, so at d = 1 a round makes
no Python function call; those functions stay the reference formulas.
After the loop the family's `fill_values` writes the other functions of
the decisions, as for ODAF, and V and the CCV are running sums of them.
`PenaltyOgdLearner` is the reference implementation on the oracle
protocol (`loss(t)` / `constraint(t)`, `Penalty`, `project`); the tests
hold the float loop to it, bit for bit in 1-D with m <= 6.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .core import MemoryFunctionOracle, Variant, fdot, round_table
from .geometry import project
from .metrics import RunTrace
from .penalty import EXP_CAP, Penalty, PenaltyKind, check_lambda, lambda_theorem

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


def _vectors(fset, x_col: np.ndarray):
    """(x, x_col, rows, dot) of the float loop, whose vectors are floats at
    d = 1 and (d,) arrays at d >= 2: the set center, the decision column
    to write, `rows(a)` iterating an (n, d) array's rows (at d = 1 through
    a memoryview) and `fdot`, at d = 1 the one product: 0.0 + a * b differs
    from it only in the sign of a zero, which no column reads."""
    if fset.dim == 1:
        return (fset.center.item(), memoryview(x_col[:, 0]), (lambda a: memoryview(a[:, 0])),
                operator.mul)
    return fset.center, x_col, iter, fdot


@np.errstate(over="ignore", invalid="ignore")  # numpy overflows as floats do: silently
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
    first round."""
    rounds, fset = instance.rounds, instance.fset
    if lam is None:
        lam = lambda_theorem(kind, instance)
    # a length other than the round count fails to broadcast (ValueError)
    lams = np.broadcast_to(np.asarray(lam, dtype=float), len(rounds))
    check_lambda(lams)
    A, b = instance.halfspaces(rounds, "lift")
    f_rows, about_x = instance.loss_lift(rounds)
    records = round_table(len(rounds), fset.dim)
    x, x_col, rows, dot = _vectors(fset, records["x"])
    g_col, pp_col, norm_col, eta_col = (
        memoryview(records[name]) for name in ("g_mem", "phi_prime", "grad_norm", "eta_or_mu"))
    one_d, quadratic = fset.dim == 1, kind is PenaltyKind.QUADRATIC
    lo, hi, _ = fset.interval if one_d else (None, None, None)
    center, radius, diameter = fset.center, fset.radius, fset.diameter
    exp, sqrt, isfinite, root2 = math.exp, math.sqrt, math.isfinite, math.sqrt(2.0)
    v = grad_sq_sum = 0.0
    for k, (lam_k, a, b_k, f) in enumerate(zip(memoryview(lams), rows(A), memoryview(b),
                                                rows(f_rows))):
        g_spl = dot(a, x) + b_k
        # dual update first: the multiplier sees this round's violation
        v += 0.0 if g_spl < 0.0 else g_spl  # max(g_spl, 0.0): keeps -0.0 and nan
        pp = 2.0 * lam_k * v if quadratic else lam_k * exp(min(lam_k * v, EXP_CAP))
        grad = x - f if about_x else f
        if pp != 0.0 and g_spl > 0.0:
            grad = grad + pp * a
        gg = dot(grad, grad)
        grad_sq_sum += gg
        eta = 0.0 if grad_sq_sum <= 0.0 else diameter / (root2 * sqrt(grad_sq_sum))
        x_col[k] = x
        g_col[k] = g_spl
        pp_col[k] = pp
        norm_col[k] = sqrt(gg)
        eta_col[k] = eta
        # project(fset, x - eta * grad): the clamp or the radial scaling
        x = x - eta * grad
        if not (isfinite(x) if one_d else np.isfinite(x).all()):
            raise ValueError("decision has non-finite entries")
        if one_d:
            x = x if x > lo else lo  # np.clip: lower bound first
            x = x if x < hi else hi
        else:
            diff = x - center
            n = sqrt(dot(diff, diff))
            x = x if n <= radius else center + diff * (radius / n)
    records["lam"] = lams
    instance.fill_values(records, variant is Variant.COCO_M2)
    # V and the CCV: the loop's running sums from 0.0, in which -0.0 adds as 0.0
    g_splat = records["g_splat"]
    np.cumsum(np.where(g_splat < 0.0, 0.0, g_splat) + 0.0, out=records["v_dual"])
    np.cumsum(records["g_plus_recorded"] + 0.0, out=records["ccv_cum"])
    return RunTrace("penalty_ogd", variant, kind, records, instance)
