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
writing the decision, Phi', the gradient norm and the step into the
table's columns, on `core.float_vectors`.  Its loop writes the expressions
of `penalty.phi_prime`, the adaptive step and `geometry.project` (the
clamp at d = 1, the radial scaling at d >= 2) inline, so at d = 1 a round
makes no Python function call.
After the loop the family's `fill_values` writes the other functions of
the decisions, as for ODAF, and V and the CCV are running sums of them.
`tests/reference_ogd.py` holds the two references this loop is tested
against: `PenaltyOgdLearner` on per-round oracles
(`reference_instance.oracles`, `Penalty`, `project`), matched bit for
bit in 1-D with m <= 6, and the per-round loop this one replaced,
matched byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from .core import float_vectors, round_table
from .geometry import project  # noqa: F401  the step the loop inlines; perfbench wraps it here
from .metrics import RunTrace
from .penalty import EXP_CAP, PenaltyKind, check_lambda, lambda_theorem


@np.errstate(over="ignore", invalid="ignore")  # numpy overflows as floats do: silently
def run_penalty_ogd(instance, kind: PenaltyKind = PenaltyKind.QUADRATIC,
                    lam: float | np.ndarray | None = None) -> RunTrace:
    """Play the instance's rounds in Python floats and collect the trace.

    `lam` is the penalty parameter: None for the theorem's
    (`lambda_theorem`), a number for every round, or a 1-D array with one
    value per played round; the `lam` column records it.  Round for round
    this repeats `PenaltyOgdLearner.play_round` of `tests/reference_ogd.py`
    fed by `oracles(instance, t)` of `tests/reference_instance.py` with the same
    expressions (in 1-D with m <= 6 also the same summation order, so the
    trace is byte-identical; see `environments` on longer sums).  Every
    lambda is checked before the first round."""
    rounds, fset = instance.rounds, instance.fset
    if lam is None:
        lam = lambda_theorem(kind, instance)
    # a length other than the round count fails to broadcast (ValueError)
    lams = np.broadcast_to(np.asarray(lam, dtype=float), len(rounds))
    check_lambda(lams)
    A, b = instance.halfspaces(rounds, "lift")
    f_rows, about_x = instance.loss_lift(rounds)
    records = round_table(len(rounds), fset.dim)
    _, x, rows, dot = float_vectors(fset)
    x_col = rows(records["x"])
    pp_col, norm_col, eta_col = (
        memoryview(records[name]) for name in ("phi_prime", "grad_norm", "eta_or_mu"))
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
    instance.fill_values(records)
    # V and the CCV: the loop's running sums from 0.0, in which -0.0 adds as 0.0
    g_splat = records["g_splat"]
    np.cumsum(np.where(g_splat < 0.0, 0.0, g_splat) + 0.0, out=records["v_dual"])
    np.cumsum(records["g_plus_recorded"] + 0.0, out=records["ccv_cum"])
    return RunTrace("penalty_ogd", kind, records, instance)
