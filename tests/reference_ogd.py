"""The two references that `cocomem.penalty_ogd.run_penalty_ogd` is held to.

`PenaltyOgdLearner` plays penalty OGD on per-round oracles: one round
per `play_round(t, *oracles(instance, t))` (`reference_instance.oracles`,
which describes an oracle), with `surrogate_gradient`, `adaptive_step`,
`Penalty` and `project`.  The
package's runner matches it bit for bit in 1-D with m <= 6, and to
`rtol=1e-12` elsewhere, where its numpy dot products and norms may round
differently from the runner's index-order sums.

`run_penalty_ogd` here is the float loop that the package's runner
replaced, and the runner matches it byte for byte.  It plays every round
through a per-round closure, `evaluate(k, window, x)`, which each
family's `round_evaluator` builds from its rows as lists of Python
floats, and writes one row tuple per round.  The two `round_evaluator`s were methods of `AppendixAInstance`
and `SeparableLinearInstance`; they are kept here as functions of the
instance, and the runner picks one by the instance's type.  They are
unchanged but for two sums of the separable family: its per-round slice
sums, which `delay_sums` adds in Python in delay order rather than
reading the package's, and its window sum, which adds each slot's
coordinates in index order, the package's one order (it added them last
first).  `fdot` and `point_step` are the dot product and the
projected step as they were then, on sequences of Python floats at
every d.

`evaluate(k, window, x)` serves round rounds[k].  `window` is the flat
tuple of the last m+1 decisions' coordinates, oldest decision first, and
`x` the current decision (the last d of them).  It returns (f_mem,
f_splat, f_grad, g_mem, g_splat, g_grad): the window values, the lifted
values at x and the lift gradients at x (lists of floats); g_mem is
g_splat when the instance's `constraint_memory` is false.  Each sum
adds its terms one by one.
"""

from __future__ import annotations

import math

import numpy as np

from cocomem.core import Ball, round_table
from cocomem.environments import AppendixAInstance, SeparableLinearInstance
from cocomem.geometry import project
from cocomem.metrics import RunTrace
from cocomem.penalty import Penalty, PenaltyKind, check_lambda, lambda_theorem, phi_prime


def surrogate_gradient(loss, constraint, x: np.ndarray, phi_prime: float) -> np.ndarray:
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
    in before the first round.  `constraint_memory` is the instance's flag:
    the recorded violation is the constraint's window value when it is
    set, else its lift."""

    def __init__(self, fset, memory: int, constraint_memory: bool, kind: PenaltyKind,
                 lams: list[float]):
        self.fset = fset
        self.m = memory
        self.constraint_memory = constraint_memory
        self.kind = kind
        self.lams = lams
        self.x = fset.center
        self.window = np.tile(self.x, (memory + 1, 1))
        self.grad_sq_sum = 0.0
        self.v_dual = 0.0
        self.ccv = 0.0
        self.records = round_table(len(lams), fset.dim)
        self.played = 0

    def play_round(self, t: int, loss, constraint) -> np.record:
        if loss.dim != self.fset.dim or constraint.dim != self.fset.dim:
            raise ValueError("oracle dimension does not match the feasible set")
        if loss.memory != self.m or constraint.memory != self.m:
            raise ValueError("oracle memory length does not match the learner")
        x = self.x
        f_mem = loss.value(self.window)
        f_spl = loss.value_splat(x)
        g_spl = constraint.value_splat(x)
        if self.constraint_memory:
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


def fdot(a, b) -> float:
    """sum_j a_j * b_j over two sequences of Python floats, added one by
    one in index order from 0.0 (a BLAS dot product of two or more terms
    may group them differently)."""
    s = 0.0
    for aj, bj in zip(a, b):
        s += aj * bj
    return s


def point_step(fset: Ball):
    """`step(x, eta, grad)`: the projected gradient step
    project(fset, x - eta * grad) for a point and gradient held as Python
    floats, returned as a tuple.  It uses the expressions of `project`: a
    clamp (d = 1) or radial scaling (d >= 2); a non-finite point raises
    ValueError, as there."""
    if fset.dim == 1:
        lo, hi = fset.lo.item(), fset.hi.item()

        def clamp(x, eta, grad):
            v = x[0] - eta * grad[0]
            if not math.isfinite(v):
                raise ValueError("decision has non-finite entries")
            v = v if v > lo else lo  # np.clip: lower bound first
            return (v if v < hi else hi,)

        return clamp
    center, radius = fset.center.tolist(), fset.radius

    def scale(x, eta, grad):
        p = [xj - eta * gj for xj, gj in zip(x, grad)]
        if not all(map(math.isfinite, p)):
            raise ValueError("decision has non-finite entries")
        diff = [v - c for v, c in zip(p, center)]
        n = math.sqrt(fdot(diff, diff))
        if n <= radius:
            return tuple(p)
        s = radius / n
        return tuple([c + dv * s for c, dv in zip(center, diff)])

    return scale


def appendix_a_round_evaluator(self, rounds: range):
    """`evaluate(k, window, x)` for round rounds[k] in Python floats; see
    the module docstring for the contract.  Each value repeats the
    expression of the round's oracles (`reference_instance.oracles`)
    term by term."""
    span = slice(rounds.start, rounds.stop)
    c_rows, d_rows = self.c[span].tolist(), self.d_coef[span].tolist()
    delta, slots, g_window = self.delta, self.m + 1, self.constraint_memory

    def evaluate(k, window, x):
        c, d = c_rows[k], d_rows[k]
        sq = s = 0.0
        # the rows repeated once per window slot pair with the flat window
        for wj, cj, dj in zip(window, c * slots, d * slots):
            diff = wj - cj
            sq += diff * diff
            s += wj * dj
        grad, lift_sq, dx = [], 0.0, 0.0
        for xj, cj, dj in zip(x, c, d):
            diff = xj - cj
            grad.append(diff)
            lift_sq += diff * diff
            dx += dj * xj
        g_splat = dx - delta
        g_mem = s / slots - delta if g_window else g_splat
        return 0.5 * sq / slots, 0.5 * lift_sq, grad, g_mem, g_splat, d

    return evaluate


def delay_sums(rows) -> list:
    """Each round's sum over its slices, for an (n, m + 1[, d]) array:
    delay 0 first, the other delays added one by one in delay order."""
    out = []
    for row in rows.tolist():
        s = row[0]
        for term in row[1:]:
            s = [a + b for a, b in zip(s, term)] if isinstance(s, list) else s + term
        out.append(s)
    return out


def separable_round_evaluator(self, rounds: range):
    """`evaluate(k, window, x)` for round rounds[k] in Python floats; see
    the module docstring for the contract.  Each value repeats the
    expression of the round's oracles (`reference_instance.oracles`)
    term by term, with the per-round slice sums (lift slopes, summed
    offsets) taken up front."""
    span, dim, g_window = slice(rounds.start, rounds.stop), self.dim, self.constraint_memory
    shape = (len(rounds), (self.m + 1) * dim)
    # slice coefficients in flat-window order: delay m (oldest) first
    f_win = self.f_coef[span, ::-1].reshape(shape).tolist()
    g_win = self.g_coef[span, ::-1].reshape(shape).tolist()
    f_slope, g_slope, g_off = (delay_sums(a[span]) for a in (self.f_coef, self.g_coef, self.g_off))

    def window_value(coeffs, window):
        s = 0.0
        for i in range(len(window) - dim, -1, -dim):  # newest first, coordinates in order
            for cj, wj in zip(coeffs[i : i + dim], window[i : i + dim]):
                s += wj * cj
        return s

    def evaluate(k, window, x):
        # the loss has no offsets: its summed offset is 0.0
        f_mem = window_value(f_win[k], window) + 0.0
        f_splat = fdot(f_slope[k], x) + 0.0
        g_splat = fdot(g_slope[k], x) + g_off[k]
        g_mem = window_value(g_win[k], window) + g_off[k] if g_window else g_splat
        return f_mem, f_splat, f_slope[k], g_mem, g_splat, g_slope[k]

    return evaluate


_EVALUATORS = {
    AppendixAInstance: appendix_a_round_evaluator,
    SeparableLinearInstance: separable_round_evaluator,
}


def run_penalty_ogd(
    instance,
    kind: PenaltyKind = PenaltyKind.QUADRATIC,
    lam: float | np.ndarray | None = None,
) -> RunTrace:
    """Play the instance's rounds in Python floats and collect the trace.

    `lam` is the penalty parameter: None for the theorem's
    (`lambda_theorem`), a number for every round, or a 1-D array with one
    value per played round; the `lam` column records it.  Every lambda is
    checked before the first round; each round writes its row of the
    trace table."""
    rounds = instance.rounds
    if lam is None:
        lam = lambda_theorem(kind, instance)
    # a length other than the round count fails to broadcast (ValueError)
    lams = np.broadcast_to(lam, len(rounds)).tolist()
    check_lambda(lams)
    evaluate = _EVALUATORS[type(instance)](instance, rounds)
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
        penalty_kind=kind,
        records=records,
        instance=instance,
    )
