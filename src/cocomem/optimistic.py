"""Optimistic delayed-FTRL learner for memory problems with untrusted
predictions, and the doubling trick that tunes its penalty parameter
online by restarting the one learner of a run in place (`restart`).
Both runners return an `odaf` trace that records the first round of
each epoch; a fixed lambda makes one epoch.

The memory effect is recast as gradient delay through the forward
function

    Z_t(x_t) = sum_{i=0..m} [ f_{t+i}^i(x_t) + Phi'(V_{t+i-m-1}) g_{t+i}^{i,+}(x_t) ]

whose gradient is fully revealed only at the end of round t+m.  Each
round the learner assembles a hint for the still-missing window of
forward gradients by mixing revealed slices with predictor output, then
plays the regularized leader on revealed gradients plus hint, with the
regularization weight driven by past hint errors (the delayed
upper-bound sequence).  With memory-less constraints the constraint
slice sits at delay 0 and its multiplier uses the fresh violation
Phi'(V_{t-1}) instead of the delayed one.

`OdafLearner` holds a vector as a Python float at d = 1 and as a (d,)
float array at d >= 2, so `+`, `-` and scalar `*` serve both.  It reads
each round's slice rows from the instance arrays as the round is played
and takes Phi' from `penalty.phi_prime` of V_r, which it reads where
the audit does, in the `ccv_cum` column of its trace table.  A forward
gradient settles m rounds after its decision, so it keeps only the last
O(m) rounds of decisions and slices.  Dot products, norms and sums of
squares are one float product at d = 1 and numpy's own at d >= 2, so
every value keeps the bits of the numpy learner in
`tests/reference_odaf.py`, the reference the tests hold it to.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .core import Variant, round_table
from .geometry import dub_alpha, ftrl_argmin, regret_coefficient
from .metrics import RunTrace
from .penalty import PenaltyKind, check_lambda, lambda_optimistic, phi_prime

MAX_PATTERN_SLICES = 12
_EXP = PenaltyKind.EXPONENTIAL


def huber(x: float, y: float) -> float:
    """0.5 x^2 - 0.5 (|x| - |y|)_+^2, the robust square that the DUB
    weights apply to hint errors."""
    hinge = max(abs(x) - abs(y), 0.0)
    return 0.5 * x * x - 0.5 * hinge * hinge


def _vectors(dim: int):
    """(vec, dot, sumsq) of the learner's vector type, a float at d = 1
    and a (d,) float array at d >= 2: `vec` makes a vector of a length-d
    sequence, and the reductions have the bits of numpy's `a @ b` and
    `np.sum(a ** 2)`; numpy itself at d >= 2, where a BLAS dot may round
    as fma(a1, b1, a0 * b0)."""
    if dim == 1:
        return (lambda p: float(p[0])), operator.mul, (lambda a: a * a)
    return ((lambda p: np.asarray(p, dtype=float)), (lambda a, b: float(np.dot(a, b))),
            (lambda a: float(np.sum(a ** 2))))


class OdafLearner:
    """One optimistic run, restarted in place at each doubling epoch.

    The decision window (`x_hist`, round -> decision, holding the m + 2
    rounds a later round reads), the trace table (row t - first_round
    holds round t; V_t enters its `ccv_cum`, the one home of the
    cumulative violation, before x_{t+1} is committed), the hints (row k
    is h_{first_round + k}) and `fixed_point_fallbacks` last the whole
    run.  `restart(t, lam)` starts an epoch at round t: slices of rounds
    before t read as absent, as in the pre-history of a cold start, and
    the gradient memory and hint-error statistics start fresh.
    """

    def __init__(self, instance, variant: Variant, predictor, lam: float):
        if not hasattr(instance, "f_coef"):
            raise TypeError("optimistic learner needs a separable-slice instance")
        if variant is Variant.COCO_M and instance.constraint_memory:
            raise ValueError("memory-less-constraint variant needs constraint slices at delay 0")
        self.inst = instance
        self.variant = variant
        self.m = instance.m
        self.dim = instance.dim
        self.fset = instance.fset
        self.predictor = predictor
        predictor.bind(instance)
        self.alpha = dub_alpha(self.fset)
        self.dual_delay = variant.dual_delay(self.m)
        self._vec, self._dot, self._sumsq = _vectors(self.dim)
        # shared by every sum that starts from zero: never updated in place
        self._zero = self._vec(np.zeros(self.dim))

        first = instance.first_round
        center = self._vec(self.fset.center)
        self.x_hist = {r: center for r in range(first - self.m - 1, first)}
        self.records = round_table(instance.horizon - first + 1, self.dim)
        self._ccv_col = self.records["ccv_cum"]
        self.hints = np.zeros((instance.horizon - first + 2, self.dim))
        self.fixed_point_fallbacks = 0
        self.restart(first, lam)

    def restart(self, t: int, lam: float) -> None:
        """Start an epoch at round t with penalty parameter lam: slices of
        rounds before t read as absent, the gradient memory and hint-error
        statistics start fresh, and x_t is committed again."""
        check_lambda(lam)
        self.lam = float(lam)  # keeps numpy scalars out of the float arithmetic
        # slice rows this epoch sees: rounds before it (or without slices
        # in the instance) read as absent
        self._lo = max(t, self.m + 1)
        # round r -> (loss rows, constraint rows active at the decision
        # they touch, else None) of the slices revealed in round r
        self._seen: dict[int, tuple] = {}
        # decision s -> revealed part of grad Z_s, summed in delay order
        self._open: dict[int, float | np.ndarray] = {}
        self._forward: dict[int, float | np.ndarray] = {}
        self._rev_sum = self._zero
        # hint round -> (hint, its forecasts) until the round's gradient settles
        self._pending: dict[int, tuple] = {}
        self._a: dict[int, float] = {}
        self._cum_sq = 0.0
        self._max_awin = 0.0
        # pre-step: commit x_t from an all-predicted hint
        self._decide_next(t - 1)

    # -- cumulative violation, read from the trace table ---------------------

    def v_at(self, r: int) -> float:
        """Cumulative violation after round r, the table's `ccv_cum` row;
        rounds before the run and rounds not yet played (zero rows) read 0."""
        k = r - self.inst.first_round
        return float(self._ccv_col[k]) if 0 <= k < len(self._ccv_col) else 0.0

    def _mult(self, r: int) -> float:
        """Penalty weight of round r's constraint slice inside the forward
        function; prehistory and rounds not yet played read V = 0."""
        return phi_prime(_EXP, self.lam, self.v_at(r - self.dual_delay))

    # -- forward gradients ----------------------------------------------------

    def _reveal(self, t: int, mult: float) -> tuple:
        """Read round t's slice rows, judge each constraint slice at the
        decision it touches, and add the revealed slices, the active
        constraint slices weighted by `mult`, to the open forward
        gradients.  Returns (loss rows or None, [(i, coeff, offset,
        value)] of the present constraint slices)."""
        m, dot, xs = self.m, self._dot, self.x_hist
        f, g_rows, active = None, [], [None] * (m + 1)
        if self._lo <= t <= self.inst.horizon:
            inst = self.inst
            # floats at d = 1, row views at d >= 2
            f, coef = inst.f_coef[t], inst.g_coef[t]
            if self.dim == 1:
                f, coef = f[:, 0].tolist(), coef[:, 0].tolist()
            off = inst.g_off[t].tolist()
            for i, present in enumerate(inst.g_present[t].tolist()):
                if present:
                    val = dot(coef[i], xs[t - i]) + off[i]
                    g_rows.append((i, coef[i], off[i], val))
                    if val > 0.0:
                        active[i] = coef[i]
        self._seen[t] = (f, active)
        self._seen.pop(t - m - 1, None)
        for i in range(m + 1):
            z = self._open.get(t - i, self._zero)
            if f is not None:
                z = z + f[i]
            if active[i] is not None:
                z = z + mult * active[i]
            self._open[t - i] = z
        return f, g_rows

    def _complete_round(self, s: int) -> tuple[float, float, float]:
        """Settle grad Z_s and the weights of hint h_s; returns the hint's
        errors (eps_Z, eps_f, eps_g), zero when no hint h_s exists."""
        m = self.m
        z = self._open.pop(s)
        self._forward[s] = z
        self._forward.pop(s - m - 1, None)
        self._rev_sum = self._rev_sum + z
        pending = self._pending.pop(s, None)
        if pending is None:
            return 0.0, 0.0, 0.0
        hint, preds = pending
        win = self._zero
        for j in range(s - m, s + 1):
            if j in self._forward:
                win = win + self._forward[j]
        diff = hint - win
        err = math.sqrt(self._dot(diff, diff))
        zn = math.sqrt(self._dot(z, z))
        a = self.fset.diameter * min(err, zn)
        self._a[s] = a
        self._a.pop(s - m - 1, None)
        self._cum_sq += a * a + 2.0 * self.alpha * huber(err, zn)
        return self._prediction_errors(diff, preds)

    def _prediction_errors(self, diff, preds: list) -> tuple[float, float, float]:
        """(eps_Z, eps_f, eps_g) of a hint once its forward gradient is
        revealed; `diff` is the hint minus the revealed window sum."""
        zero = self._zero
        df = dg = zero
        for r, i, f_pred, g_pred in preds:
            f, active = self._seen[r]
            df = df + (f_pred - (zero if f is None else f[i]))
            dg = dg + (g_pred - (zero if active[i] is None else active[i]))
        return self._sumsq(diff), self._dot(df, df), self._dot(dg, dg)

    # -- hint assembly and the FTRL step ------------------------------------

    def _pending_subtotal(self, s: int, t: int, preds: list, forecasts: list):
        """Known-plus-predicted stand-in for grad Z_s, accumulated in the
        same slice order as the settled gradient so perfect predictions
        reproduce it bitwise; `forecasts` are those of round t + 1."""
        z = self._open.get(s, self._zero)
        x_s = self.x_hist[s]
        for i in range(t - s + 1, self.m + 1):
            r = s + i
            f_pred, g, g_off = forecasts[i * (i + 1) // 2 + r - t - 1]
            z = z + f_pred
            active = self._dot(g, x_s) + g_off > 0.0
            if active:
                z = z + self._mult(r) * g
            preds.append((r, i, f_pred, g if active else self._zero))
        return z

    def _decide_next(self, t: int) -> float:
        """End-of-round-t work: assemble h_{t+1}, and commit x_{t+1}
        (self-consistent activity for the pending round); returns the
        FTRL weight mu_{t+1} that chose it."""
        m, nxt, dot = self.m, t + 1, self._dot
        forecasts = self.predictor.forecasts(nxt)
        preds: list[tuple] = []
        # pending decisions s = t+1-m .. t: known slices plus predictions
        base = self._zero
        for s in range(nxt - m, nxt):
            base = base + self._pending_subtotal(s, t, preds, forecasts)
        # predicted forward gradient of the decision being committed; each
        # constraint forecast with a nonzero coefficient may toggle, and
        # carries its weighted gradient
        block = [forecasts[i * (i + 1) // 2 + i] for i in range(m + 1)]
        toggles = []
        for i, (_, g, g_off) in enumerate(block):
            if dot(g, g) > 0.0:
                toggles.append((i, g, g_off, self._mult(nxt + i) * g))

        mu = (2.0 / self.alpha) * self._max_awin + math.sqrt(self._cum_sq) / self.alpha
        f_block = self._zero
        for f_pred, _, _ in block:
            f_block = f_block + f_pred
        lin0 = self._rev_sum + base + f_block
        x_next, flags = self._resolve_pending_activity(lin0, mu, toggles, self.x_hist[t])
        on = {i: term for (i, _, _, term), flag in zip(toggles, flags) if flag}
        ztilde = self._zero
        for i, (f_pred, g, _) in enumerate(block):
            ztilde = ztilde + f_pred
            if i in on:
                ztilde = ztilde + on[i]
            preds.append((nxt + i, i, f_pred, g if i in on else self._zero))
        hint = base + ztilde
        self.hints[nxt - self.inst.first_round] = hint
        self._pending[nxt] = (hint, preds)
        self.x_hist[nxt] = x_next
        self.x_hist.pop(nxt - m - 2, None)
        # fold the newest window sum into the lagged max AFTER mu used it
        s = t - m
        if s in self._a:
            awin = sum(self._a.get(j, 0.0) for j in range(s - m + 1, s + 1))
            self._max_awin = max(self._max_awin, awin)
        return mu

    def _resolve_pending_activity(self, lin0, mu: float, toggles, x_last):
        """Search for an activity pattern of the pending round's constraint
        forecasts that reproduces itself at the decision it induces; falls
        back to judging activity at the last committed decision when no
        pattern is self-consistent.

        In 1-D at most one pattern holds (each flag is monotone in x, and
        switching a toggle on moves the decision against its flag), so the
        fallback pattern and the k + 1 patterns between the sorted
        thresholds go before the 2^k enumeration, unless some pattern's
        decision could overflow: then the enumeration meets the error."""
        fset, vec, dot = self.fset, self._vec, self._dot
        if not toggles:
            return vec(ftrl_argmin(fset, lin0, mu)), ()

        def flags_at(x):
            return tuple(dot(g, x) + g_off > 0.0 for _, g, g_off, _ in toggles)

        tried: dict[tuple, float | np.ndarray] = {}

        def decide(pattern):
            if pattern not in tried:
                tried[pattern] = vec(ftrl_argmin(fset, _with_terms(lin0, toggles, pattern), mu))
            return tried[pattern]

        last = flags_at(x_last)
        candidates = ()
        if self.dim == 1 and _decisions_finite(lin0, mu, toggles, fset.center.item()):
            candidates = itertools.chain((last,), _interval_patterns(toggles))
        if len(toggles) <= MAX_PATTERN_SLICES:
            candidates = itertools.chain(
                candidates, itertools.product((False, True), repeat=len(toggles)))
        for pattern in candidates:
            if pattern not in tried and flags_at(decide(pattern)) == pattern:
                return tried[pattern], pattern
        self.fixed_point_fallbacks += 1
        return decide(last), last

    # -- one full round -------------------------------------------------------

    def play_round(self, t: int) -> np.record:
        """Observe round t, settle the newly revealed forward gradient and
        hint error, and commit the next decision."""
        m, dot, xs = self.m, self._dot, self.x_hist
        x_t = xs[t]
        mult_t = self._mult(t)
        f, g_rows = self._reveal(t, mult_t)
        f_mem = 0.0
        if f is not None:
            for i in range(m + 1):
                f_mem += dot(f[i], xs[t - i])
        if self.variant is Variant.COCO_M2:
            g_val = 0.0
            for _, _, _, v in g_rows:
                g_val += v
        else:
            g_val = next((v for i, _, _, v in g_rows if i == 0), 0.0)
        inc = max(g_val, 0.0)
        ccv = self.v_at(t - 1) + inc
        row = t - self.inst.first_round
        self._ccv_col[row] = ccv  # the next decision's weights read V_t

        eps_z = eps_f = eps_g = 0.0
        s = t - m
        if s >= 1:
            eps_z, eps_f, eps_g = self._complete_round(s)

        mu = self._decide_next(t)

        f_spl = float(sum(dot(fi, x_t) for fi in f)) if f is not None else 0.0
        g_spl = float(sum(dot(c, x_t) + off for _, c, off, _ in g_rows))
        z = self._forward.get(s, self._zero)
        self.records[row] = (
            t, x_t, f_mem, f_spl, g_val, g_spl, inc, ccv, ccv, mult_t,
            self.lam, math.sqrt(dot(z, z)), mu, eps_f, eps_g, eps_z,
        )
        return self.records[row]


def _with_terms(lin0, toggles, flags):
    """lin0 plus the weighted gradients of the toggles switched on."""
    lin = lin0
    for (_, _, _, term), on in zip(toggles, flags):
        if on:
            lin = lin + term
    return lin


def _decisions_finite(lin0: float, mu: float, toggles, center: float) -> bool:
    """Whether every pattern's linear term and decision is finite: bounded
    by |lin0| + sum |term| and |center| + that / mu (rounding is monotone)."""
    bound = abs(lin0)
    for _, _, _, term in toggles:
        bound += abs(term)
    if mu != 0.0:
        bound = abs(center) + bound / mu
    return math.isfinite(bound)


def _interval_patterns(toggles):
    """The k + 1 activity patterns of 1-D toggles on the intervals between
    their thresholds -off/g, from x = -inf upwards: a toggle with g < 0
    starts on, and each threshold passed flips its toggle."""
    flags = [g < 0.0 for _, g, _, _ in toggles]
    yield tuple(flags)
    for j in sorted(range(len(toggles)), key=lambda j: -toggles[j][2] / toggles[j][1]):
        flags[j] = not flags[j]
        yield tuple(flags)


def _tuning(instance, variant: Variant) -> tuple[float, float]:
    """(C, G d) of a run: the delayed-FTRL regret coefficient and lambda's
    offset, G times the dual delay d."""
    coeff = regret_coefficient(instance.fset, instance.m)
    return coeff, instance.constants().g_bound * variant.dual_delay(instance.m)


def run_optimistic(
    instance,
    variant: Variant,
    predictor,
    lam: float | None = None,
    error_estimate: float = 0.0,
) -> RunTrace:
    """Drive one optimistic run; lam defaults to the theorem tuning with
    the supplied estimate of the cumulative constraint prediction error."""
    if lam is None:
        coeff, offset = _tuning(instance, variant)
        lam = lambda_optimistic(coeff * math.sqrt(error_estimate), offset)
    learner = OdafLearner(instance, variant, predictor, lam)
    for t in instance.rounds:
        learner.play_round(t)
    return _trace(learner, [instance.first_round])


def _trace(learner: OdafLearner, epoch_starts: list[int], **extras) -> RunTrace:
    """The `odaf` trace of a finished run; `extras` follow the hints, whose
    last row, h_{horizon + 1}, is committed but never played, and the
    epochs, one per round of `epoch_starts`.  The `lam` column is the run's
    only record of lambda, the `eps_*` columns of the hint errors."""
    return RunTrace(
        algorithm="odaf",
        variant=learner.variant,
        penalty_kind=PenaltyKind.EXPONENTIAL,
        records=learner.records,
        instance=learner.inst,
        extras={
            "hints": learner.hints,
            "epochs": len(epoch_starts),
            "epoch_starts": epoch_starts,
            **extras,
            "fixed_point_fallbacks": learner.fixed_point_fallbacks,
        },
    )


# ---------------------------------------------------------------------------
# Doubling trick


def doubling_mu1(regret_coeff: float, error_estimate: float) -> float:
    """Initial complexity budget; floored at a machine-epsilon scale so a
    zero estimate cannot trigger an unbounded restart cascade."""
    floor = 64.0 * np.finfo(float).eps * max(1.0, regret_coeff)
    return max(regret_coeff * math.sqrt(max(error_estimate, 0.0)), floor)


def run_doubling(
    instance,
    variant: Variant,
    predictor,
    error_estimate: float = 0.0,
) -> RunTrace:
    """Drive one optimistic run with online penalty tuning, the doubling
    trick (Shalev-Shwartz 2012, section 2.3.1).  Epoch k has the budget
    2^(k-1) mu1, mu1 = `doubling_mu1(C, error_estimate)`, and plays
    `lambda_optimistic(budget, G d)`.  Round t starts epoch k + 1 when
    C sqrt(E) > budget, E the sum of eps_g over the rounds of epoch k so
    far; the learner restarts in place at t."""
    coeff, offset = _tuning(instance, variant)
    mu1 = budget = doubling_mu1(coeff, error_estimate)
    error = 0.0
    starts = [instance.first_round]
    learner = OdafLearner(instance, variant, predictor, lambda_optimistic(budget, offset))
    for t in instance.rounds:
        if coeff * math.sqrt(error) > budget:
            starts.append(t)
            budget = 2.0 ** (len(starts) - 1) * mu1
            error = 0.0
            learner.restart(t, lambda_optimistic(budget, offset))
        error += learner.play_round(t)["eps_g"]
    return _trace(learner, starts, mu1=mu1)
