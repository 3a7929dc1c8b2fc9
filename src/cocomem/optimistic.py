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
float array at d >= 2, so `+`, `-` and scalar `*` serve both.
`OdafLearner.play` runs an epoch's rounds in one loop over local
variables: the O(m) window dicts, the running sums, V, the views and
the constants are bound once per call and written back when it returns.
Each round runs only the recursion: it reads the round's slice rows
through flat views of the instance arrays (memoryviews of floats at
d = 1), updates V and Phi', the open and forward gradients, the hint, its
errors eps_Z and eps_g, and mu, and takes one FTRL step through this
module's `ftrl_argmin`, writing those values into its trace table's columns.
Phi' (`penalty.phi_prime`'s formula), the Huber weight of a settled hint
error and the lagged window sum are written inline, so at d = 1 a round
with no constraint forecast to toggle calls Python only for its forecasts
and its FTRL step.  A hint keeps only its constraint forecasts judged active;
eps_g adds its terms only if one of them or a slice of the hint's rounds was
active (else each is +0.0).  eps_f depends on no decision: `play` writes it
after its loop from the loss errors the predictor records (`f_error`).
V_r lives only in the `ccv_cum` column, where the audit reads it, and
Phi'(V_r) is taken once per epoch.  A forward gradient settles m rounds
after its decision, so the learner keeps only the last O(m) rounds of
decisions, slices and weights.  The family's `fill_values` (penalty
OGD's writer too) writes the columns that are functions of the decisions
after the loop, g_mem too (the loop's g_t has its bits, so V is the
running sum of the recorded g+).  The loop's dot products, norms and sums
of squares add in index order from 0.0 (`core.float_vectors`), as those
of the numpy learner the tests hold it to, `tests/reference_odaf.py`, do.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import Variant, fdot, float_vectors, round_table
from .geometry import dub_alpha, ftrl_argmin, regret_coefficient
from .metrics import RunTrace
from .penalty import EXP_CAP, PenaltyKind, check_lambda, lambda_optimistic, phi_prime

MAX_PATTERN_SLICES = 12
_EXP = PenaltyKind.EXPONENTIAL


class OdafLearner:
    """One optimistic run, restarted in place at each doubling epoch.

    The decision window (`x_hist`, round -> decision, holding the m + 2
    rounds a later round reads), the trace table (row t - first_round
    holds round t; V_t enters its `ccv_cum`, the one home of the
    cumulative violation, before x_{t+1} is committed), the hints (row k
    is h_{first_round + k}) and `fixed_point_fallbacks` last the whole
    run.  `restart(t, lam)` starts an epoch at round t: slices of rounds
    before t read as absent, as in the pre-history of a cold start, and
    the gradient memory and hint-error statistics start fresh.  `play(t,
    stop)` plays rounds t .. stop - 1 (an epoch, or one round) in one call;
    the family's `fill_values` writes the other columns after the last round.
    """

    def __init__(self, instance, variant: Variant, predictor, lam: float):
        if not hasattr(instance, "f_coef"):
            raise TypeError("optimistic learner needs a separable-slice instance")
        if variant is Variant.COCO_M and instance.constraint_memory:
            raise ValueError("memory-less-constraint variant needs constraint slices at delay 0")
        self.inst = instance
        self.variant = variant
        self.m = instance.m
        self.dim = dim = instance.dim
        self.fset = instance.fset
        self.predictor = predictor
        predictor.bind(instance)
        self.alpha = dub_alpha(self.fset)
        self.dual_delay = variant.dual_delay(self.m)
        self._zero, center, rows, self._dot = float_vectors(self.fset)

        first = instance.first_round
        self.records = round_table(instance.horizon - first + 1, dim)
        self.hints = np.zeros((instance.horizon - first + 2, dim))
        # the rows the loop reads and writes: slice (t, i) is row t (m + 1) + i
        # of the flat slice coefficients, round first + k row k of the decision
        # and hint columns
        self._f, self._g, self._x_col, self._hint_col = (rows(a) for a in (
            instance.f_coef.reshape(-1, dim), instance.g_coef.reshape(-1, dim),
            self.records["x"], self.hints))
        self._off, self._present = (memoryview(a.reshape(-1)) for a in (instance.g_off,
                                                                       instance.g_present))
        self._ccv_col = memoryview(self.records["ccv_cum"])
        self._cols = tuple(memoryview(self.records[name]) for name in (
            "phi_prime", "grad_norm", "eta_or_mu", "eps_g", "eps_z"))
        self.x_hist = {r: center for r in range(first - self.m - 1, first)}
        self.fixed_point_fallbacks = 0
        self.restart(first, lam)

    def restart(self, t: int, lam: float) -> None:
        """Start an epoch at round t with penalty parameter lam: slices of
        rounds before t read as absent, the gradient memory and hint-error
        statistics start fresh, and x_t is committed again."""
        check_lambda(lam)
        self.lam = float(lam)  # keeps numpy scalars out of the float arithmetic
        self.records["lam"][t - self.inst.first_round:] = self.lam
        # round r -> its constraint rows active at the decision they touch, else None
        self._seen: dict[int, list] = {}
        self._epoch, self._last_active = t, -1  # epoch start, last round with an active row
        # decision s -> revealed part of grad Z_s, summed in delay order, open or settled
        self._open, self._forward = {}, {}
        self._rev_sum = self._zero
        # hint round -> (hint, {forecast index: g} of its constraint forecasts
        # judged active) until the round's gradient settles, and
        # settled hint round -> its DUB weight a, while the lagged window sum reads it
        self._pending, self._a = {}, {}
        self._cum_sq = self._max_awin = 0.0
        # played round q -> Phi'(V_q) at this epoch's lambda, while a later round reads it
        played = range(max(t - self.dual_delay, self.inst.first_round), t)
        self._weights = {q: phi_prime(_EXP, self.lam, self.v_at(q)) for q in played}
        self.play(t - 1, t, observe=False)  # commit x_t from an all-predicted hint

    def v_at(self, r: int) -> float:
        """Cumulative violation after round r, the table's `ccv_cum` row;
        rounds before the run and rounds not yet played (zero rows) read 0."""
        k = r - self.inst.first_round
        return self._ccv_col[k] if 0 <= k < len(self._ccv_col) else 0.0

    @np.errstate(over="ignore", invalid="ignore")  # numpy overflows as floats do: silently
    def play(self, t: int, stop: int, coeff: float = 0.0, budget: float = math.inf,
             observe: bool = True) -> int:
        """Play rounds t .. stop - 1 in one loop over local state, written
        back on return; returns the round it stopped before: `stop`, or the
        first round at which coeff sqrt(E) > budget, E the sum of eps_g over
        this call's rounds (the doubling trick's restart rule).  Round t
        reveals its slices, writes g_t and V_t, settles grad Z_{t-m} and the
        errors of h_{t-m}, then assembles h_{t+1} and commits x_{t+1}; with
        `observe` false (a restart's pre-step) only the last two.  The
        eps_f rows of the rounds played are written after the loop."""
        m, delay, lam, fset, alpha = self.m, self.dual_delay, self.lam, self.fset, self.alpha
        m1, first, diam, zero = m + 1, self.inst.first_round, fset.diameter, self._zero
        dot, coco_m2 = self._dot, self.variant is Variant.COCO_M2
        f, g, off, present = self._f, self._g, self._off, self._present
        x_col, hint_col, ccv_col = self._x_col, self._hint_col, self._ccv_col
        pp_col, norm_col, mu_col, eg_col, ez_col = self._cols
        xs, seen, opened, fwd = self.x_hist, self._seen, self._open, self._forward
        pending, a_win, weights, weight = self._pending, self._a, self._weights, self._weights.get
        forecasts, resolve = self.predictor.forecasts, self._resolve_pending_activity
        argmin, sqrt, exp = ftrl_argmin, math.sqrt, math.exp  # a wrapper set on the module applies
        rev_sum, cum_sq, max_awin, last_active = (self._rev_sum, self._cum_sq, self._max_awin,
                                                  self._last_active)
        # the hint's pairs in `hint_pairs` order: (delay, forecast index) of those of
        # pending decision s = t + 1 - u, then the indices of the committed one's (u = 0)
        hint_pairs = self.predictor.hint_pairs
        pend = [(u, [(i, j) for dq, i, j in hint_pairs if i - dq == u]) for u in range(m, 0, -1)]
        own = [j for dq, i, j in hint_pairs if dq == i]
        v = ccv_col[t - first - 1] if t > first else 0.0
        x_now, error, start, stopped, bounded = xs[t], 0.0, t, stop, budget < math.inf
        for t in range(t, stop):
            if observe:
                if bounded and coeff * sqrt(error) > budget:
                    stopped = t
                    break
                k, r = t - first, t * m1
                mult = weight(t - delay, lam)
                active = seen[t] = [None] * m1
                seen.pop(t - m1, None)
                g_sum = g_now = 0.0
                for i in range(m1):
                    z = opened.get(t - i, zero) + f[r + i]
                    if present[r + i]:
                        val = dot(g[r + i], xs[t - i]) + off[r + i]
                        g_sum += val
                        if i == 0:
                            g_now = val
                        if val > 0.0:
                            active[i] = g[r + i]
                            z = z + mult * active[i]
                            last_active = t
                    opened[t - i] = z
                g_val = g_sum if coco_m2 else g_now
                v = v + (0.0 if g_val < 0.0 else g_val)  # max(g_val, 0.0), -0.0 and nan kept
                ccv_col[k] = v  # the next decision's weights read V_t
                weights[t] = lam * exp(min(lam * v, EXP_CAP))  # phi_prime(_EXP, lam, v)
                weights.pop(t - delay - 1, None)  # no later round reads it
                # settle grad Z_s and the weights of hint h_s
                s = t - m
                z = opened.pop(s)
                fwd[s] = z
                fwd.pop(s - m1, None)
                rev_sum = rev_sum + z
                norm = sqrt(dot(z, z))
                settled = pending.pop(s, None)
                if settled is None:
                    eps_z = eps_g = 0.0
                else:
                    hint, acts = settled
                    win = zero
                    for j in range(s - m, s + 1):
                        if j in fwd:
                            win = win + fwd[j]
                    diff = hint - win
                    eps_z = dot(diff, diff)
                    err = sqrt(eps_z)
                    a = diam * (norm if norm < err else err)  # min(err, norm)
                    a_win[s] = a
                    a_win.pop(s - m, None)  # the m weights of the lagged window
                    # the Huber weight 0.5 err^2 - 0.5 max(err - norm, 0)^2, err, norm >= 0
                    hinge = err - norm
                    hinge = 0.0 if hinge < 0.0 else hinge
                    cum_sq += a * a + 2.0 * alpha * (0.5 * err * err - 0.5 * hinge * hinge)
                    # each constraint forecast's error against the revealed slice, in
                    # pair order: every term is +0.0 unless a forecast or a slice of
                    # rounds s .. t was active
                    eps_g = 0.0
                    if acts or last_active >= s:
                        dg = zero
                        for dq, i, j in hint_pairs:
                            act = seen[s + dq][i]
                            dg = dg + (acts.get(j, zero) - (zero if act is None else act))
                        eps_g = dot(dg, dg)
            # end of round t: assemble h_{t+1} and commit x_{t+1}; round r's
            # constraint slices weigh Phi'(V_{r-d}), and prehistory and rounds
            # not yet played read V = 0, whose weight is lambda itself
            nxt = t + 1
            fc, acts = forecasts(nxt), {}
            # pending decisions s = t+1-m .. t: known slices plus predictions,
            # accumulated in the same slice order as the settled gradient so
            # perfect predictions reproduce it bitwise
            base = zero
            for u, pairs in pend:
                s = nxt - u
                z, x_s = opened.get(s, zero), xs[s]
                for i, j in pairs:
                    f_pred, gp, g_off = fc[j]
                    z = z + f_pred
                    if dot(gp, x_s) + g_off > 0.0:
                        z = z + weight(s + i - delay, lam) * gp
                        acts[j] = gp
                base = base + z
            # the decision being committed, pairs (t + 1 + i, i): each constraint
            # forecast with a nonzero coefficient may toggle, and carries its
            # weighted gradient; toggles switched on enter the hint in block order
            f_block, toggles = zero, []
            for i, j in enumerate(own):
                f_pred, gp, g_off = fc[j]
                f_block = f_block + f_pred
                if dot(gp, gp) > 0.0:
                    toggles.append((i, gp, g_off, weight(nxt + i - delay, lam) * gp))
            mu = (2.0 / alpha) * max_awin + sqrt(cum_sq) / alpha
            lin0, hint = rev_sum + base + f_block, base + f_block
            x_next, flags = (resolve(lin0, mu, toggles, x_now) if toggles
                             else (argmin(fset, lin0, mu), ()))
            if True in flags:
                on = {i: term for (i, _, _, term), flag in zip(toggles, flags) if flag}
                ztilde = zero
                for i, j in enumerate(own):
                    f_pred, gp, _ = fc[j]
                    ztilde = ztilde + f_pred
                    if i in on:
                        ztilde = ztilde + on[i]
                        acts[j] = gp
                hint = base + ztilde
            hint_col[nxt - first] = hint
            pending[nxt] = (hint, acts)
            xs[nxt] = x_next
            xs.pop(nxt - m - 2, None)
            # fold the newest window sum into the lagged max AFTER mu used it
            s = t - m
            if s in a_win:
                awin = sum(a_win.values())
                max_awin = awin if awin > max_awin else max_awin
            if observe:
                x_col[k] = x_now
                pp_col[k], norm_col[k], mu_col[k] = mult, norm, mu
                eg_col[k], ez_col[k] = eps_g, eps_z
                error += eps_g
            x_now = x_next
        self._rev_sum, self._cum_sq, self._max_awin = rev_sum, cum_sq, max_awin
        self._last_active = last_active
        if observe:  # eps_f of row t from the epoch's (m + 1)th on: h_{t-m}'s loss error
            lo = max(start, self._epoch + m)
            err = self.predictor.f_error[lo - m:stopped - m]
            self.records["eps_f"][lo - first:stopped - first] = fdot(err, err)
        return stopped

    def _resolve_pending_activity(self, lin0, mu: float, toggles, x_last):
        """Search for an activity pattern of the pending round's constraint
        forecasts (at least one) that reproduces itself at the decision it
        induces; falls back to judging activity at the last committed
        decision when no pattern is self-consistent.

        In 1-D at most one pattern holds (each flag is monotone in x, and
        switching a toggle on moves the decision against its flag).  One pass
        gives the fallback pattern, its linear term and the bound |center| +
        (|lin0| + sum |term|) / mu on every decision (rounding is monotone).
        If it is finite, the fallback pattern (its decision kept for a miss)
        and the k + 1 patterns between the sorted thresholds go before the
        2^k enumeration; else the enumeration alone meets the error."""
        fset, dot = self.fset, self._dot
        tried, candidates = {}, ()
        if self.dim == 1:
            flags, lin, bound = [], lin0, abs(lin0)
            for _, g, g_off, term in toggles:
                flags.append(on := g * x_last + g_off > 0.0)
                if on:
                    lin = lin + term
                bound += abs(term)
            last = tuple(flags)
            if math.isfinite(abs(fset.interval[2]) + bound / mu if mu != 0.0 else bound):
                x = tried[last] = ftrl_argmin(fset, lin, mu)
                for (_, g, g_off, _), on in zip(toggles, last):
                    if (g * x + g_off > 0.0) != on:
                        break
                else:
                    return x, last
                candidates = _interval_patterns(toggles)
        else:
            last = tuple(dot(g, x_last) + g_off > 0.0 for _, g, g_off, _ in toggles)
        if len(toggles) <= MAX_PATTERN_SLICES:
            candidates = itertools.chain(
                candidates, itertools.product((False, True), repeat=len(toggles)))
        for pattern in candidates:
            if pattern not in tried:
                x = tried[pattern] = ftrl_argmin(fset, _with_terms(lin0, toggles, pattern), mu)
                if tuple(dot(g, x) + g_off > 0.0 for _, g, g_off, _ in toggles) == pattern:
                    return x, pattern
        self.fixed_point_fallbacks += 1
        if last not in tried:
            tried[last] = ftrl_argmin(fset, _with_terms(lin0, toggles, last), mu)
        return tried[last], last


def _with_terms(lin0, toggles, flags):
    """lin0 plus the weighted gradients of the toggles switched on."""
    lin = lin0
    for (_, _, _, term), on in zip(toggles, flags):
        if on:
            lin = lin + term
    return lin


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
    learner.play(instance.rounds.start, instance.rounds.stop)
    return _trace(learner, [instance.first_round])


def _trace(learner: OdafLearner, epoch_starts: list[int], **extras) -> RunTrace:
    """The `odaf` trace of a finished run; `extras` follow the hints, whose
    last row, h_{horizon + 1}, is committed but never played, and the
    epochs, one per round of `epoch_starts`.  The `lam` column is the run's
    only record of lambda, the `eps_*` columns of the hint errors."""
    learner.inst.fill_values(learner.records, learner.variant)
    learner.records["v_dual"] = learner.records["ccv_cum"]
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
    t, stop = instance.rounds.start, instance.rounds.stop
    starts = [t]
    learner = OdafLearner(instance, variant, predictor, lambda_optimistic(budget, offset))
    while (t := learner.play(t, stop, coeff, budget)) < stop:
        starts.append(t)
        budget = 2.0 ** (len(starts) - 1) * mu1
        learner.restart(t, lambda_optimistic(budget, offset))
    return _trace(learner, starts, mu1=mu1)
