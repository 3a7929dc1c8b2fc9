"""The numpy ODAF learner that `cocomem.optimistic` replaced: the
reference the float learner is held to, bit for bit.

`OdafLearner` plays every round on numpy arrays of shape (d,) and keeps
its history in dicts that grow with the horizon; it is the learner the
package shipped before `optimistic.OdafLearner` moved to Python floats
with O(m) state, kept here unchanged but for the regularizer, which
`ftrl_argmin` now takes from the feasible set, for its value columns,
and for its dot products and norms, which add in index order from 0.0
(`_dot`), the package's one order, where numpy's BLAS may round otherwise,
and for its round order: `play_round(t)` commits x_t and then observes
round t, with no pre-step and no commit for horizon + 1, as the
package's learner does.  The package's learner takes f_mem, f_splat and g_splat from the family's
`fill_values`; here they come from `reference_ogd.separable_round_evaluator`,
which adds the same terms one by one in the family's order.  `run_optimistic`,
`DoublingLearner` and `run_doubling` drive it exactly as the package's
runners drive theirs, and report the same extras.  `DoublingSchedule`
keeps the doubling trick's epoch bookkeeping in a class of its own, so
the package's `run_doubling` loop is checked against other code.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from cocomem.core import round_table
from cocomem.geometry import ftrl_argmin, regret_coefficient
from cocomem.metrics import RunTrace
from cocomem.optimistic import MAX_PATTERN_SLICES, doubling_mu1
from cocomem.penalty import Penalty, PenaltyKind, lambda_optimistic
from reference_ogd import fdot, separable_round_evaluator


def huber(x: float, y: float) -> float:
    """0.5 x^2 - 0.5 (|x| - |y|)_+^2, the robust square that the DUB
    weights apply to hint errors (the package's learner writes it inline)."""
    hinge = max(abs(x) - abs(y), 0.0)
    return 0.5 * x * x - 0.5 * hinge * hinge


class OdafLearner:
    """One optimistic run (or one epoch of the doubling wrapper).

    `visibility_floor` zero-pads all slices of rounds before it, so a
    fresh epoch treats earlier rounds exactly like the pre-history of a
    cold start while the decision and violation paths carry over through
    the shared `x_hist` / `v_hist` maps and the shared `records` table
    (row t - instance.first_round holds round t).
    """

    def __init__(
        self,
        instance,
        predictor,
        penalty: Penalty,
        first_round: int | None = None,
        visibility_floor: int | None = None,
        x_hist: dict | None = None,
        v_hist: dict | None = None,
        records: np.ndarray | None = None,
    ):
        if penalty.kind is not PenaltyKind.EXPONENTIAL:
            raise ValueError("the optimistic learner uses the exponential penalty")
        if not hasattr(instance, "f_coef"):
            raise TypeError("optimistic learner needs a separable-slice instance")
        self.inst = instance
        self.m = instance.m
        self.dim = instance.dim
        self.fset = instance.fset
        self.penalty = penalty
        self.predictor = predictor
        predictor.bind(instance)
        self.alpha = self.fset.diameter**2  # the DUB weight scale
        self.first = instance.first_round if first_round is None else first_round
        self.floor = self.first if visibility_floor is None else visibility_floor
        self.dual_delay = self.m + 1 if instance.constraint_memory else 1
        self._values = separable_round_evaluator(instance, instance.rounds)

        self.x_hist = x_hist if x_hist is not None else {}
        self.v_hist = v_hist if v_hist is not None else {}
        if records is None:
            records = round_table(instance.horizon - instance.first_round + 1, self.dim)
        self.records = records
        for r in range(self.first - self.m - 1, self.first):
            self.x_hist.setdefault(r, self.fset.center)

        # slice rows this learner sees: rounds below the visibility floor
        # (or without slices in the instance) read as absent
        self._lo = max(self.floor, self.m + 1)
        self._hi = instance.horizon
        self._zero = np.zeros(self.dim)
        self._zero.flags.writeable = False

        # activity of every revealed constraint slice this learner sees,
        # judged at the decision the slice touches
        self._g_active: dict[tuple[int, int], bool] = {}
        self._forward: dict[int, np.ndarray] = {}
        self._rev_sum = np.zeros(self.dim)
        self._last_complete = self.first - self.m - 1  # newest assembled forward round
        self.hints: dict[int, np.ndarray] = {}
        self._hint_preds: dict[int, dict] = {}
        self._forecasts: list[tuple] = []
        self._a: dict[int, float] = {}
        self._b: dict[int, float] = {}
        self._cum_sq = 0.0
        self._max_awin = 0.0
        self.mu_now = 0.0
        self.fixed_point_fallbacks = 0
        self.ccv = 0.0 if not self.v_hist else self.v_hist[max(self.v_hist)]

    # -- slice rows (epoch floor applied) ------------------------------------

    def _f_row(self, r: int, i: int) -> np.ndarray | None:
        """Loss coefficient of slice (r, i), or None when absent."""
        return self.inst.f_coef[r, i] if self._lo <= r <= self._hi else None

    def _g_row(self, r: int, i: int) -> tuple[np.ndarray, float] | None:
        """(coeff, offset) of constraint slice (r, i), or None when absent."""
        if self._lo <= r <= self._hi and self.inst.g_present[r, i]:
            return self.inst.g_coef[r, i], float(self.inst.g_off[r, i])
        return None

    # -- violation path -----------------------------------------------------

    def v_at(self, r: int) -> float:
        return self.v_hist.get(r, 0.0)

    def _mult(self, r: int) -> float:
        """Penalty weight of round r's constraint slice inside the forward
        function; prehistory reads V = 0."""
        return self.penalty.prime(self.v_at(r - self.dual_delay))

    # -- forward gradients ----------------------------------------------------

    def forward_gradient(self, s: int) -> np.ndarray:
        """grad Z_s, available once every slice (s+i, i) is revealed."""
        if s > self._last_complete:
            raise ValueError(f"forward gradient of round {s} is not revealed yet")
        return self._forward.get(s, np.zeros(self.dim))

    def _add_revealed(self, z: np.ndarray, r: int, i: int) -> None:
        """z += gradient of the revealed slice pair (r, i)."""
        f = self._f_row(r, i)
        if f is not None:
            z += f
        if self._g_active.get((r, i)):
            z += self._mult(r) * self.inst.g_coef[r, i]

    def _complete_round(self, s: int) -> tuple[float, float, float]:
        """Settle grad Z_s and the weights of hint h_s; returns the hint's
        errors (eps_Z, eps_f, eps_g), zero when no hint h_s exists."""
        z = np.zeros(self.dim)
        for i in range(self.m + 1):
            self._add_revealed(z, s + i, i)
        self._forward[s] = z
        self._rev_sum = self._rev_sum + z
        self._last_complete = s
        if s not in self.hints:
            return 0.0, 0.0, 0.0
        diff = self.hints[s] - self._window_sum(s)
        err = math.sqrt(_dot(diff, diff))
        zn = math.sqrt(_dot(z, z))
        a = self.fset.diameter * min(err, zn)
        self._a[s] = a
        self._b[s] = huber(err, zn)
        self._cum_sq += a * a + 2.0 * self.alpha * self._b[s]
        return self._prediction_errors(s, diff)

    def _window_sum(self, tau: int) -> np.ndarray:
        """sum_{j=tau-m}^{tau} grad Z_j over revealed rounds."""
        win = np.zeros(self.dim)
        for j in range(tau - self.m, tau + 1):
            if j in self._forward:
                win += self._forward[j]
        return win

    def _awin(self, j: int) -> float:
        return sum(self._a.get(i, 0.0) for i in range(j - self.m + 1, j + 1))

    def odaf_weights(self, t: int) -> tuple[float, float, float]:
        """(a_t-m, b_t-m, mu_{t+1}) per the delayed-upper-bound sequence;
        call after the round's forward gradient completed."""
        s = t - self.m
        mu = (2.0 / self.alpha) * self._max_awin + math.sqrt(self._cum_sq) / self.alpha
        return self._a.get(s, 0.0), self._b.get(s, 0.0), mu

    # -- prediction errors ----------------------------------------------------

    def _prediction_errors(self, tau: int, diff: np.ndarray) -> tuple[float, float, float]:
        """(eps_Z, eps_f, eps_g) of hint h_tau once grad Z_tau is revealed;
        `diff` is h_tau minus the revealed window sum."""
        eps_z = _dot(diff, diff)
        df = np.zeros(self.dim)
        dg = np.zeros(self.dim)
        for (r, i), (f_pred, g_pred) in self._hint_preds[tau].items():
            f = self._f_row(r, i)
            df += f_pred - (f if f is not None else 0.0)
            dg += g_pred - (self.inst.g_coef[r, i] if self._g_active.get((r, i)) else 0.0)
        return eps_z, _dot(df, df), _dot(dg, dg)

    # -- hint assembly and the FTRL step ------------------------------------

    def _forecast(self, r: int, i: int) -> tuple[np.ndarray, tuple[np.ndarray, float]]:
        """This round's forecast of slice pair (r, i): the loss coefficient
        and the constraint's (coeff, offset), from the predictor's
        forecasts of the round, pair (t + j, i) at index i (i + 1) / 2 + j;
        the predictor sets a non-finite forecast to zero."""
        t = self._forecast_round
        f, g_coef, g_off = self._forecasts[i * (i + 1) // 2 + r - t]
        return (np.array(f, dtype=float, ndmin=1),
                (np.array(g_coef, dtype=float, ndmin=1), float(g_off)))

    def _pending_subtotal(self, s: int, t: int, preds: dict) -> np.ndarray:
        """Known-plus-predicted stand-in for grad Z_s, accumulated in the
        same slice order as `_complete_round` so perfect predictions
        reproduce the revealed gradient bitwise."""
        z = np.zeros(self.dim)
        x_s = self.x_hist[s]
        for i in range(self.m + 1):
            r = s + i
            if r <= t:
                self._add_revealed(z, r, i)
                continue
            f_pred, g = self._forecast(r, i)
            z += f_pred
            if _active(g, x_s):
                z += self._mult(r) * g[0]
                preds[(r, i)] = (f_pred, g[0])
            else:
                preds[(r, i)] = (f_pred, self._zero)
        return z

    def _decide(self, t: int) -> None:
        """Start-of-round-t work: assemble h_t and commit x_t with mu_t
        (self-consistent activity for the pending round)."""
        m = self.m
        self._forecast_round = t
        self._forecasts = self.predictor.forecasts(t)
        preds: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        # pending decisions s = t-m .. t-1: known slices plus predictions
        base = np.zeros(self.dim)
        for s in range(t - m, t):
            base = base + self._pending_subtotal(s, t - 1, preds)
        # predicted forward gradient of the decision being committed; each
        # constraint forecast with a nonzero coefficient may toggle, and
        # carries its weighted gradient
        block = [self._forecast(t + i, i) for i in range(m + 1)]
        toggles = [(i, g, self._mult(t + i) * g[0])
                   for i, (_, g) in enumerate(block) if _dot(g[0], g[0]) > 0.0]

        f_block = np.zeros(self.dim)
        for f_pred, _ in block:
            f_block += f_pred
        lin0 = self._rev_sum + base + f_block
        x_t, flags = self._resolve_pending_activity(lin0, self.mu_now, toggles, self.x_hist[t - 1])
        on = {i: term for (i, _, term), flag in zip(toggles, flags) if flag}
        ztilde = np.zeros(self.dim)
        for i, (f_pred, g) in enumerate(block):
            ztilde += f_pred
            if i in on:
                ztilde += on[i]
                preds[(t + i, i)] = (f_pred, g[0])
            else:
                preds[(t + i, i)] = (f_pred, self._zero)
        self.hints[t] = base + ztilde
        self._hint_preds[t] = preds
        self.x_hist[t] = x_t

    def _resolve_pending_activity(self, lin0: np.ndarray, mu: float, toggles,
                                  x_last: np.ndarray):
        """Search for an activity pattern of the pending round's constraint
        forecasts that reproduces itself at the decision it induces; falls
        back to judging activity at the last committed decision when no
        pattern is self-consistent."""
        if not toggles:
            return ftrl_argmin(self.fset, lin0, mu), ()
        if len(toggles) <= MAX_PATTERN_SLICES:
            for pattern in itertools.product((False, True), repeat=len(toggles)):
                x = ftrl_argmin(self.fset, _with_terms(lin0, toggles, pattern), mu)
                if tuple(_active(g, x) for _, g, _ in toggles) == pattern:
                    return x, pattern
        self.fixed_point_fallbacks += 1
        flags = tuple(_active(g, x_last) for _, g, _ in toggles)
        return ftrl_argmin(self.fset, _with_terms(lin0, toggles, flags), mu), flags

    # -- one full round -------------------------------------------------------

    def play_round(self, t: int) -> np.record:
        """Commit x_t, then observe round t, settle the newly revealed
        forward gradient and hint error, and compute mu_{t+1}."""
        m = self.m
        self._decide(t)
        x_t = self.x_hist[t]
        g_rows = [(i, g) for i in range(m + 1) if (g := self._g_row(t, i)) is not None]
        # register true slices and their activity at the decisions they touch
        g_vals = {}
        for i, g in g_rows:
            g_vals[i] = _value(g, self.x_hist[t - i])
            self._g_active[(t, i)] = g_vals[i] > 0.0
        if self.inst.constraint_memory:
            g_val = 0.0
            for v in g_vals.values():
                g_val += v
        else:
            g_val = g_vals.get(0, 0.0)
        inc = max(g_val, 0.0)
        self.ccv += inc
        self.v_hist[t] = self.ccv

        eps_z = eps_f = eps_g = 0.0
        s = t - m
        if s >= 1:
            eps_z, eps_f, eps_g = self._complete_round(s)
        _, _, self.mu_now = self.odaf_weights(t)
        # fold the newest window sum into the lagged max AFTER mu used it
        if s in self._a:
            self._max_awin = max(self._max_awin, self._awin(s))

        # the window x_{t-m} .. x_t, oldest first, as one flat list of floats
        row = t - self.inst.first_round
        window = [c for i in range(m, -1, -1) for c in self.x_hist[t - i].tolist()]
        f_mem, f_spl, _, _, g_spl, _ = self._values(row, window, x_t.tolist())
        mult_t = self._mult(t)
        z = self._forward.get(s, np.zeros(self.dim))
        self.records[row] = (
            t, x_t, f_mem, f_spl, g_val, g_spl, inc, self.ccv, self.ccv, mult_t,
            self.penalty.lam, math.sqrt(_dot(z, z)), self.mu_now,
            eps_f, eps_g, eps_z,
        )
        return self.records[row]


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The dot product of two (d,) arrays, added in index order from 0.0."""
    return fdot(a.tolist(), b.tolist())


def _value(g: tuple[np.ndarray, float], x: np.ndarray) -> float:
    """Value at x of an affine constraint slice or forecast (coeff, offset)."""
    return _dot(g[0], x) + g[1]


def _active(g: tuple[np.ndarray, float], x: np.ndarray) -> bool:
    """Whether the hinge of constraint slice or forecast g is active at x."""
    return _value(g, x) > 0.0


def _with_terms(lin0: np.ndarray, toggles, flags) -> np.ndarray:
    """lin0 plus the weighted gradients of the toggles switched on."""
    lin = lin0.copy()
    for (_, _, term), on in zip(toggles, flags):
        if on:
            lin += term
    return lin


def run_optimistic(
    instance,
    predictor,
    lam: float | None = None,
    error_estimate: float = 0.0,
) -> RunTrace:
    """Drive one optimistic run; lam defaults to the theorem tuning with
    the supplied estimate of the cumulative constraint prediction error."""
    if lam is None:
        k = instance.constants()
        coeff = regret_coefficient(instance.fset, instance.m)
        eff_m = instance.m if instance.constraint_memory else 0
        lam = lambda_optimistic(coeff * math.sqrt(error_estimate), k.g_bound * (eff_m + 1))
    learner = OdafLearner(instance, predictor, Penalty(PenaltyKind.EXPONENTIAL, lam))
    for t in range(instance.first_round, instance.horizon + 1):
        learner.play_round(t)
    return RunTrace(
        algorithm="odaf",
        penalty_kind=PenaltyKind.EXPONENTIAL,
        records=learner.records,
        instance=instance,
        extras={
            # row k is the hint h_{first_round + k}
            "hints": np.array(list(learner.hints.values())),
            "epochs": 1,
            "epoch_starts": [instance.first_round],
            "fixed_point_fallbacks": learner.fixed_point_fallbacks,
        },
    )


class DoublingSchedule:
    """Epoch bookkeeping of the online penalty tuning.

    The complexity estimate is psi(Delta, E) = C sqrt(E); whenever the
    per-epoch estimate exceeds the current budget the budget doubles and
    the epoch restarts with `lambda_optimistic(budget, offset)`.  The
    caller records the first of `epoch_starts`, `restart(t)` the others.
    """

    def __init__(self, regret_coeff: float, offset: float, mu1: float):
        if mu1 <= 0:
            raise ValueError("initial budget must be positive")
        self.coeff = regret_coeff
        self.offset = offset
        self.mu1 = mu1
        self.epoch = 1
        self.budget = mu1
        self.error_in_epoch = 0.0
        self.epoch_starts: list[int] = []

    def psi(self, error: float) -> float:
        return self.coeff * math.sqrt(max(error, 0.0))

    @property
    def lam(self) -> float:
        return lambda_optimistic(self.budget, self.offset)

    def should_restart(self) -> bool:
        return self.psi(self.error_in_epoch) > self.budget

    def restart(self, t: int) -> None:
        """Start the next epoch, with the doubled budget, at round t."""
        self.epoch += 1
        self.budget = 2.0 ** (self.epoch - 1) * self.mu1
        self.error_in_epoch = 0.0
        self.epoch_starts.append(t)

    def observe(self, eps_g: float) -> None:
        self.error_in_epoch += eps_g


class DoublingLearner:
    """Optimistic learner with online penalty tuning (one inner learner per
    epoch; decisions and the violation path persist across restarts, the
    gradient memory and hint-error statistics start fresh).  `hints`
    collects every epoch's hints by round, one per played round."""

    def __init__(self, instance, predictor, error_estimate: float = 0.0):
        self.inst = instance
        self.predictor = predictor
        k = instance.constants()
        coeff = regret_coefficient(instance.fset, instance.m)
        offset = k.g_bound * ((instance.m + 1) if instance.constraint_memory else 1)
        self.schedule = DoublingSchedule(coeff, offset, doubling_mu1(coeff, error_estimate))
        self.schedule.epoch_starts.append(instance.first_round)
        self.x_hist: dict = {}
        self.v_hist: dict = {}
        self.records = round_table(instance.horizon - instance.first_round + 1, instance.dim)
        self.hints: dict[int, np.ndarray] = {}
        self._closed_fallbacks = 0
        self._spawn(instance.first_round)

    @property
    def fixed_point_fallbacks(self) -> int:
        """Hint fixed-point fallbacks summed over every epoch so far."""
        return self._closed_fallbacks + self.inner.fixed_point_fallbacks

    def _spawn(self, start_round: int) -> None:
        self.inner = OdafLearner(
            self.inst,
            self.predictor,
            Penalty(PenaltyKind.EXPONENTIAL, self.schedule.lam),
            first_round=start_round,
            visibility_floor=start_round,
            x_hist=self.x_hist,
            v_hist=self.v_hist,
            records=self.records,
        )

    def play_round(self, t: int) -> np.record:
        if self.schedule.should_restart():
            self.schedule.restart(t)
            self._closed_fallbacks += self.inner.fixed_point_fallbacks
            self._spawn(t)
        rec = self.inner.play_round(t)
        self.hints[t] = self.inner.hints[t]
        self.schedule.observe(rec.eps_g)
        return rec


def run_doubling(
    instance,
    predictor,
    error_estimate: float = 0.0,
) -> RunTrace:
    learner = DoublingLearner(instance, predictor, error_estimate=error_estimate)
    for t in range(instance.first_round, instance.horizon + 1):
        learner.play_round(t)
    sched = learner.schedule
    return RunTrace(
        algorithm="odaf",
        penalty_kind=PenaltyKind.EXPONENTIAL,
        records=learner.records,
        instance=instance,
        extras={
            "hints": np.array([learner.hints[r] for r in sorted(learner.hints)]),
            "epochs": sched.epoch,
            "epoch_starts": list(sched.epoch_starts),
            "mu1": sched.mu1,
            "mu_final": sched.budget,
            "fixed_point_fallbacks": learner.fixed_point_fallbacks,
        },
    )
