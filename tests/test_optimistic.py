import collections
import hashlib
import itertools
import json
import math
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocomem import (
    NoisyPredictor,
    PenaltyKind,
    PerfectPredictor,
    SeparableLinearInstance,
    Variant,
    ZeroPredictor,
    optimistic,
    run_doubling,
    run_optimistic,
)
from cocomem.core import Ball
from cocomem.geometry import ftrl_argmin, minimize_linear, project, regret_coefficient
from cocomem.harness import ExperimentConfig, load_config, run_single
from cocomem.metrics import ForwardFunctions
from cocomem import optimistic, pcg
from cocomem.optimistic import OdafLearner, doubling_mu1
from cocomem.penalty import Penalty, lambda_optimistic, phi_prime
from helpers import (assert_v_at_reads_the_table, doubling_epoch_bound, error_sums, pinned_layout,
                     python_calls)
from reference_odaf import DoublingSchedule, huber
from reference_ogd import separable_round_evaluator


def _rows(inst, r, i):
    """(loss coeff, constraint coeff, constraint offset) of slice pair
    (r, i), read from the instance arrays; zeros outside rounds (m,
    horizon], where no slice exists.  An absent constraint slice's rows
    are zero, so it is never active."""
    if not inst.m < r <= inst.horizon:
        return np.zeros(inst.dim), np.zeros(inst.dim), 0.0
    return inst.f_coef[r, i], inst.g_coef[r, i], float(inst.g_off[r, i])


def last_played(learner):
    """The newest round the learner has played: the one before the newest
    decision it has committed."""
    return max(learner.x_hist) - 1


def forward_gradient(learner, s):
    """grad Z_s as the learner holds it: available once every slice
    (s+i, i) is revealed and until m more rounds have settled; rounds
    before 1, which no slice touches, read as zero (the learner has not
    restarted)."""
    if s > last_played(learner) - learner.m:  # the newest assembled forward round
        raise ValueError(f"forward gradient of round {s} is not revealed yet")
    z = learner._forward.get(s)
    if z is not None:
        return np.array(z, dtype=float, ndmin=1)
    if s >= 1:
        raise ValueError(f"forward gradient of round {s} is no longer held")
    return np.zeros(learner.dim)


def _forward_gradient(inst, tr, X, pen, s):
    """grad Z_s rebuilt from the slice rows and the decisions X by round."""
    z = np.zeros(inst.dim)
    for i in range(inst.m + 1):
        f, g, off = _rows(inst, s + i, i)
        z += f
        if float(g @ X[s]) + off > 0:
            z += pen.prime(tr.v_at(s + i - inst.m - 1)) * g
    return z


@pytest.mark.parametrize("variant", list(Variant))
def test_1d_round_calls_only_its_forecasts_and_its_ftrl_step(variant):
    """At d = 1 a round with no constraint forecast to toggle writes
    Phi', the Huber weight, the sums of squares and the lagged window sum
    inline: 200 more rounds make 200 more calls each of
    `Predictor.forecasts` and `ftrl_argmin`, one frame per decision, and
    no other Python call (the forecasts of both runs come from one held
    block)."""
    calls = []
    for horizon in (40, 240):
        inst = SeparableLinearInstance(m=2, horizon=horizon, seed=1,
                                       constraint_memory=variant is Variant.COCO_M2)
        calls.append(python_calls(run_optimistic, inst, variant, ZeroPredictor()))
    calls[1].subtract(calls[0])
    assert +calls[1] == {"Predictor.forecasts": 200, "ftrl_argmin": 200}
    assert -calls[1] == {}


def test_huber_examples():
    assert huber(3.0, 1.0) == pytest.approx(2.5)   # 4.5 - 0.5*(3-1)^2
    assert huber(1.0, 3.0) == pytest.approx(0.5)   # hinge inactive
    assert huber(0.0, 0.0) == 0.0


def test_huber_inequality():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        x, y = rng.normal(scale=3.0, size=2)
        assert huber(x, y) <= min(0.5 * x * x, abs(x) * abs(y)) + 1e-12


def _hand_instance():
    """m=1, horizon=6, hand-set slices for delay-level arithmetic checks."""
    inst = SeparableLinearInstance(m=1, horizon=6, seed=0)
    inst.f_coef[:] = 0.0
    inst.g_coef[:] = 0.0
    inst.g_off[:] = 0.0
    inst.g_present[:] = False
    # f slices (round, delay): values chosen to be exactly representable
    inst.f_coef[2, 0] = 0.5
    inst.f_coef[2, 1] = -0.25
    inst.f_coef[3, 0] = 1.0
    inst.f_coef[3, 1] = 0.75
    inst.f_coef[4, 0] = -0.5
    inst.f_coef[4, 1] = 0.125
    inst.f_coef[5, 0] = 0.25
    inst.f_coef[6, 1] = -1.0
    # one constraint slice active for x > 1: 0.5*x - 0.5
    inst.g_coef[3, 0] = 0.5
    inst.g_off[3, 0] = -0.5
    inst.g_present[3, 0] = True
    return inst


def test_forward_gradient_hand_sum():
    # each forward gradient is checked right after round s + m settles
    # it, while the learner still holds it and the decision it touches
    inst = _hand_instance()
    lam = 0.125
    learner = OdafLearner(inst, Variant.COCO_M2, PerfectPredictor(), lam)
    pen = Penalty(PenaltyKind.EXPONENTIAL, lam)
    learner.play(2, 3)
    learner.play(3, 4)
    # grad Z_2 = f(2,0) + f(3,1) + Phi'(V_0) * g(3,1)-part (absent)
    want = inst.f_coef[2, 0] + inst.f_coef[3, 1]
    assert np.allclose(forward_gradient(learner, 2), want)
    learner.play(4, 5)
    # grad Z_3 = f(3,0) + f(4,1) + Phi'(V_1) * g(3,0) * [active at x_3]
    x3 = learner.x_hist[3]
    want = inst.f_coef[3, 0] + inst.f_coef[4, 1]
    if 0.5 * x3 - 0.5 > 0:
        want = want + pen.prime(learner.v_at(1)) * inst.g_coef[3, 0]
    assert np.allclose(forward_gradient(learner, 3), want)
    for t in range(5, 7):
        learner.play(t, t + 1)
    with pytest.raises(ValueError):
        forward_gradient(learner, 6)  # needs round 7 to reveal slice (7, 1)


def test_forward_gradient_m0_collapse():
    # with m = 0 round t settles grad Z_t; check it before the next round
    inst = SeparableLinearInstance(m=0, horizon=30, seed=5)
    lam = 0.25
    learner = OdafLearner(inst, Variant.COCO_M2, PerfectPredictor(), lam)
    pen = Penalty(PenaltyKind.EXPONENTIAL, lam)
    for t in range(1, 31):
        learner.play(t, t + 1)
        f, g, off = _rows(inst, t, 0)
        want = f.copy()
        if float(g[0] * learner.x_hist[t]) + off > 0:
            want = want + pen.prime(learner.v_at(t - 1)) * g
        assert np.allclose(forward_gradient(learner, t), want)


@pytest.mark.parametrize("m", [0, 1, 3])
def test_decisions_are_bounded_and_v_at_reads_the_table(m):
    """The learner keeps O(m) decisions and forward gradients, and a read
    of one it has dropped raises; the cumulative violation of every
    played round stays readable from the trace table."""
    inst = SeparableLinearInstance(m=m, horizon=40, seed=4,
                                   g_round_density=0.6, g_mag=(0.05, 0.2))
    learner = OdafLearner(inst, Variant.COCO_M2, NoisyPredictor(0.3, seed=1), 0.5)
    first, ccv = inst.first_round, 0.0
    for t in range(first, 31):
        learner.play(t, t + 1)
        ccv += max(float(learner.records["g_mem"][t - first]), 0.0)  # the running sum of g+
        assert len(learner.x_hist) <= m + 2
        assert learner.v_at(t) == ccv
    with pytest.raises(ValueError, match="no longer held"):
        forward_gradient(learner, first)
    assert first not in learner.x_hist
    # still held: the newest rounds, and what the next round reads
    assert type(learner.x_hist[31]) is float
    assert forward_gradient(learner, 30 - m).shape == (1,)
    with pytest.raises(ValueError, match="not revealed"):
        forward_gradient(learner, 31 - m)
    assert_v_at_reads_the_table(learner, 30)


def test_perfect_hint_matches_window_exactly():
    inst = SeparableLinearInstance(m=2, horizon=120, seed=1)
    tr = run_optimistic(inst, Variant.COCO_M2, PerfectPredictor())
    assert error_sums(tr) == {"z": 0.0, "f": 0.0, "g": 0.0}
    assert np.all(tr.col("eps_z") == 0.0)
    assert np.all(tr.col("eta_or_mu") == 0.0)


def test_zero_predictor_hint_enumeration_oracle():
    """Recompute every hint of a zero-predictor run by enumerating the
    known slice set independently: h_tau covers decisions s = tau-m..tau,
    of which only slices revealed before round tau contribute."""
    inst = SeparableLinearInstance(m=1, horizon=60, seed=2)
    tr = run_optimistic(inst, Variant.COCO_M2, ZeroPredictor())
    pen = Penalty(PenaltyKind.EXPONENTIAL, float(tr.col("lam")[-1]))
    hints = tr.extras["hints"]
    m, X = inst.m, inst.by_round(tr.col("x"))
    for tau, h in enumerate(hints, start=tr.first_round):
        want = np.zeros(inst.dim)
        for s in range(tau - m, tau + 1):
            for j in range(m + 1):
                r = s + j
                if r > tau - 1:
                    continue  # unrevealed when h_tau was formed: predicted as zero
                f, g, off = _rows(inst, r, j)
                want += f
                if float(g @ X[s]) + off > 0:
                    want += pen.prime(tr.v_at(r - m - 1)) * g
        assert np.allclose(h, want, atol=1e-12)


def test_prediction_error_m0_collapse():
    # with m = 0 and the zero predictor the hint degenerates to the
    # (zero) predicted forward gradient, and eps_f at round t is exactly
    # ||f coefficient of round t||^2
    inst = SeparableLinearInstance(m=0, horizon=40, seed=3)
    tr = run_optimistic(inst, Variant.COCO_M2, ZeroPredictor())
    assert np.all(tr.extras["hints"] == 0.0)
    for rec in tr.records:
        f = _rows(inst, rec.t, 0)[0]
        want = float(f @ f)
        assert rec.eps_f == pytest.approx(want, abs=1e-12)


def test_violation_recurrence_replay():
    inst = SeparableLinearInstance(m=2, horizon=50, seed=4,
                                   g_round_density=0.5, g_mag=(0.05, 0.2))
    tr = run_optimistic(inst, Variant.COCO_M2, PerfectPredictor())
    X = inst.by_round(tr.col("x"))
    v = 0.0
    for rec in tr.records:
        val = 0.0
        for i in range(3):
            _, g, off = _rows(inst, rec.t, i)
            val += float(g @ X[rec.t - i]) + off
        v += max(val, 0.0)
        assert rec.ccv_cum == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_memoryless_constraint_variant_uses_fresh_violation():
    inst = SeparableLinearInstance(m=1, horizon=60, seed=6, constraint_memory=False,
                                   g_round_density=0.5, g_mag=(0.05, 0.2))
    tr = run_optimistic(inst, Variant.COCO_M, PerfectPredictor())
    v = 0.0
    for rec in tr.records:
        _, g, off = _rows(inst, rec.t, 0)
        v += max(float(g @ rec.x) + off, 0.0)
        assert rec.ccv_cum == pytest.approx(v, rel=1e-12, abs=1e-12)
    with pytest.raises(ValueError):
        run_optimistic(SeparableLinearInstance(m=1, horizon=20, seed=0),
                       Variant.COCO_M, PerfectPredictor())


def test_ftrl_step_matches_grid_argmin():
    """The committed decision minimizes <revealed + hint, x> + mu r(x),
    checked against a fine grid from the trace alone."""
    inst = SeparableLinearInstance(m=2, horizon=40, seed=7)
    tr = run_optimistic(inst, Variant.COCO_M2, NoisyPredictor(0.5, seed=1))
    pen = Penalty(PenaltyKind.EXPONENTIAL, float(tr.col("lam")[-1]))
    m, first, X = inst.m, tr.first_round, inst.by_round(tr.col("x"))

    grid = np.linspace(-2.0, 2.0, 400001)
    center = inst.fset.center[0]
    for t in (20, 30, 39):
        rec = tr.records[t - first]
        rev = np.zeros(1)
        for s in range(1, t - m + 1):
            rev += _forward_gradient(inst, tr, X, pen, s)
        lin = rev + tr.extras["hints"][t + 1 - first]
        mu = rec.eta_or_mu
        x_next = X[t + 1]
        obj = lin[0] * grid + mu * 0.5 * (grid - center) ** 2
        best = grid[np.argmin(obj)]
        got = lin[0] * x_next[0] + mu * 0.5 * (x_next[0] - center) ** 2
        assert got <= float(np.min(obj)) + 1e-9
        if mu > 0:
            assert abs(x_next[0] - best) <= 1e-5 * inst.fset.diameter


def test_m0_run_matches_reference_memory_free_learner():
    """Step-for-step reduction oracle: an independent memory-free
    optimistic penalty learner (zero hints) reproduces the m=0 run."""
    inst = SeparableLinearInstance(m=0, horizon=80, seed=8,
                                   g_round_density=0.4, g_mag=(0.05, 0.2))
    tr = run_optimistic(inst, Variant.COCO_M2, ZeroPredictor())
    lam = float(tr.col("lam")[-1])
    pen = Penalty(PenaltyKind.EXPONENTIAL, lam)
    fset = inst.fset
    d = fset.diameter
    alpha = d * d  # the DUB weight scale |X|^2

    x = fset.center.copy()
    v_prev, v = 0.0, 0.0
    rev = np.zeros(1)
    cum_sq = 0.0
    for idx, t in enumerate(range(1, 81)):
        assert np.allclose(tr.records[idx].x, x)
        f, g, off = _rows(inst, t, 0)
        g_val = float(g @ x) + off
        v_prev, v = v, v + max(g_val, 0.0)
        z = f.copy()
        if g_val > 0:
            z += pen.prime(v_prev) * g
        rev += z
        zn = float(np.linalg.norm(z))
        a_t = d * zn              # hint is zero: err = ||z||
        b_t = huber(zn, zn)       # 0.5 ||z||^2
        cum_sq += a_t * a_t + 2.0 * alpha * b_t
        # the lagged window-max term spans m past errors: empty at m = 0
        mu = math.sqrt(cum_sq) / alpha
        assert tr.records[idx].eta_or_mu == pytest.approx(mu, rel=1e-12, abs=1e-15)
        x = ftrl_argmin(fset, rev, mu) if mu > 0 else minimize_linear(fset, rev)


def test_perfect_hints_reduce_to_follow_the_leader():
    """With exact hints the weight stays 0 and every decision minimizes
    the full linear leader sum through the next round's forward
    gradient."""
    inst = SeparableLinearInstance(m=1, horizon=50, seed=11, g_active_fraction=0.0)
    tr = run_optimistic(inst, Variant.COCO_M2, PerfectPredictor())
    pen = Penalty(PenaltyKind.EXPONENTIAL, float(tr.col("lam")[-1]))
    X = inst.by_round(tr.col("x"))
    for t in range(tr.first_round, 50):
        lead = np.zeros(1)
        for s in range(1, t + 2):
            lead += _forward_gradient(inst, tr, X, pen, s)
        ftl = minimize_linear(inst.fset, lead)
        assert np.allclose(X[t + 1], ftl)


def test_hint_error_reconstruction_matches_recorded():
    inst = SeparableLinearInstance(m=2, horizon=60, seed=9)
    tr = run_optimistic(inst, Variant.COCO_M2, NoisyPredictor(0.3, seed=2))
    errs = ForwardFunctions(tr).hint_errors()
    recorded = tr.col("eps_z")
    # recorded errors cover hints up to horizon - m; reconstruction covers all
    n_eval = inst.horizon - inst.m - tr.first_round + 1
    assert float(np.sum(recorded)) <= float(np.sum(errs)) + 1e-9
    assert float(np.sum(recorded)) == pytest.approx(float(np.sum(errs[:n_eval])), rel=1e-9)


def _injected(value: float, field: str, t0: int, k0: int):
    """A perfect predictor whose forecast at index k0 of query round t0 has
    `value` in its loss row ("f"), constraint row ("g") or offset ("off")."""

    class Injected(PerfectPredictor):
        kind = "injected"

        def _row(self, rounds):
            m = self._instance.m
            return (t0 - rounds.start) * (m + 1) * (m + 2) // 2 + k0 if t0 in rounds else None

        def predict_f(self, rounds):
            f = super().predict_f(rounds)
            if field == "f" and (row := self._row(rounds)) is not None:
                f[row, -1] = value
            return f

        def predict_g(self, rounds):
            g, off = super().predict_g(rounds)
            row = self._row(rounds)
            if field == "g" and row is not None:
                g[row, 0] = value
            if field == "off" and row is not None:
                off[row] = value
            return g, off

    return Injected()


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("field", ["f", "g", "off"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_a_non_finite_forecast_falls_back_to_zero_alone(d, field, value):
    """inf or NaN in one forecast of one round zeroes that pair's loss
    forecast, or its constraint coefficient and offset; every other
    forecast of every round is the perfect one."""
    inst = SeparableLinearInstance(m=2, horizon=40, dim=d, seed=10,
                                   g_round_density=0.6, g_mag=(0.05, 0.2))
    t0 = 20
    pairs = [(t0 + j, i) for i in range(3) for j in range(i + 1)]
    k0 = next(k for k, (r, i) in enumerate(pairs) if inst.g_present[r, i])
    perfect, broken = PerfectPredictor(), _injected(value, field, t0, k0)
    perfect.bind(inst)
    broken.bind(inst)

    def rows(fc):
        return [np.array(v, ndmin=1).tolist() for v in fc]

    for t in range(inst.first_round, inst.horizon + 2):
        for k, (want, got) in enumerate(zip(perfect.forecasts(t), broken.forecasts(t))):
            if (t, k) == (t0, k0):
                zero = np.zeros(d)
                want = (zero, *want[1:]) if field == "f" else (want[0], zero, 0.0)
            assert rows(got) == rows(want), (t, k)


def test_non_finite_predictions_fall_back_to_zero():
    class BrokenPredictor(ZeroPredictor):
        kind = "broken"

        def predict_f(self, rounds):
            return np.full_like(super().predict_f(rounds), np.nan)

        def predict_g(self, rounds):
            # a non-finite coefficient with an offset that alone would
            # make the hinge active
            g, off = super().predict_g(rounds)
            return np.full_like(g, np.inf), off + 1.0

    inst = SeparableLinearInstance(m=1, horizon=30, seed=10)
    tr = run_optimistic(inst, Variant.COCO_M2, BrokenPredictor())
    assert np.all(np.isfinite(tr.extras["hints"]))
    for rec in tr.records:
        assert np.isfinite(rec.eps_z) and abs(rec.x[0]) <= 2.0 + 1e-12

    class BrokenOffsetPredictor(ZeroPredictor):
        kind = "broken"

        def predict_g(self, rounds):
            g, off = super().predict_g(rounds)
            return g + 1.0, off + np.nan

    tr = run_optimistic(inst, Variant.COCO_M2, BrokenOffsetPredictor())
    assert np.all(np.isfinite(tr.extras["hints"]))
    assert np.all(np.isfinite(tr.col("x"))) and np.all(np.isfinite(tr.col("eps_g")))


def test_doubling_schedule_scripted_epochs(monkeypatch):
    """Hand-simulated bookkeeping of the package's `run_doubling`, driven
    through a stand-in learner that plays a scripted eps_g per round under
    the restart rule of `OdafLearner.play`, with C = G d = 1 and error
    estimate 1 (so mu1 = 1): psi = sqrt(E) per epoch, budgets 1, 2, 4.

    eps sequence [0, .5, .7, 0, 1.2, 2.5, 0, 9.0, 0] over rounds 1..9:
      round 4 check: sqrt(1.2) = 1.095 > 1  -> second epoch (budget 2)
      round 9 check: sqrt(12.7) = 3.564 > 2 -> third epoch (budget 4)
    """
    eps = [0.0, 0.5, 0.7, 0.0, 1.2, 2.5, 0.0, 9.0, 0.0]
    learners = []

    class ScriptedLearner:
        def __init__(self, instance, variant, predictor, lam):
            self.inst, self.variant = instance, variant
            self.records = np.zeros(len(eps), dtype=[(name, float) for name in (
                "lam", "ccv_cum", "v_dual")])
            self.hints = None
            self.fixed_point_fallbacks = 0
            self.lam, self.starts, self.calls = lam, [instance.first_round], []
            learners.append(self)

        def restart(self, t, lam):
            self.lam = lam
            self.starts.append(t)

        def play(self, t, stop, coeff, budget):
            self.calls.append((t, coeff, budget))
            error = 0.0  # the restart rule of `OdafLearner.play`
            for t in range(t, stop):
                if coeff * math.sqrt(error) > budget:
                    return t
                self.records["lam"][t - 1] = self.lam
                error += eps[t - 1]
            return stop

    monkeypatch.setattr(optimistic, "OdafLearner", ScriptedLearner)
    monkeypatch.setattr(optimistic, "_tuning", lambda instance, variant: (1.0, 1.0))
    # the scripted table has no decisions, so no column derives from them
    inst = types.SimpleNamespace(first_round=1, rounds=range(1, 10),
                                 fill_values=lambda table, g_window: None)
    tr = optimistic.run_doubling(inst, Variant.COCO_M2, None, error_estimate=1.0)
    assert learners[0].starts == [1, 4, 9] == tr.extras["epoch_starts"]
    # one call per epoch, each with C and the epoch's budget
    assert learners[0].calls == [(1, 1.0, 1.0), (4, 1.0, 2.0), (9, 1.0, 4.0)]
    assert tr.extras["epochs"] == 3 and tr.extras["mu1"] == 1.0
    # each round's lam column reads back its epoch's budget
    budgets = [1.0] * 3 + [2.0] * 5 + [4.0]
    assert tr.col("lam").tolist() == [lambda_optimistic(b, 1.0) for b in budgets]
    assert len(learners) == 1


def test_doubling_arithmetic_reads_back_from_the_trace():
    """On the doubling_noisy environment (seeds 0-4, about 52 epochs each)
    the trace shows the doubling trick's arithmetic, with C the delayed-FTRL
    regret coefficient and E an epoch's running sum of eps_g: epoch k plays
    lambda_optimistic(2^(k-1) mu1, G d) in every row, C sqrt(E) stays
    within the budget before each round of an epoch and exceeds it at each
    restart, and the epoch count K obeys K <= 2 + log2(C sqrt(E_total) / mu1),
    since epoch K - 1 ended with 2^(K-2) mu1 < C sqrt(E) <= C sqrt(E_total)."""
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "doubling_noisy.json")
    for seed in range(5):
        tr = run_single(cfg, seed)
        inst = tr.instance
        coeff = regret_coefficient(inst.fset, inst.m)
        offset = inst.constants().g_bound * (inst.m + 1)
        mu1, starts = tr.extras["mu1"], tr.extras["epoch_starts"]
        assert mu1 == doubling_mu1(coeff, cfg.error_estimate)
        lam, eps = tr.col("lam"), tr.col("eps_g").tolist()
        ends = starts[1:] + [tr.horizon + 1]
        for k, (start, end) in enumerate(zip(starts, ends), start=1):
            budget = 2.0 ** (k - 1) * mu1
            rows = slice(start - tr.first_round, end - tr.first_round)
            assert np.all(lam[rows] == lambda_optimistic(budget, offset)), (seed, k)
            sums = list(itertools.accumulate(eps[rows], initial=0.0))
            assert all(coeff * math.sqrt(e) <= budget for e in sums[:-1]), (seed, k)
            if end <= tr.horizon:
                assert coeff * math.sqrt(sums[-1]) > budget, (seed, k)
        n = tr.extras["epochs"]
        assert n == len(starts) > 1
        assert n <= doubling_epoch_bound(tr), seed


@pytest.mark.parametrize("variant, constraint_memory, delay", [
    (Variant.COCO_M2, True, 3), (Variant.COCO_M, False, 1)])
def test_theorem_lambda_is_the_doubling_formula(variant, constraint_memory, delay):
    """The theorem tuning with error estimate E is the doubling schedule's
    lambda at budget C sqrt(E) and offset G d, bit for bit (m = 2, so the
    dual delay d is m + 1 = 3 with constraint memory and 1 without)."""
    inst = SeparableLinearInstance(m=2, horizon=40, seed=3, constraint_memory=constraint_memory)
    error = 0.7
    tr = run_optimistic(inst, variant, PerfectPredictor(), error_estimate=error)
    coeff = regret_coefficient(inst.fset, inst.m)
    sched = DoublingSchedule(coeff, inst.constants().g_bound * delay, coeff * math.sqrt(error))
    assert np.all(tr.col("lam") == sched.lam)


def test_doubling_zero_errors_never_restart():
    inst = SeparableLinearInstance(m=2, horizon=80, seed=0)
    tr = run_doubling(inst, Variant.COCO_M2, PerfectPredictor())
    assert tr.extras["epochs"] == 1
    assert tr.extras["epoch_starts"] == [3]


def test_doubling_epoch_count_obeys_budget_arithmetic():
    for seed in range(3):
        inst = SeparableLinearInstance(m=2, horizon=150, seed=seed,
                                       g_round_density=0.4, g_mag=(0.05, 0.2))
        tr = run_doubling(inst, Variant.COCO_M2, NoisyPredictor(0.4, seed=seed))
        n = tr.extras["epochs"]
        if n > 1:
            assert n <= doubling_epoch_bound(tr), seed
        tr.validate()


# sha256 prefixes of records.tobytes() in `pinned_layout`, hints.tobytes()
# (odaf only) and the error sums, recorded from the learner before its
# forecasts were memoized per round, with f_mem, f_splat and g_splat since
# summed in the family's `fill_values` order; any flipped activity flag or
# reordered sum changes them
PINNED_TRACES = {
    ("odaf", "perfect", 0, 1): "6b5fdbc64019f20a",
    ("odaf", "perfect", 0, 2): "5096d01303f54e18",
    ("odaf", "perfect", 2, 1): "318773802fc9fd78",
    ("odaf", "perfect", 2, 2): "d26132c89cb38b42",
    ("odaf", "zero", 0, 1): "3ee9c0747c63a173",
    ("odaf", "zero", 0, 2): "908c8e7829a77cc7",
    ("odaf", "zero", 2, 1): "1a71038ba661bd23",
    ("odaf", "zero", 2, 2): "5907a5254da8e811",
    ("odaf", "noisy", 0, 1): "7f28a0a97faaeaa6",
    ("odaf", "noisy", 0, 2): "2b2474a9c547d151",
    ("odaf", "noisy", 2, 1): "3e13444f3c49686e",
    ("odaf", "noisy", 2, 2): "624a939c4cf6212d",
    ("doubling", "perfect", 0, 1): "bfa707642007e1a1",
    ("doubling", "perfect", 0, 2): "bbc3cb2ee9187b8b",
    ("doubling", "perfect", 2, 1): "a0f7f63072a66ac2",
    ("doubling", "perfect", 2, 2): "42b2ecf4a1f8202e",
    ("doubling", "zero", 0, 1): "84cb416377eb6f4c",
    ("doubling", "zero", 0, 2): "617658264a13bb3a",
    ("doubling", "zero", 2, 1): "796f5a675ea98f2f",
    ("doubling", "zero", 2, 2): "c04584daba397694",
    ("doubling", "noisy", 0, 1): "707b15d7ed5074d7",
    ("doubling", "noisy", 0, 2): "f9d2ad8e3dfffa78",
    ("doubling", "noisy", 2, 1): "fa5e66b21c31c4a5",
    ("doubling", "noisy", 2, 2): "5494ce19752de0bf",
}


@pytest.mark.parametrize("case", sorted(PINNED_TRACES), ids=lambda c: "-".join(map(str, c)))
def test_trace_bytes_are_pinned(case):
    runner, kind, m, d = case
    inst = SeparableLinearInstance(m=m, horizon=150, dim=d, seed=10 * m + d,
                                   g_round_density=0.4, g_mag=(0.05, 0.2))
    predictor = {"perfect": PerfectPredictor(), "zero": ZeroPredictor(),
                 "noisy": NoisyPredictor(0.3, seed=m + d)}[kind]
    run = run_optimistic if runner == "odaf" else run_doubling
    tr = run(inst, Variant.COCO_M2, predictor)
    h = hashlib.sha256(pinned_layout(tr).tobytes())
    if runner == "odaf":
        h.update(tr.extras["hints"].tobytes())
    h.update(repr(sorted(error_sums(tr).items())).encode())
    assert h.hexdigest()[:16] == PINNED_TRACES[case]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(runner=st.sampled_from([run_optimistic, run_doubling]),
       kind=st.sampled_from(["perfect", "zero", "noisy"]), m=st.integers(0, 4),
       d=st.integers(1, 3), variant=st.sampled_from(Variant), rounds=st.integers(1, 40),
       seed=st.integers(0, 2**16))
def test_value_columns_are_the_term_by_term_values_at_the_decisions(runner, kind, m, d, variant,
                                                                    rounds, seed):
    """ODAF's f_mem, f_splat and g_splat are byte for byte the values of
    the term-by-term evaluator that penalty OGD's columns match too,
    `reference_ogd.separable_round_evaluator`, at ODAF's own decisions: both
    learners sum the window and the lift in the family's one order."""
    inst = SeparableLinearInstance(m=m, horizon=m + rounds, dim=d, seed=seed,
                                   constraint_memory=variant is Variant.COCO_M2,
                                   g_round_density=0.6, g_mag=(0.05, 0.2))
    predictor = {"perfect": PerfectPredictor(), "zero": ZeroPredictor(),
                 "noisy": NoisyPredictor(0.4, seed=3)}[kind]
    tr = runner(inst, variant, predictor)
    evaluate = separable_round_evaluator(inst, inst.rounds, False)
    x = inst.by_round(tr.col("x")).tolist()  # the center before the first round
    want = []
    for k, t in enumerate(inst.rounds):
        window = [c for r in range(t - m, t + 1) for c in x[r]]
        f_mem, f_splat, _, _, g_splat, _ = evaluate(k, window, x[t])
        want.append((f_mem, f_splat, g_splat))
    got = np.column_stack([tr.col(name) for name in ("f_mem", "f_splat", "g_splat")])
    assert got.tobytes() == np.array(want).tobytes()


def test_a_doubling_run_draws_each_forecast_once(monkeypatch):
    """A restarting noisy run_doubling draws one forecast per query round
    and slice pair, keyed [seed, 7, t, t + j, i] for first_round <= t <=
    horizon + 1 and 0 <= j <= i <= m, each once: none past the last query
    round, none again after a restart or across a block boundary (341
    rounds at m = 2).  Each key's row is hashed into the block kernel
    once; numpy's own PCG64 is built only for rows of those keys (the
    ones its ziggurat rejects a draw of), each at most once."""
    inst = SeparableLinearInstance(m=2, horizon=400, seed=3,
                                   g_round_density=0.6, g_mag=(0.05, 0.2))
    pcg.normal_rows(np.zeros((1, 4), np.uint64), 1)  # the tables' probes, built before counting
    hashed, built = collections.Counter(), collections.Counter()
    real_hash, real_pcg64 = pcg.seed_sequence_words, np.random.PCG64

    def hashing(entropy):
        hashed.update(map(tuple, entropy.tolist()))
        return real_hash(entropy)

    def building(seed_seq):
        built[tuple(seed_seq.generate_state(4, np.uint64).tolist())] += 1
        return real_pcg64(seed_seq)

    monkeypatch.setattr(pcg, "seed_sequence_words", hashing)
    monkeypatch.setattr(np.random, "PCG64", building)
    tr = run_doubling(inst, Variant.COCO_M2, NoisyPredictor(0.3, seed=1))
    assert tr.extras["epochs"] > 1
    keys = [(1, 7, t, t + j, i) for t in range(inst.first_round, inst.horizon + 2)
            for i in range(inst.m + 1) for j in range(i + 1)]
    assert hashed == collections.Counter(keys)
    words = {tuple(np.random.SeedSequence(list(key)).generate_state(4, np.uint64).tolist())
             for key in keys}
    assert built and set(built) <= words
    assert set(built.values()) == {1}


def test_doubling_restarts_one_learner_and_counts_every_epochs_fallbacks(monkeypatch):
    """run_doubling restarts one learner in place and reports the hint
    fixed-point fallbacks of all its epochs; epochs and fallbacks of
    seeds 0-4 of the shipped config are pinned."""
    learners = []
    init = optimistic.OdafLearner.__init__

    def registering_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        learners.append(self)

    monkeypatch.setattr(optimistic.OdafLearner, "__init__", registering_init)
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "doubling_noisy.json")
    got = []
    for seed in range(5):
        tr = run_single(cfg, seed)
        assert tr.extras["fixed_point_fallbacks"] == learners[-1].fixed_point_fallbacks
        got.append((tr.extras["epochs"], tr.extras["fixed_point_fallbacks"]))
    assert len(learners) == 5
    assert got == [(52, 8), (52, 3), (52, 0), (52, 7), (52, 6)]


def _shipped(name: str) -> dict:
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    return json.loads(path.read_text())


# doubling_noisy with memory-less constraints, played by the COCO-M variant
COCO_M_NOISY = {**_shipped("doubling_noisy"), "name": "coco_m_noisy", "variant": "coco_m"}
COCO_M_NOISY["environment"] = {**COCO_M_NOISY["environment"], "constraint_memory": False}


@pytest.mark.parametrize("obj", [_shipped("optimistic_perfect"), _shipped("doubling_noisy"),
                                 COCO_M_NOISY], ids=lambda obj: obj["name"])
def test_penalty_weights_read_the_audited_violation(obj):
    """Every round's `phi_prime` is Phi'(V_{t-d}) at that round's lambda,
    bit for bit, with V read by `RunTrace.v_at` as the audit reads it: the
    learner's weights and the audit share one record of the violation."""
    cfg = ExperimentConfig.from_dict(obj)
    for seed in (0, 1):
        tr = run_single(cfg, seed)
        d = tr.variant.dual_delay(tr.instance.m)
        assert tr.v_at(tr.horizon - d) > 0.0  # the weights move off lambda
        for t, lam, w in zip(tr.col("t").tolist(), tr.col("lam").tolist(),
                             tr.col("phi_prime").tolist()):
            assert w == phi_prime(PenaltyKind.EXPONENTIAL, lam, tr.v_at(t - d))


@pytest.mark.parametrize("runner", [run_optimistic, run_doubling])
def test_each_penalty_weight_is_computed_once_per_epoch(monkeypatch, runner):
    """The learner takes Phi'(V_q) once for each played round q of an
    epoch, however many hints weigh it (the weight was recomputed for each
    toggle and pending slice, about 39 calls per round on a noisy run at
    m = 10); prehistory and rounds not yet played weigh lambda itself.  A
    doubling restart weighs again the d rounds before it, d the dual
    delay, under the new lambda, through `phi_prime`; the round loop
    writes the formula inline, so only a restart calls it."""
    calls = []

    def counting(*args):
        calls.append(args)
        return phi_prime(*args)

    monkeypatch.setattr(optimistic, "phi_prime", counting)
    inst = SeparableLinearInstance(m=10, horizon=300, seed=0, g_round_density=0.4,
                                   g_mag=(0.05, 0.2))
    tr = runner(inst, Variant.COCO_M2, NoisyPredictor(0.3))
    epochs = tr.extras["epochs"]
    assert len(calls) <= (epochs - 1) * tr.variant.dual_delay(inst.m)
    assert epochs > 1 if runner is run_doubling else len(calls) == 0


def _enumerated_activity(fset, lin0, mu, toggles, x_last):
    """The 2^k pattern enumeration on a 1-D set, in numpy: (x, pattern,
    fell back), or the error it meets first."""
    def decide(pattern):
        lin = lin0
        for (_, _, _, term), on in zip(toggles, pattern):
            if on:
                lin = lin + term
        g = np.array([lin])
        if not np.isfinite(g).all():
            raise ValueError("linear term has non-finite entries")
        with np.errstate(all="ignore"):
            x = minimize_linear(fset, g) if mu == 0.0 else project(fset, fset.center - g / mu)
        return float(x[0])

    def flags_at(x):
        return tuple(g * x + off > 0.0 for _, g, off, _ in toggles)

    try:
        for pattern in itertools.product((False, True), repeat=len(toggles)):
            x = decide(pattern)
            if flags_at(x) == pattern:
                return x.hex(), pattern, 0
        flags = flags_at(x_last)
        return decide(flags).hex(), flags, 1
    except ValueError as exc:
        return str(exc)


@st.composite
def _toggles(draw):
    """Up to 8 1-D constraint forecasts (i, g, offset, weighted gradient), floats,
    whose thresholds -offset/g often tie exactly (a shared base pair scaled
    by a power of two, either sign) or within one ulp."""
    bases = draw(st.lists(st.tuples(st.floats(0.01, 2.0), st.floats(-3.0, 3.0)),
                          min_size=1, max_size=3))
    toggles = []
    for i in range(draw(st.integers(1, 8))):
        g, tau = draw(st.sampled_from(bases))
        scale = draw(st.sampled_from([0.25, 1.0, 4.0, -0.5, -1.0, -2.0]))
        g, off = g * scale, -tau * g * scale
        nudge = draw(st.sampled_from([0, 0, -1, 1]))
        if nudge:
            off = math.nextafter(off, nudge * math.inf)
        # now and then a weight that overflows some pattern's linear term
        mult = draw(st.sampled_from([0.0, 1e300, math.inf] + [None] * 27))
        if mult is None:
            mult = draw(st.floats(0.0, 40.0))
        toggles.append((i, g, off, mult * g))
    return toggles


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    toggles=_toggles(),
    lin0=st.floats(-30.0, 30.0),
    mu=st.sampled_from([0.0, 5e-324, 1e-300, 1e-12]) | st.floats(1e-3, 20.0),
    interval=st.sampled_from([(-2.0, 2.0), (-1.0, 3.0), (0.0, 1.5)]),
    where=st.floats(0.0, 1.0),
)
def test_1d_activity_search_matches_the_enumeration(toggles, lin0, mu, interval, where):
    """The 1-D search (fallback pattern, then the interval patterns of the
    sorted thresholds) returns the decision and pattern of the 2^k
    enumeration and falls back in the same cases, or meets the same error.
    Counted at `optimistic.ftrl_argmin`, it solves no pattern twice, and
    when the flags at the last decision hold at their own decision and the
    bound |center| + (|lin0| + sum |term|) / mu is finite, it solves only
    that pattern."""
    inst = SeparableLinearInstance(m=0, horizon=4, seed=0)
    learner = OdafLearner(inst, Variant.COCO_M2, ZeroPredictor(), 0.5)
    lo, hi = interval
    learner.fset = fset = Ball([(lo + hi) / 2], (hi - lo) / 2)  # exact for these literals
    x_last = lo + where * (hi - lo)
    want = _enumerated_activity(fset, lin0, mu, toggles, x_last)
    before, calls, real = learner.fixed_point_fallbacks, [], optimistic.ftrl_argmin

    def counting(*args):
        calls.append(repr(args[1]))  # the linear term
        return real(*args)

    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimistic, "ftrl_argmin", counting)
            x, pattern = learner._resolve_pending_activity(lin0, mu, toggles, x_last)
    except ValueError as exc:
        got = str(exc)
    else:
        assert isinstance(x, float)
        got = x.hex(), pattern, learner.fixed_point_fallbacks - before
    assert got == want
    # a linear term is solved at most as often as distinct patterns share it
    patterns = itertools.product((False, True), repeat=len(toggles))
    shared = collections.Counter(repr(optimistic._with_terms(lin0, toggles, p)) for p in patterns)
    assert not collections.Counter(calls) - shared
    last = tuple(g * x_last + off > 0.0 for _, g, off, _ in toggles)
    bound = abs(lin0)
    for *_, term in toggles:
        bound += abs(term)
    if math.isfinite(abs(fset.interval[2]) + bound / mu if mu else bound) and got[1:] == (last, 0):
        assert len(calls) == 1


@pytest.mark.parametrize("m, horizon, pinned", [(2, 2000, (2195, 8)), (10, 1000, (3900, 1))])
def test_noisy_doubling_argmin_calls_and_fallbacks_are_pinned(monkeypatch, m, horizon, pinned):
    """Noisy doubling on seed 0 makes the pinned number of FTRL argmin
    calls (counted at `optimistic.ftrl_argmin`) and fixed-point fallbacks:
    a faster activity search must solve the same patterns.  At m = 10 (up
    to 11 toggles a round) that is 3.9 calls a round; the 2^k enumeration
    made 1054."""
    calls = []
    real = optimistic.ftrl_argmin

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(optimistic, "ftrl_argmin", counting)
    inst = SeparableLinearInstance(m=m, horizon=horizon, seed=0,
                                   g_round_density=0.4, g_mag=(0.05, 0.2))
    tr = run_doubling(inst, Variant.COCO_M2, NoisyPredictor(0.3, seed=0))
    assert (len(calls), tr.extras["fixed_point_fallbacks"]) == pinned


@pytest.mark.parametrize("runner", [run_optimistic, run_doubling])
@pytest.mark.parametrize("noisy", [False, True], ids=["zero", "noisy"])
def test_traced_names_see_every_decision(monkeypatch, runner, noisy):
    """The names the benchmark's tracer wraps still see the learner's work:
    `optimistic.ftrl_argmin` is called through the module at least once per
    committed decision (x at the first round, one per round, one more per
    restart), a run builds one `OdafLearner`, and that learner's
    `fixed_point_fallbacks` is the trace's when the run returns.  A loop
    that called the 1-D argmin directly would read as no FTRL calls.  Zero
    forecasts never toggle, so there each decision is exactly one call."""
    calls, learners = [], []
    real_argmin, real_init = optimistic.ftrl_argmin, optimistic.OdafLearner.__init__

    def counting(*args):
        calls.append(1)
        return real_argmin(*args)

    def registering(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        learners.append(self)

    monkeypatch.setattr(optimistic, "ftrl_argmin", counting)
    monkeypatch.setattr(optimistic.OdafLearner, "__init__", registering)
    inst = SeparableLinearInstance(m=2, horizon=300, seed=0, g_round_density=0.6,
                                   g_mag=(0.05, 0.3))
    tr = runner(inst, Variant.COCO_M2, NoisyPredictor(0.5, seed=0) if noisy else ZeroPredictor())
    epochs, fallbacks = tr.extras["epochs"], tr.extras["fixed_point_fallbacks"]
    assert epochs > 1 if runner is run_doubling else epochs == 1
    decisions = len(tr.records) + epochs
    assert len(calls) >= decisions if noisy else len(calls) == decisions
    assert len(learners) == 1
    assert learners[0].fixed_point_fallbacks == fallbacks and (fallbacks > 0) == noisy
