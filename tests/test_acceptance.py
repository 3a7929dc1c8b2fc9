"""Acceptance suite: one test per criterion, each printing a pass line
with the measured numbers once its assertions hold.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest

from cocomem import (
    AppendixAInstance,
    NoisyPredictor,
    PenaltyKind,
    PerfectPredictor,
    SeparableLinearInstance,
    Variant,
    ZeroPredictor,
    best_in_hindsight,
    invariant_suite,
    regret_and_ccv,
    run_doubling,
    run_optimistic,
    run_penalty_ogd,
    theorem_bound_report,
)
from cocomem.core import Ball
from cocomem.geometry import ftrl_argmin, project
from cocomem.harness import ExperimentConfig, run_experiment
from cocomem.metrics import lift_loss_at
from cocomem.penalty import lambda_exponential_short_memory, short_memory_condition
from helpers import doubling_epoch_bound, error_sums, prefix_static_regret, sqrt_t
from reference_odaf import DoublingSchedule, huber

SEEDS = list(range(10))


# ---------------------------------------------------------------------------
# shared expensive run batteries


@pytest.fixture(scope="module")
def reference_runs():
    """The reference experiment: m=3, T=4000, R=15, sigma=10, delta=1,
    gamma=3, quadratic penalty on the 1/sqrt(t) schedule, double-memory
    variant, 10 seeds per adversary mode."""
    t0 = time.perf_counter()
    out = {}
    for mode in ("stochastic", "adversarial"):
        traces = []
        for seed in SEEDS:
            inst = AppendixAInstance(m=3, horizon=4000, radius=15.0, sigma=10.0,
                                     delta=1.0, gamma=3.0, mode=mode, seed=seed)
            tr = run_penalty_ogd(inst, Variant.COCO_M2, PenaltyKind.QUADRATIC, sqrt_t(inst))
            traces.append((tr, regret_and_ccv(tr)))
        out[mode] = traces
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def optimistic_runs():
    """Separable instance, m=2, T=2000, 10 seeds, perfect vs zero
    predictors under the same theorem-tuned penalty (error estimate 0).
    Constraint slices keep their activation boundary outside the set so
    clairvoyant activity prediction is well-posed at every round."""
    runs = {"perfect": [], "zero": []}
    for seed in SEEDS:
        inst = SeparableLinearInstance(m=2, horizon=2000, seed=seed,
                                       g_active_fraction=0.0)
        runs["perfect"].append(run_optimistic(inst, Variant.COCO_M2, PerfectPredictor()))
        runs["zero"].append(run_optimistic(inst, Variant.COCO_M2, ZeroPredictor()))
    return runs


def _at(trace, series_arr, t):
    return float(series_arr[t - trace.first_round])


# ---------------------------------------------------------------------------
# criterion 1: reference-experiment reproduction


def test_c1_reference_experiment_reproduction(reference_runs):
    for mode in ("stochastic", "adversarial"):
        r400 = np.mean([_at(tr, s.regret_perround_cum, 400) / 400
                        for tr, s in reference_runs[mode]])
        r4000 = np.mean([_at(tr, s.regret_perround_cum, 4000) / 4000
                         for tr, s in reference_runs[mode]])
        v400 = np.mean([_at(tr, s.ccv_cum, 400) / 400 for tr, s in reference_runs[mode]])
        v4000 = np.mean([_at(tr, s.ccv_cum, 4000) / 4000 for tr, s in reference_runs[mode]])
        assert r4000 < r400, f"{mode}: average regret did not decrease"
        assert v4000 <= 0.6 * v400, f"{mode}: average violation decayed too slowly"
        print(f"criterion 1 [{mode}]: R/t {r400:.3f}->{r4000:.3f}, "
              f"V/t {v400:.4f}->{v4000:.4f} (ratio {v4000 / v400:.3f} <= 0.6)")
    assert reference_runs["elapsed"] < 10.0, "20 runs exceeded the 10 s budget"
    print(f"criterion 1 PASS (runtime {reference_runs['elapsed']:.2f}s < 10s)")


# ---------------------------------------------------------------------------
# criterion 2: explicit theorem-constant inequalities, zero tolerance


def test_c2_theorem_constant_inequalities():
    checked = 0
    for horizon in (500, 2000, 8000):
        for m in (1, 3):
            for variant in (Variant.COCO_M2, Variant.COCO_M):
                for seed in (0, 1, 2):
                    inst = AppendixAInstance(m=m, horizon=horizon, seed=seed)
                    tr = run_penalty_ogd(inst, variant, PenaltyKind.QUADRATIC)
                    rep = theorem_bound_report(tr)
                    assert rep.measured["regret"] <= rep.theoretical["regret"], (
                        f"T={horizon} m={m} {variant} seed={seed}: regret bound broken")
                    assert rep.measured["ccv"] <= rep.theoretical["ccv"], (
                        f"T={horizon} m={m} {variant} seed={seed}: ccv bound broken")
                    checked += 1
    for horizon in (500, 2000, 8000):
        m = 1
        assert short_memory_condition(horizon, m)
        assert not short_memory_condition(horizon, 3)
        for seed in (0, 1, 2):
            inst = AppendixAInstance(m=m, horizon=horizon, seed=seed)
            k = inst.constants()
            lam = lambda_exponential_short_memory(horizon, m, inst.fset.diameter, k.l_f, k.l_g)
            tr = run_penalty_ogd(inst, Variant.COCO_M, PenaltyKind.EXPONENTIAL, lam)
            rep = theorem_bound_report(tr)
            assert rep.preconditions == {"short_memory": True, "l_f_at_least_one": True,
                                         "lambda_theorem_tuned": True}
            assert rep.measured["regret"] <= rep.theoretical["regret"]
            assert rep.measured["ccv"] <= rep.theoretical["ccv"]
            checked += 1
    print(f"criterion 2 PASS ({checked} measured-vs-bound comparisons, zero tolerance)")


# ---------------------------------------------------------------------------
# criterion 3: runtime lemma suite on every test run


def _battery():
    runs = []
    for m in (1, 3):
        for variant in (Variant.COCO_M2, Variant.COCO_M):
            for mode in ("fixed", "sqrt_t"):
                for seed in (0, 1):
                    inst = AppendixAInstance(m=m, horizon=300, seed=seed)
                    lam = sqrt_t(inst) if mode == "sqrt_t" else 1.0 / math.sqrt(300)
                    runs.append(run_penalty_ogd(inst, variant, PenaltyKind.QUADRATIC, lam))
    for seed in (0, 1):
        inst = AppendixAInstance(m=1, horizon=300, seed=seed)
        k = inst.constants()
        lam = lambda_exponential_short_memory(300, 1, inst.fset.diameter, k.l_f, k.l_g)
        runs.append(run_penalty_ogd(inst, Variant.COCO_M, PenaltyKind.EXPONENTIAL, lam))
    preds = [("perfect", lambda s: PerfectPredictor()),
             ("zero", lambda s: ZeroPredictor()),
             ("noisy", lambda s: NoisyPredictor(0.3, seed=s))]
    for m in (0, 1, 2):
        for _, mk in preds:
            for seed in (0, 1):
                inst = SeparableLinearInstance(m=m, horizon=250, seed=seed,
                                               g_round_density=0.3, g_mag=(0.02, 0.08))
                runs.append(run_optimistic(inst, Variant.COCO_M2, mk(seed)))
    for _, mk in preds[::2]:
        inst = SeparableLinearInstance(m=1, horizon=250, seed=0, constraint_memory=False,
                                       g_round_density=0.3, g_mag=(0.02, 0.08))
        runs.append(run_optimistic(inst, Variant.COCO_M, mk(0)))
    return runs


def test_c3_lemma_suite_on_every_run():
    failures = []
    n_checks, n_runs = 0, 0
    for trace in _battery():
        n_runs += 1
        for res in invariant_suite(trace):
            n_checks += 1
            if not res.passed:
                failures.append(f"{trace.algorithm}/{trace.variant.value}: {res}")
    assert not failures, "\n".join(failures)
    print(f"criterion 3 PASS ({n_checks} lemma/identity checks across {n_runs} runs)")


# ---------------------------------------------------------------------------
# criterion 4: sublinearity ratios on the stochastic reference instance


def test_c4_sublinearity_ratios(reference_runs):
    regs = {1000: [], 4000: []}
    ccvs = {1000: [], 4000: []}
    for tr, s in reference_runs["stochastic"]:
        for t in (1000, 4000):
            regs[t].append(prefix_static_regret(tr, t) / t)
            ccvs[t].append(_at(tr, s.ccv_cum, t) / t)
    r_ratio = np.mean(regs[4000]) / np.mean(regs[1000])
    v_ratio = np.mean(ccvs[4000]) / np.mean(ccvs[1000])
    assert r_ratio <= 0.7, f"regret ratio {r_ratio:.3f} > 0.7"
    assert v_ratio <= 0.8, f"ccv ratio {v_ratio:.3f} > 0.8"
    print(f"criterion 4 PASS (regret ratio {r_ratio:.3f} <= 0.7, "
          f"ccv ratio {v_ratio:.3f} <= 0.8)")


# ---------------------------------------------------------------------------
# criterion 5: predictions help; perfect predictions cost nothing


def _slicewise_regret(trace, upto):
    bench = best_in_hindsight(trace.instance, "slicewise", upto=upto)
    n = upto - trace.first_round + 1
    played = float(np.sum(trace.col("f_mem")[:n]))
    return played - float(np.sum(lift_loss_at(trace.instance, bench.x_star, upto=upto)))


def test_c5_optimistic_behavior(optimistic_runs):
    for tr in optimistic_runs["perfect"]:
        assert error_sums(tr) == {"z": 0.0, "f": 0.0, "g": 0.0}, "perfect predictions left errors"
        assert np.all(tr.col("eps_z") == 0.0)
        assert np.all(tr.col("eta_or_mu") == 0.0), "regularization woke up"
        assert tr.extras["fixed_point_fallbacks"] == 0
    r_perfect = np.mean([_slicewise_regret(tr, 2000) for tr in optimistic_runs["perfect"]])
    r_zero = np.mean([_slicewise_regret(tr, 2000) for tr in optimistic_runs["zero"]])
    assert r_perfect <= 0.2 * r_zero, (
        f"perfect regret {r_perfect:.3f} not within 0.2x of zero-predictor {r_zero:.3f}")
    # doubling-horizon growth under perfect predictions is at most
    # logarithmic: increments per log 2 bounded by a constant fit, slack 3x
    d1 = np.mean([_slicewise_regret(tr, 1000) - _slicewise_regret(tr, 500)
                  for tr in optimistic_runs["perfect"]]) / math.log(2)
    d2 = np.mean([_slicewise_regret(tr, 2000) - _slicewise_regret(tr, 1000)
                  for tr in optimistic_runs["perfect"]]) / math.log(2)
    fit = max(abs(d1), 1.0)
    assert d2 <= 3.0 * fit, f"regret increment {d2:.3f} above 3x the fit {fit:.3f}"
    print(f"criterion 5 PASS (eps=0, mu=0; regret perfect {r_perfect:.2f} "
          f"<= 0.2 * zero {r_zero:.2f}; log-increments {d1:.2f}, {d2:.2f})")


# ---------------------------------------------------------------------------
# criterion 6: doubling-trick epoch counts


def test_c6_doubling_epochs():
    # scripted sequence through the reference bookkeeping, hand-derived
    # (psi = sqrt(E), budgets 1, 2, 4): sqrt(1.2) = 1.095 > 1 restarts
    # before step 4 and sqrt(12.7) = 3.564 > 2 restarts before step 9
    sched = DoublingSchedule(regret_coeff=1.0, offset=1.0, mu1=1.0)
    restarts = []
    for idx, eps in enumerate([0.0, 0.5, 0.7, 0.0, 1.2, 2.5, 0.0, 9.0, 0.0], start=1):
        if sched.should_restart():
            sched.restart(idx)
            restarts.append(idx)
        sched.observe(eps)
    assert restarts == [4, 9] and sched.epoch == 3 and sched.budget == 4.0
    # random runs: epoch count never beats the doubling arithmetic
    counts = []
    for seed in range(5):
        inst = SeparableLinearInstance(m=2, horizon=300, seed=seed,
                                       g_round_density=0.4, g_mag=(0.05, 0.2))
        tr = run_doubling(inst, Variant.COCO_M2, NoisyPredictor(0.4, seed=seed))
        n = tr.extras["epochs"]
        assert n == 1 or n <= doubling_epoch_bound(tr), seed
        counts.append(n)
    print(f"criterion 6 PASS (scripted epochs 3 at budgets 1,2,4; "
          f"random-run epoch counts {counts} within the doubling bound)")


# ---------------------------------------------------------------------------
# criterion 7: micro-property suites


def test_c7_projection_properties():
    rng = np.random.default_rng(0)

    sets = [Ball([0.0], 15.0), Ball([0.0, 0.0], 15.0), Ball([1.0], 2.0)]
    for fset in sets:
        d = fset.dim
        for _ in range(1000 // len(sets) + 1):
            p = rng.normal(scale=20.0, size=d)
            q = rng.normal(scale=20.0, size=d)
            pp, qq = project(fset, p), project(fset, q)
            assert np.linalg.norm(project(fset, pp) - pp) <= 1e-10
            assert np.linalg.norm(pp - qq) <= np.linalg.norm(p - q) + 1e-10
    print("criterion 7a PASS (projection idempotence and nonexpansiveness, 1000+ cases)")


def test_c7_ftrl_argmin_vs_grid():
    rng = np.random.default_rng(1)
    for _ in range(500):
        half = float(rng.uniform(0.5, 20.0))
        center = float(rng.normal(scale=3.0))
        fset = Ball([center], half)
        g = np.array([float(rng.normal(scale=5.0))])
        mu = float(rng.uniform(0.0, 4.0)) if rng.uniform() > 0.2 else 0.0
        x = ftrl_argmin(fset, g, mu)
        grid = np.linspace(center - half, center + half, 200001)
        obj = g[0] * grid + mu * 0.5 * (grid - center) ** 2
        best = grid[np.argmin(obj)]
        tol = 1e-5 * fset.diameter
        got = g[0] * x[0] + mu * 0.5 * (x[0] - fset.center[0]) ** 2
        assert got <= float(np.min(obj)) + 1e-12 + 1e-12 * abs(got)
        if mu > 0 or abs(g[0]) > 1e-12:
            assert abs(x[0] - best) <= tol + (grid[1] - grid[0])
    print("criterion 7b PASS (ftrl argmin vs 1e-5-grid argmin, 500 cases)")


def test_c7_huber_inequality():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        x, y = rng.normal(scale=4.0, size=2)
        assert huber(x, y) <= min(0.5 * x * x, abs(x) * abs(y)) + 1e-12
    print("criterion 7c PASS (huber(x,y) <= min(x^2/2, |x||y|), 1000 cases)")


def test_c7_surrogate_gradient_finite_differences():
    # the gradient the runner descends: |d/dx (f_splat + Phi' max(g_splat, 0))|
    # at each played x, with Phi' the round's own; larger lambdas make the
    # hinge term count in more rounds
    h = 1e-5
    checked = hinged = 0
    for lam in (0.05, 0.5, 5.0):
        inst = AppendixAInstance(m=2, horizon=50, seed=3)
        tr = run_penalty_ogd(inst, Variant.COCO_M, PenaltyKind.QUADRATIC, lam)
        for rec in tr.records:
            loss, cons = inst.loss(int(rec.t)), inst.constraint(int(rec.t))
            x, pp = float(rec.x[0]), float(rec.phi_prime)
            g = cons.value_splat([x])
            if abs(g) < 10 * h:
                continue  # keep clear of the hinge kink
            lag = lambda z: loss.value_splat([z]) + pp * max(cons.value_splat([z]), 0.0)
            fd = abs(lag(x + h) - lag(x - h)) / (2 * h)
            assert rec.grad_norm == pytest.approx(fd, rel=1e-6, abs=1e-6)
            checked += 1
            hinged += pp > 0.0 and g > 0.0
    assert hinged > 0
    print(f"criterion 7d PASS (runner gradient norm vs central differences, "
          f"{checked} rounds, {hinged} with the hinge active)")


def test_c7_full_run_determinism(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "algorithm": "penalty_ogd",
        "variant": "coco_m2",
        "environment": {"kind": "appendix_a", "m": 2, "horizon": 200},
        "penalty": "quadratic",
        "lam": "sqrt_t",
        "seeds": [0, 1],
        "name": "det",
    })
    run_experiment(cfg, tmp_path / "one")
    run_experiment(cfg, tmp_path / "two")
    for name in ("det_seed0.csv", "det_seed1.csv", "det_summary.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
    print("criterion 7e PASS (byte-identical reruns)")
