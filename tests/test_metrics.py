import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from cocomem import (
    AppendixAInstance,
    NoisyPredictor,
    PenaltyKind,
    PerfectPredictor,
    RunTrace,
    SeparableLinearInstance,
    Variant,
    best_in_hindsight,
    invariant_suite,
    metrics,
    regret_and_ccv,
    run_doubling,
    run_optimistic,
    run_penalty_ogd,
    theorem_bound_report,
)
from cocomem.cli import main as cli_main
from cocomem.core import Ball, round_table, strict_json
from cocomem.harness import load_config, run_single
from cocomem.metrics import (
    GRID_STEPS_PER_DIAMETER,
    ForwardFunctions,
    ccv_rhs_quadratic,
    check_forward_consistency,
    check_lemma_ogd_regret,
    check_memory_identity,
    check_mu_monotone,
    check_odaftrl_regret,
    grid_points,
    lift_loss_at,
    regret_rhs_exponential,
    regret_rhs_quadratic,
    surrogate_sum_memory,
    surrogate_sum_splat,
    _grid_best,
    _half_space_intervals,
)
from helpers import constant_window, prefix_static_regret, python_calls, sqrt_t

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _two_round_instance(c, d):
    inst = AppendixAInstance(m=0, horizon=1, radius=15.0, seed=0)
    inst.c[:, 0] = c
    inst.d_coef[:, 0] = d
    return inst


def test_best_in_hindsight_interval_example():
    # c = [1, 3], d = [1, 1], delta = 1, R = 15: feasible x <= 1,
    # unconstrained argmin mean(c) = 2, so x* = 1
    inst = _two_round_instance([1.0, 3.0], [1.0, 1.0])
    b = best_in_hindsight(inst)
    assert b.x_star[0] == pytest.approx(1.0)
    # 0.5*(1-1)^2 + 0.5*(1-3)^2 = 2
    assert b.total == pytest.approx(2.0)
    g = _grid_best(inst, "lift", 1e-4, None)
    assert abs(g.x_star[0] - b.x_star[0]) <= 1e-4
    assert g.total >= b.total - 1e-9


def test_best_in_hindsight_unconstrained_clamps_mean():
    inst = _two_round_instance([9.0, 5.0], [0.0, 0.0])
    b = best_in_hindsight(inst)
    assert b.x_star[0] == pytest.approx(7.0)
    inst2 = _two_round_instance([20.0, 40.0], [0.0, 0.0])
    assert best_in_hindsight(inst2).x_star[0] == pytest.approx(15.0)


def test_best_in_hindsight_single_round():
    inst = AppendixAInstance(m=1, horizon=1, radius=15.0, seed=0)
    inst.c[:, 0] = 4.0
    inst.d_coef[:, 0] = 0.1  # feasible up to 10, so x* = c
    b = best_in_hindsight(inst)
    assert b.x_star[0] == pytest.approx(4.0)
    assert b.total == pytest.approx(0.0)


def test_per_round_comparator_series():
    inst = _two_round_instance([1.0, 3.0], [1.0, 1.0])
    tr = _toy_trace(inst, [1.0, 1.0])
    s = regret_and_ccv(tr)
    mins = np.diff(np.cumsum(tr.col("f_mem")) - s.regret_perround_cum, prepend=0.0)
    # round 0: min at x = c = 1 (feasible): 0; round 1: clamp(3, hi=1): 2
    assert mins[0] == pytest.approx(0.0)
    assert mins[1] == pytest.approx(2.0)


@pytest.mark.parametrize("family", [AppendixAInstance, SeparableLinearInstance])
def test_regret_and_ccv_solves_the_half_spaces_once(monkeypatch, family):
    """At d = 1 the best fixed point and the per-round comparator read one
    solve of the lifted half-spaces of a trace (each solved its own)."""
    inst = family(m=1, horizon=60, seed=0)
    tr = run_penalty_ogd(inst, Variant.COCO_M2)
    calls, solve = [], inst.halfspaces

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(inst, "halfspaces", counting)
    regret_and_ccv(tr)
    assert calls == [(inst.rounds, "lift")]


def _toy_trace(inst, xs):
    """Build a trace by hand (spreadsheet-style replay of the learner's
    bookkeeping) for metric unit checks."""
    records = round_table(len(xs), 1)
    ccv = 0.0
    for row, (t, x) in enumerate(zip(inst.rounds, xs)):
        f, g = inst.loss(t), inst.constraint(t)
        w = constant_window(x, inst.m)
        g_mem = g.value(w)
        ccv += max(g_mem, 0.0)
        records[row] = (t, [x], f.value(w), f.value_splat([x]), g_mem, g.value_splat([x]),
                        max(g_mem, 0.0), ccv, ccv, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return RunTrace("penalty_ogd", Variant.COCO_M2, PenaltyKind.QUADRATIC, records, inst, {})


def test_benchmark_replay_has_zero_memoryless_regret():
    inst = _two_round_instance([1.0, 3.0], [1.0, 1.0])
    b = best_in_hindsight(inst)
    tr = _toy_trace(inst, [b.x_star[0]] * 2)
    s = regret_and_ccv(tr)
    memoryless = np.sum(tr.col("f_splat") - lift_loss_at(inst, b.x_star))
    assert memoryless == pytest.approx(0.0, abs=1e-12)
    assert s.regret_static_cum[-1] == pytest.approx(0.0, abs=1e-12)


def test_three_round_hand_tally():
    inst = AppendixAInstance(m=0, horizon=2, radius=15.0, seed=0)
    inst.c[:, 0] = [1.0, 3.0, -2.0]
    inst.d_coef[:, 0] = [1.0, 1.0, 0.0]
    tr = _toy_trace(inst, [0.0, 2.0, -1.0])
    b = best_in_hindsight(inst)
    # interval x <= 1; mean(c) = 2/3; x* = 2/3
    assert b.x_star[0] == pytest.approx(2.0 / 3.0)
    s = regret_and_ccv(tr)
    # losses: .5(0-1)^2=.5, .5(2-3)^2=.5, .5(-1+2)^2=.5 -> cumulative 1.5
    # benchmark: .5(2/3-1)^2 + .5(2/3-3)^2 + .5(2/3+2)^2 = 6.3888...
    bench_total = 0.5 * ((2 / 3 - 1) ** 2 + (2 / 3 - 3) ** 2 + (2 / 3 + 2) ** 2)
    assert s.regret_static_cum[-1] == pytest.approx(1.5 - bench_total)
    # violations: g = x - 1: max(-1,0)=0, max(1,0)=1, max(-1-1... d=0: -1 -> 0
    assert s.ccv_cum[-1] == pytest.approx(1.0)


def test_memory_identity_on_real_run():
    inst = AppendixAInstance(m=3, horizon=120, seed=6)
    tr = run_penalty_ogd(inst, Variant.COCO_M2)
    s = regret_and_ccv(tr)
    deviation = float(np.sum(tr.col("f_mem") - tr.col("f_splat")))
    x_star = best_in_hindsight(inst).x_star
    memoryless = np.sum(tr.col("f_splat")) - np.sum(lift_loss_at(inst, x_star))
    lhs = s.regret_static_cum[-1] - memoryless
    assert lhs == pytest.approx(deviation, rel=1e-9, abs=1e-9)


def test_memory_deviation_bound_catches_inflated_window_loss():
    """A window loss that drifts further from its lift than L_f times the
    window's distance to the splat allows must fail the check."""
    inst = AppendixAInstance(m=3, horizon=120, seed=6)
    tr = run_penalty_ogd(inst, Variant.COCO_M2)
    res = check_memory_identity(tr)
    assert res.passed and 0.0 < res.lhs < res.rhs
    tr.col("f_mem")[:] += 2.0 * res.rhs / len(tr.records)
    assert not check_memory_identity(tr).passed


def test_quadratic_rhs_m0_drops_memory_term():
    T, D, lf, lg = 400, 30.0, 2.0, 1.5
    want = math.sqrt(2 * T) * D * lf + 2 * math.sqrt(T) * D * D * lg * lg
    assert regret_rhs_quadratic(T, 0, D, lf, lg) == pytest.approx(want)
    assert regret_rhs_quadratic(T, 2, D, lf, lg) > want


def test_rhs_formulas_against_symbolic_evaluation():
    import sympy as sp

    T, m, D, lf, lg, F = 100, 2, 30, 1, 1, 1
    Ts, ms, Ds, lfs, lgs, Fs = [sp.Integer(v) for v in (T, m, D, lf, lg, F)]
    log_term = sp.log(Ts) + 2 * sp.log(lfs + sp.sqrt(Ts) * lgs)
    reg = (sp.sqrt(2 * Ts) * Ds * lfs + 2 * sp.sqrt(Ts) * Ds**2 * lgs**2
           + ms ** sp.Rational(3, 2) * lfs * Ds / sp.sqrt(2) * sp.sqrt(Ts) * sp.sqrt(log_term))
    assert regret_rhs_quadratic(T, m, D, lf, lg) == pytest.approx(float(reg), rel=1e-12)
    core = (sp.sqrt(2 * Ts * Ds**2 * lgs**2 + sp.sqrt(2) * Ts * Ds * lfs
                    + 2 * Fs * Ts ** sp.Rational(3, 2)) + sp.sqrt(2 * Ts) * Ds * lgs)
    mem = ms ** sp.Rational(3, 2) * lgs * Ds / sp.sqrt(2) * sp.sqrt(Ts) * sp.sqrt(log_term)
    assert ccv_rhs_quadratic(T, m, D, lf, lg, F, True) == pytest.approx(
        float(core + mem), rel=1e-12)
    assert ccv_rhs_quadratic(T, m, D, lf, lg, F, False) == pytest.approx(
        float(core), rel=1e-12)


def test_exponential_rhs_requires_unit_lipschitz():
    with pytest.raises(ValueError):
        regret_rhs_exponential(100, 1, 30.0, 0.5, 1.0, 1.0, 0.01)


def test_bound_report_on_short_run():
    inst = AppendixAInstance(m=1, horizon=200, seed=0)
    tr = run_penalty_ogd(inst, Variant.COCO_M2)
    rep = theorem_bound_report(tr)
    assert rep.measured["regret"] <= rep.theoretical["regret"]
    assert rep.measured["ccv"] <= rep.theoretical["ccv"]
    assert set(rep.slack) == {"regret", "ccv"}
    assert "regret" in strict_json(dataclasses.asdict(rep))


def test_bound_report_picks_the_theorem_of_the_algorithm():
    """Penalty OGD reports its own theorem, when every round played the
    theorem's lambda; ODAF at a fixed lambda (one epoch) the delayed-FTRL
    bound on forward regret exactly as the invariant check computes it;
    a doubling run of several epochs no bound, since its lambda changes
    per epoch."""
    inst = AppendixAInstance(m=1, horizon=200, seed=0)
    ogd = theorem_bound_report(run_penalty_ogd(inst, Variant.COCO_M2))
    assert set(ogd.theoretical) == {"regret", "ccv"}
    assert ogd.preconditions == {"lambda_theorem_tuned": True}
    for penalty, variant, lam in (
            (PenaltyKind.QUADRATIC, Variant.COCO_M2, sqrt_t(inst)),
            (PenaltyKind.EXPONENTIAL, Variant.COCO_M, 0.01)):
        rep = theorem_bound_report(run_penalty_ogd(inst, variant, penalty, lam))
        assert rep.preconditions["lambda_theorem_tuned"] is False
        assert rep.theoretical == {} and rep.slack == {}
    inst = SeparableLinearInstance(m=2, horizon=200, seed=0)
    tr = run_optimistic(inst, Variant.COCO_M2, PerfectPredictor())
    rep = theorem_bound_report(tr)
    check = check_odaftrl_regret(ForwardFunctions(tr), best_in_hindsight(inst, "slicewise"))
    assert check.passed
    assert rep.measured["forward_regret"] == check.lhs
    assert rep.theoretical == {"forward_regret": check.rhs}
    assert rep.preconditions == {"lambda_fixed_across_epochs": True}
    inst = SeparableLinearInstance(m=2, horizon=200, seed=0, g_round_density=0.4,
                                   g_mag=(0.05, 0.2))
    rep = theorem_bound_report(run_doubling(inst, Variant.COCO_M2, NoisyPredictor(0.3, seed=0)))
    assert rep.theoretical == {} and rep.slack == {}
    assert rep.preconditions == {"lambda_fixed_across_epochs": False}


def _mu_lowered(trace, row):
    """A copy of the trace with the FTRL weight of `row` set 1 below both
    of its neighbours'."""
    records = trace.records.copy()
    mu = records["eta_or_mu"]
    mu[row] = min(mu[row - 1], mu[row + 1]) - 1.0
    return dataclasses.replace(trace, records=records)


def test_forward_weights_read_each_rows_lambda():
    """On a doubling run of several epochs the forward functions weigh
    round r's constraint slices by Phi'(V_{r-d}) under round r's own
    lambda: bit for bit the multiplier the learner recorded in that row,
    where the last epoch's lambda alone would give another."""
    inst = SeparableLinearInstance(m=2, horizon=300, seed=0, g_round_density=0.4,
                                   g_mag=(0.05, 0.2))
    tr = run_doubling(inst, Variant.COCO_M2, NoisyPredictor(0.3, seed=0))
    rounds = np.flatnonzero(inst.g_present.any(axis=1))
    rows = rounds - tr.first_round
    lam = tr.col("lam")
    assert tr.extras["epochs"] > 1 and np.any(lam[rows] != lam[-1])
    fwd = ForwardFunctions(tr)
    assert fwd.round_mult[rounds].tobytes() == tr.col("phi_prime")[rows].tobytes()
    assert check_forward_consistency(fwd).passed
    # V_{r-d} is read off the `ccv_cum` column, not by one `v_at` call per round
    assert "RunTrace.v_at" not in python_calls(ForwardFunctions, tr)


def test_an_audit_rebuilds_and_solves_once(monkeypatch):
    """One `invariant_suite` call rebuilds an `odaf` trace's forward
    functions once and solves its benchmark once, and a penalty-OGD
    trace's benchmark once: the checks that compare against them share
    them."""
    odaf = run_optimistic(SeparableLinearInstance(m=2, horizon=200, seed=0),
                          Variant.COCO_M2, PerfectPredictor())
    ogd = run_penalty_ogd(AppendixAInstance(m=1, horizon=200, seed=0), Variant.COCO_M2)
    counts = {}
    solve = metrics.best_in_hindsight

    class CountingForward(ForwardFunctions):
        def __init__(self, trace):
            counts["builds"] += 1
            super().__init__(trace)

    def counting_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(metrics, "ForwardFunctions", CountingForward)
    monkeypatch.setattr(metrics, "best_in_hindsight", counting_solve)
    for trace, builds in ((odaf, 1), (ogd, 0)):
        counts.update(builds=0, solves=0)
        results = invariant_suite(trace)
        assert all(r.passed and math.isfinite(r.lhs) for r in results)
        assert counts == {"builds": builds, "solves": 1}


def test_doubling_weight_check_is_per_epoch():
    """The doubling learner's FTRL weight restarts at each epoch start,
    where the check skips the step; a drop inside an epoch fails it, and
    the same drop at an epoch start passes (and fails a fixed-lambda run,
    whose one epoch starts at the first round)."""
    inst = SeparableLinearInstance(m=2, horizon=300, seed=0)
    tr = run_doubling(inst, Variant.COCO_M2, NoisyPredictor(0.3, seed=0))
    assert invariant_suite(tr)[-1] == check_mu_monotone(tr)
    assert check_mu_monotone(tr).passed
    assert np.min(np.diff(tr.col("eta_or_mu"))) < -1.0  # the restarts
    start = tr.extras["epoch_starts"][-1] - tr.first_round
    assert start + 20 < len(tr.records)
    assert not check_mu_monotone(_mu_lowered(tr, start + 10)).passed
    assert check_mu_monotone(_mu_lowered(tr, start)).passed
    fixed = dataclasses.replace(tr, extras={"epoch_starts": [tr.first_round]})
    assert not check_mu_monotone(_mu_lowered(fixed, start)).passed


def test_a_one_epoch_doubling_run_is_audited_as_odaf(tmp_path, capsys):
    """On the optimistic_perfect environment at lam "doubling", seed 0
    makes one epoch, whose trace is that of `run_optimistic` at its lambda
    in every field but the doubling run's `mu1`; `verify` runs the four
    forward checks on it and `bounds` reports their forward-regret bound.
    Seed 1 makes two epochs: `verify` runs only the forward consistency
    of the four, which weighs each round by its own lambda, and `bounds`
    reports no bound."""
    cfg = load_config(CONFIG_DIR / "optimistic_perfect.json")
    cfg = dataclasses.replace(cfg, lam="doubling", seeds=[0, 1])
    tr = run_single(cfg, 0)
    assert tr.extras["epochs"] == 1 and run_single(cfg, 1).extras["epochs"] == 2
    fixed = run_optimistic(tr.instance, tr.variant, PerfectPredictor(), lam=tr.col("lam")[0])
    assert (tr.algorithm, tr.variant, tr.penalty_kind, tr.instance) == (
        fixed.algorithm, fixed.variant, fixed.penalty_kind, fixed.instance)
    assert tr.records.tobytes() == fixed.records.tobytes()
    extras = dict(tr.extras)
    assert extras.pop("mu1") > 0.0
    assert list(extras) == list(fixed.extras)
    assert extras.pop("hints").tobytes() == fixed.extras["hints"].tobytes()
    assert extras == {key: v for key, v in fixed.extras.items() if key != "hints"}
    assert extras["epochs"] == 1 and extras["epoch_starts"] == [tr.first_round]
    check = check_odaftrl_regret(ForwardFunctions(tr),
                                 best_in_hindsight(tr.instance, "slicewise"))

    path = tmp_path / "doubling.json"
    path.write_text(json.dumps({**dataclasses.asdict(cfg), "variant": cfg.variant.value,
                                "penalty": cfg.penalty.value}))
    assert cli_main(["verify", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = {seed: [line.split("]")[1].split(":")[0].strip() for line in lines
                    if line.startswith(f"seed {seed}:")] for seed in (0, 1)}
    assert names[0] == [r.name for r in invariant_suite(fixed)]
    assert names[1] == ["ccv_recurrence_replay", "memory_deviation_bound",
                        "forward_vertical_consistency", "ftrl_weight_monotone"]
    assert cli_main(["bounds", "--config", str(path)]) == 0
    reports = [json.loads(line.partition(": ")[2])
               for line in capsys.readouterr().out.splitlines()]
    assert reports[0]["preconditions"] == {"lambda_fixed_across_epochs": True}
    assert reports[0]["measured"]["forward_regret"] == check.lhs
    assert reports[0]["theoretical"] == {"forward_regret": check.rhs}
    assert reports[1]["preconditions"] == {"lambda_fixed_across_epochs": False}
    assert reports[1]["theoretical"] == {}


def test_checks_of_a_run_with_no_rounds_pass(tmp_path, capsys):
    """horizon == m leaves a run no round to play, so its trace records no
    lambda; the checks that read one still run and pass.  `verify` and
    `bounds` exit 0 with every learner, and `bounds` prints strict JSON
    that measures regret and CCV 0 over the zero rounds."""
    inst = SeparableLinearInstance(m=2, horizon=2, seed=0)
    tr = run_optimistic(inst, Variant.COCO_M2, PerfectPredictor())
    assert len(tr.records) == 0
    results = invariant_suite(tr)
    assert len(results) == 7 and all(r.passed for r in results)

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    env = {"kind": "separable_linear", "m": 2, "horizon": 2, "radius": 2.0}
    for algorithm, lam in (("odaf", "theorem"), ("odaf", "doubling"), ("penalty_ogd", "theorem")):
        cfg = {"algorithm": algorithm, "variant": "coco_m2", "environment": env, "lam": lam}
        if algorithm != "penalty_ogd":
            cfg["penalty"] = "exponential"
        path = tmp_path / f"{algorithm}_{lam}.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["verify", "--config", str(path)]) == 0, (algorithm, lam)
        assert cli_main(["bounds", "--config", str(path)]) == 0, (algorithm, lam)
        out = capsys.readouterr().out.strip().splitlines()
        assert "FAIL" not in "\n".join(out[:-1])
        prefix, _, doc = out[-1].partition(": ")
        report = json.loads(doc, parse_constant=reject)
        assert prefix == "seed 0"
        assert report["measured"]["regret"] == report["measured"]["ccv"] == 0.0


def test_played_surrogate_check_is_relative():
    """The played-surrogate half of `forward_vertical_consistency` allows
    1e-8 relative: seed 2 of a lambda = 10 run on the
    doubling_noisy environment sums both sides near 1.6e102, one ulp apart,
    and passes; one f_mem raised by 1e-6 of the forward sum fails it, and
    the verdict prints that half's sides."""
    cfg = load_config(CONFIG_DIR / "doubling_noisy.json")
    cfg = dataclasses.replace(cfg, lam=10.0)
    tr = run_single(cfg, 2)
    fwd = ForwardFunctions(tr)
    check = check_forward_consistency(fwd)
    assert check.passed and check.rhs == 1e-9
    played, forward = surrogate_sum_memory(tr), fwd.played_total
    assert abs(forward) > 1e100 and played != forward
    records = tr.records.copy()
    records["f_mem"][7] += 1e-6 * max(1.0, abs(forward))
    check = check_forward_consistency(ForwardFunctions(dataclasses.replace(tr, records=records)))
    assert not check.passed and check.lhs > check.rhs == forward
    assert "played surrogate exceeds forward sum" in str(check)


def test_grid_resolution_consistency():
    inst = AppendixAInstance(m=2, horizon=150, seed=3)
    k = inst.constants()
    b1 = _grid_best(inst, "lift", 2e-3, None)
    b2 = _grid_best(inst, "lift", 1e-3, None)
    assert abs(b1.total - b2.total) <= k.l_f * 2e-3 * (inst.horizon + 1)


def test_slicewise_benchmark_tighter_than_lift():
    inst = SeparableLinearInstance(m=2, horizon=200, seed=1)

    def feasible(kind):
        lo, hi = _half_space_intervals(inst, kind, inst.rounds)
        return np.max(lo, initial=inst.fset.lo[0]), np.min(hi, initial=inst.fset.hi[0])

    (lo_mp, hi_mp), (lo_l, hi_l) = feasible("slicewise"), feasible("lift")
    assert lo_l <= lo_mp <= hi_mp <= hi_l
    b = best_in_hindsight(inst, "slicewise")
    assert lo_mp - 1e-12 <= b.x_star[0] <= hi_mp + 1e-12
    g = _grid_best(inst, "slicewise", 1e-4, None)
    assert b.total <= g.total + 1e-9
    with pytest.raises(ValueError, match="unknown benchmark set"):
        best_in_hindsight(inst, "slice")


def test_prefix_static_regret_uses_prefix_benchmark():
    inst = AppendixAInstance(m=1, horizon=100, seed=2)
    tr = run_penalty_ogd(inst, Variant.COCO_M2)
    r_half = prefix_static_regret(tr, 50)
    n = 50 - tr.first_round + 1
    bench = best_in_hindsight(inst, upto=50)
    direct = float(np.sum(tr.col("f_mem")[:n])
                   - np.sum(lift_loss_at(inst, bench.x_star, upto=50)))
    assert r_half == pytest.approx(direct)


def test_grid_points_dimensions():
    g1 = grid_points(Ball([0.0], 1.0), 0.5)
    assert np.allclose(g1.ravel(), [-1, -0.5, 0, 0.5, 1])
    g2 = grid_points(Ball([0.0, 0.0], 1.0), 0.5)
    assert g2.shape[1] == 2
    assert np.all(np.linalg.norm(g2, axis=1) <= 1.0 + 1e-12)
    with pytest.raises(ValueError):
        grid_points(Ball([0.0] * 3, 1.0), 0.5)


# -- the checks' comparators ---------------------------------------------------
#
# The regret checks take their comparator from the benchmark solvers: on the
# benchmark set every lifted (or slice-wise) constraint is <= 0, so the
# hinge term of the surrogate, and of the forward functions, vanishes there.


def _ogd_run(family, dim):
    cls = AppendixAInstance if family == "appendix_a" else SeparableLinearInstance
    inst = cls(m=2, horizon=150, seed=0, dim=dim)
    return run_penalty_ogd(inst, Variant.COCO_M2, lam=sqrt_t(inst))


def _odaf_run(dim):
    inst = SeparableLinearInstance(m=2, horizon=100 if dim == 1 else 60, seed=0, dim=dim)
    return run_optimistic(inst, Variant.COCO_M2, PerfectPredictor())


COMPARATOR_RUNS = {
    "ogd_appendix_1d": lambda: _ogd_run("appendix_a", 1),
    "ogd_appendix_2d": lambda: _ogd_run("appendix_a", 2),
    "ogd_separable_1d": lambda: _ogd_run("separable_linear", 1),
    "ogd_separable_2d": lambda: _ogd_run("separable_linear", 2),
    "odaf_1d": lambda: _odaf_run(1),
    "odaf_2d": lambda: _odaf_run(2),
}


@pytest.fixture(scope="module", params=sorted(COMPARATOR_RUNS))
def comparator_run(request):
    return COMPARATOR_RUNS[request.param]()


def _independent_sums(trace, U):
    """(sum_t L_t(u) for penalty OGD or sum_t Z_t(u) for ODAF, benchmark-set
    membership) at every row u of U, hinge terms included."""
    inst = trace.instance
    if trace.algorithm == "penalty_ogd":
        A, b = inst.halfspaces(inst.rounds, "lift")
        g = U @ A.T + b
        sums = inst.lift_values(U, inst.rounds).sum(axis=1)
        sums += np.maximum(g, 0.0) @ trace.col("phi_prime")
    else:
        A, b = inst.halfspaces(inst.rounds, "slicewise")
        g = U @ A.T + b
        fwd = ForwardFunctions(trace)
        sums = U @ fwd.loss_coef + np.maximum(U @ fwd.coef.T + fwd.off, 0.0) @ fwd.mult
    return sums, np.all(g <= 1e-12, axis=1)


def _comparator(trace):
    """The total the regret check subtracts, read back from its lhs."""
    if trace.algorithm == "penalty_ogd":
        bench = best_in_hindsight(trace.instance)
        return surrogate_sum_splat(trace) - check_lemma_ogd_regret(trace, bench).lhs
    fwd, bench = ForwardFunctions(trace), best_in_hindsight(trace.instance, "slicewise")
    return fwd.played_total - check_odaftrl_regret(fwd, bench).lhs


def test_hinge_vanishes_at_the_benchmark_point(comparator_run):
    tr = comparator_run
    inst = tr.instance
    kind = "lift" if tr.algorithm == "penalty_ogd" else "slicewise"
    bench = best_in_hindsight(inst, kind)
    assert bench.x_star is not None
    A, b = inst.halfspaces(inst.rounds, kind)
    assert np.max(A @ bench.x_star + b) <= 1e-12
    assert _comparator(tr) == pytest.approx(bench.total, rel=1e-12, abs=1e-12)


def test_comparator_is_the_minimum_over_the_benchmark_set(comparator_run):
    """In 1-D no point of a fine independent grid beats the exact
    comparator.  In 2-D the comparator is itself a grid minimum, so the
    independent sums (hinge included) on the same grid must match it."""
    tr = comparator_run
    fset = tr.fset
    if fset.dim == 1:
        grid = np.linspace(fset.lo[0], fset.hi[0], 20001)[:, None]
    else:
        grid = grid_points(fset, fset.diameter / GRID_STEPS_PER_DIAMETER)
    best = math.inf
    for lo in range(0, len(grid), 2000):
        sums, feasible = _independent_sums(tr, grid[lo : lo + 2000])
        best = min(best, float(np.min(sums[feasible], initial=math.inf)))
    comp = _comparator(tr)
    assert math.isfinite(best)
    assert best >= comp - 1e-9 * max(1.0, abs(comp))
    if fset.dim == 2:
        assert best == pytest.approx(comp, rel=1e-9, abs=1e-9)
