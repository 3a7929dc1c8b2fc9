import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ogd
from cocomem import (
    AppendixAInstance,
    PenaltyKind,
    SeparableLinearInstance,
    Variant,
    run_penalty_ogd,
)
from cocomem.core import Ball, MemoryFunctionOracle
from cocomem.harness import load_config, run_single
from cocomem.metrics import theorem_bound_report
from cocomem.penalty import lambda_quadratic, lambda_theorem, saturated
from cocomem.penalty_ogd import PenaltyOgdLearner, adaptive_step, surrogate_gradient

from helpers import pinned_layout, python_calls, sqrt_t

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


class Quadratic1D(MemoryFunctionOracle):
    """0.5 (x - c)^2 on the newest slot only (memory-less test loss)."""

    def __init__(self, c, m=0):
        self.c = float(c)
        self.dim, self.memory = 1, m

    def value(self, window):
        return 0.5 * (float(window[-1, 0]) - self.c) ** 2

    def grad_splat(self, x):
        return np.array([float(np.asarray(x)[0]) - self.c])


class Affine1D(MemoryFunctionOracle):
    """a*x + b on the newest slot (memory-less test constraint)."""

    def __init__(self, a, b, m=0):
        self.a, self.b = float(a), float(b)
        self.dim, self.memory = 1, m

    def value(self, window):
        return self.a * float(window[-1, 0]) + self.b

    def grad_splat(self, x):
        return np.array([self.a])


def test_surrogate_gradient_active_constraint():
    # f-lift 0.5 x^2 and constraint x - 1 at x = 2 with Phi' = 2:
    # grad = 2 + 2 * 1 = 4
    g = surrogate_gradient(Quadratic1D(0.0), Affine1D(1.0, -1.0), np.array([2.0]), 2.0)
    assert g[0] == pytest.approx(4.0)


def test_surrogate_gradient_matches_finite_differences():
    # central differences of f(x) + Phi' * max(g(x), 0) away from the kink
    loss, cons, pp = Quadratic1D(0.0), Affine1D(1.0, -1.0), 2.0
    h = 1e-6

    def lag(x):
        return loss.value_splat([x]) + pp * max(cons.value_splat([x]), 0.0)

    for x in (2.0, 1.5, -0.5, 0.25):
        fd = (lag(x + h) - lag(x - h)) / (2 * h)
        got = surrogate_gradient(loss, cons, np.array([x]), pp)[0]
        assert got == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_surrogate_gradient_inactive_cases():
    x = np.array([0.5])
    # constraint value is negative: gradient is the plain loss gradient
    g = surrogate_gradient(Quadratic1D(0.0), Affine1D(1.0, -1.0), x, 2.0)
    assert g[0] == pytest.approx(0.5)
    # zero multiplier: same
    g = surrogate_gradient(Quadratic1D(0.0), Affine1D(1.0, 1.0), x, 0.0)
    assert g[0] == pytest.approx(0.5)


def test_adaptive_step_values():
    # sqrt(2)*30 / (2*sqrt(4)) = 30/(sqrt(2)*2) = 10.606601717798213
    assert adaptive_step(30.0, 4.0) == pytest.approx(10.606601717798213)
    assert adaptive_step(30.0, 0.0) == 0.0
    # constant gradient norm G0 gives a 1/sqrt(t) decay
    steps = [adaptive_step(30.0, 4.0 * t) for t in range(1, 50)]
    for t, s in enumerate(steps, start=1):
        assert s == pytest.approx(30.0 / (math.sqrt(2) * 2.0 * math.sqrt(t)))


def test_single_round_hand_trace():
    # d=1, X=[-15,15], x0=0, f-lift 0.5(x-2)^2, constraint x-1 (inactive
    # at 0), quadratic lam=0.5: V=0, Phi'=0, grad = -2, sum = 4,
    # eta = 30/(sqrt(2)*2) = 10.6066..., x1 = clamp(0 + 21.2132..) = 15
    fset = Ball([0.0], 15.0)
    learner = PenaltyOgdLearner(fset, 0, Variant.COCO_M, PenaltyKind.QUADRATIC, [0.5])
    rec = learner.play_round(1, Quadratic1D(2.0), Affine1D(1.0, -1.0))
    assert rec.v_dual == 0.0
    assert rec.phi_prime == 0.0
    assert rec.grad_norm == pytest.approx(2.0)
    assert rec.eta_or_mu == pytest.approx(10.606601717798213)
    assert learner.x[0] == pytest.approx(15.0)


def test_fixed_point_when_nothing_moves():
    # constant loss and satisfied constraint: zero gradients, x never moves
    fset = Ball([0.0], 15.0)
    learner = PenaltyOgdLearner(fset, 0, Variant.COCO_M, PenaltyKind.QUADRATIC, [0.5] * 9)
    for t in range(1, 10):
        rec = learner.play_round(t, Quadratic1D(0.0), Affine1D(1.0, -1.0))
        assert rec.eta_or_mu == 0.0
        assert learner.x[0] == 0.0
        assert rec.v_dual == 0.0


def test_dual_update_precedes_gradient():
    # start at x=0 with constraint x + 1 > 0 active: the same round's
    # violation must already scale the constraint gradient
    fset = Ball([0.0], 15.0)
    learner = PenaltyOgdLearner(fset, 0, Variant.COCO_M, PenaltyKind.QUADRATIC, [0.5])
    rec = learner.play_round(1, Quadratic1D(0.0), Affine1D(1.0, 1.0))
    assert rec.v_dual == pytest.approx(1.0)
    # grad = f' + 2*lam*V * g' = 0 + 2*0.5*1*1 = 1
    assert rec.grad_norm == pytest.approx(1.0)


def test_variants_differ_only_in_recorded_violation():
    inst = AppendixAInstance(m=3, horizon=80, seed=2)
    tr2 = run_penalty_ogd(inst, Variant.COCO_M2)
    tr1 = run_penalty_ogd(inst, Variant.COCO_M)
    # identical play: the dual update uses the lift in both variants
    assert np.array_equal(tr1.col("x"), tr2.col("x"))
    # the recorded CCV increment differs: window value vs lift value
    g2 = tr2.col("g_plus_recorded")
    g1 = tr1.col("g_plus_recorded")
    assert not np.array_equal(g1, g2)
    assert np.allclose(g1, np.maximum(tr1.col("g_splat"), 0.0))
    assert np.allclose(g2, np.maximum(tr2.col("g_mem"), 0.0))


def test_every_decision_feasible_and_steps_shrink():
    inst = AppendixAInstance(m=3, horizon=120, seed=4)
    tr = run_penalty_ogd(inst, Variant.COCO_M2, lam=sqrt_t(inst))
    for rec in tr.records:
        assert abs(rec.x[0]) <= 15.0 + 1e-12
    eta = tr.col("eta_or_mu")
    assert np.all(np.diff(eta[1:]) <= 1e-12)


def test_oracle_shape_mismatch_rejected():
    fset = Ball([0.0], 1.0)
    learner = PenaltyOgdLearner(fset, 1, Variant.COCO_M, PenaltyKind.QUADRATIC, [0.5])
    with pytest.raises(ValueError):
        learner.play_round(1, Quadratic1D(0.0, m=0), Affine1D(1.0, -1.0, m=1))


def test_learner_window_holds_the_last_decisions():
    # the (m+1, d) array the oracles read: after each round the last m+1
    # decisions, oldest first, with the set center standing in before the
    # first round; a round's f_mem is the loss at the window it starts with
    rng = np.random.default_rng(1)
    fset = Ball([0.5], 15.0)
    for m in (0, 1, 3):
        n = 4 * (m + 1)
        learner = PenaltyOgdLearner(fset, m, Variant.COCO_M2, PenaltyKind.QUADRATIC, [0.5] * n)
        played = [fset.center] * (m + 1)
        for t in range(1, n + 1):
            loss = Quadratic1D(rng.uniform(-10, 10), m)
            before = learner.window.copy()
            rec = learner.play_round(t, loss, Affine1D(1.0, -20.0, m))
            assert rec.f_mem == loss.value(before)
            assert rec.x[0] == before[-1, 0]
            played.append(learner.x)
            assert learner.window.shape == (m + 1, 1)
            assert np.array_equal(learner.window, np.stack(played[-(m + 1):]))
        assert len({float(x[0]) for x in played}) > m + 1  # the decisions moved


# ---------------------------------------------------------------------------
# The float loop of run_penalty_ogd against the oracle-protocol reference


def _reference_records(instance, variant, kind, lam):
    """PenaltyOgdLearner fed by instance.loss(t) / instance.constraint(t)."""
    first = instance.first_round
    lams = np.broadcast_to(lam, instance.horizon - first + 1).tolist()
    learner = PenaltyOgdLearner(instance.fset, instance.m, variant, kind, lams)
    for t in range(first, instance.horizon + 1):
        learner.play_round(t, instance.loss(t), instance.constraint(t))
    return learner.records


def _instance(family, m, dim, seed):
    if family == "appendix_a":
        mode = "adversarial" if seed % 2 else "stochastic"
        return AppendixAInstance(m=m, horizon=160, dim=dim, mode=mode, seed=seed)
    return SeparableLinearInstance(m=m, horizon=160, dim=dim, seed=seed,
                                   g_round_density=0.6, g_mag=(0.05, 0.3))


def _lam(kind, mode, instance):
    if mode == "sqrt_t":
        return sqrt_t(instance)
    if kind is PenaltyKind.QUADRATIC:
        return lambda_quadratic(instance.horizon)
    return 0.05


# every (variant, penalty, schedule) combination ExperimentConfig.validate
# accepts for penalty_ogd: the 1/sqrt(t) schedule goes with the quadratic
# penalty, the exponential penalty with memory-less constraints
_RUNS = [
    (Variant.COCO_M, PenaltyKind.QUADRATIC, "fixed"),
    (Variant.COCO_M, PenaltyKind.QUADRATIC, "sqrt_t"),
    (Variant.COCO_M2, PenaltyKind.QUADRATIC, "fixed"),
    (Variant.COCO_M2, PenaltyKind.QUADRATIC, "sqrt_t"),
    (Variant.COCO_M, PenaltyKind.EXPONENTIAL, "fixed"),
]


@pytest.mark.parametrize("family", ["appendix_a", "separable_linear"])
@pytest.mark.parametrize("m", [0, 1, 3, 7])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("variant,kind,mode", _RUNS)
def test_float_loop_matches_oracle_reference(family, m, dim, variant, kind, mode):
    inst = _instance(family, m, dim, seed=10 * m + dim)
    lam = _lam(kind, mode, inst)
    got = run_penalty_ogd(inst, variant, kind, lam).records
    want = _reference_records(inst, variant, kind, lam)
    assert got.dtype == want.dtype and len(got) == len(want)
    if dim == 1 and m <= 6:
        # every sum has fewer than 8 terms, which numpy adds one by one
        assert got.tobytes() == want.tobytes()
        return
    # rounding differs by a few ulps of the terms summed, so a value that
    # cancels to near zero gets an absolute allowance at its column's scale
    for name in want.dtype.names:
        scale = float(np.max(np.abs(want[name]), initial=0.0))
        np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=1e-12 * scale,
                                   err_msg=name)


def test_float_loop_matches_reference_when_the_exponent_cap_binds():
    # a large exponential lambda drives lam * V past the cap within a few rounds
    inst = AppendixAInstance(m=1, horizon=120, seed=5, mode="adversarial")
    got = run_penalty_ogd(inst, Variant.COCO_M, PenaltyKind.EXPONENTIAL, 25.0).records
    with np.errstate(over="ignore"):  # |grad|^2 overflows to inf in both loops
        want = _reference_records(inst, Variant.COCO_M, PenaltyKind.EXPONENTIAL, 25.0)
    assert saturated(PenaltyKind.EXPONENTIAL, want["lam"], want["v_dual"]).any()
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# The runner against the loop it replaced (tests/reference_ogd.py), which
# evaluated every round's window through a per-round closure and wrote
# one row tuple per round


@pytest.mark.parametrize("family", ["appendix_a", "separable_linear"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("variant,kind,mode", _RUNS)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(m=st.integers(0, 7), seed=st.integers(0, 10_000), extra=st.integers(0, 50))
def test_runner_matches_the_row_tuple_loop_byte_for_byte(family, dim, variant, kind, mode,
                                                          m, seed, extra):
    """Every column, decision and lambda included, has the bytes of the
    per-round loop for any memory length: the window sums after the loop
    add their terms in the closure's order, and every max, running sum and
    summed offset keeps the sign of zero it gave."""
    if family == "appendix_a":
        inst = AppendixAInstance(m=m, horizon=m + 1 + extra, dim=dim, seed=seed,
                                 mode="adversarial" if seed % 2 else "stochastic")
    else:
        inst = SeparableLinearInstance(m=m, horizon=m + 1 + extra, dim=dim, seed=seed,
                                       g_round_density=0.6, g_mag=(0.05, 0.3))
    lam = _lam(kind, mode, inst)
    got = run_penalty_ogd(inst, variant, kind, lam).records
    want = reference_ogd.run_penalty_ogd(inst, variant, kind, lam).records
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_runner_matches_the_row_tuple_loop_when_the_exponent_cap_binds(dim):
    """With Phi' at the cap, |grad|^2 overflows to inf and the step to 0
    in both loops, and the columns keep the same bytes."""
    inst = AppendixAInstance(m=1, horizon=120, seed=5, mode="adversarial", dim=dim)
    got = run_penalty_ogd(inst, Variant.COCO_M, PenaltyKind.EXPONENTIAL, 25.0).records
    want = reference_ogd.run_penalty_ogd(inst, Variant.COCO_M, PenaltyKind.EXPONENTIAL,
                                         25.0).records
    assert saturated(PenaltyKind.EXPONENTIAL, want["lam"], want["v_dual"]).sum() > 100
    assert np.isinf(want["grad_norm"]).any()
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", ["appendix_a", "separable_linear"])
@pytest.mark.parametrize("kind", list(PenaltyKind))
@pytest.mark.parametrize("mode", ["fixed", "sqrt_t"])
def test_1d_loop_makes_no_python_call_per_round(family, kind, mode):
    """At d = 1 the round loop writes Phi', the step, the dual update and
    the clamp inline: a run of 500 rounds makes as many Python calls as a
    run of 50, so none of them happens per round."""
    counts = []
    for horizon in (50, 500):
        if family == "appendix_a":
            inst = AppendixAInstance(m=2, horizon=horizon, seed=1, mode="adversarial")
        else:
            inst = SeparableLinearInstance(m=2, horizon=horizon, seed=1)
        lam = sqrt_t(inst) if mode == "sqrt_t" else 0.1
        counts.append(sum(python_calls(run_penalty_ogd, inst, Variant.COCO_M2, kind, lam).values()))
    assert counts[0] == counts[1]


# radius 15 and about the largest sigma whose problem constants are finite
# at m = 15 (the instance builds): the surrogate gradient overflows
@pytest.mark.parametrize("dim,sigma", [(1, 6e153), (2, 3e153)])
def test_a_non_finite_decision_raises_in_both_loops(dim, sigma):
    """The inline clamp and radial scaling keep the check of the projected
    step they replaced: a step to a non-finite point raises, in the runner
    as in the reference loop."""
    inst = AppendixAInstance(m=15, horizon=50, dim=dim, radius=15.0, sigma=sigma, seed=0)
    for run in (run_penalty_ogd, reference_ogd.run_penalty_ogd):
        with pytest.raises(ValueError, match="decision has non-finite entries"), \
                np.errstate(over="ignore", invalid="ignore"):
            run(inst, Variant.COCO_M, PenaltyKind.QUADRATIC, sqrt_t(inst))


# (count, sha256) of the per-round saturation flags of exponential-penalty
# OGD under coco_m on AppendixAInstance(m=1, horizon=400, seed=0), recorded
# when the trace stored them as a bool column
PINNED_SATURATION = {
    0.1: (90, "2cf2b95ed10edf1963ce1ba3bb1cf0a7a6d930013807e38838334b55ab6af1d7"),
    1.0: (374, "b65817b51a88d8505efaea1b4cfb45e139c24a616d6100f355d50bd8161ed005"),
}


@pytest.mark.parametrize("lam", sorted(PINNED_SATURATION))
def test_saturation_reads_back_from_lam_and_v_dual(lam):
    """The exponent-cap guard rail is not stored: `penalty.saturated` of
    the `lam` and `v_dual` columns flags the rounds the stored column did."""
    inst = AppendixAInstance(m=1, horizon=400, seed=0)
    tr = run_penalty_ogd(inst, Variant.COCO_M, PenaltyKind.EXPONENTIAL, lam)
    flags = saturated(tr.penalty_kind, tr.col("lam"), tr.col("v_dual"))
    count, digest = PINNED_SATURATION[lam]
    assert flags.dtype == bool and int(flags.sum()) == count
    assert hashlib.sha256(flags.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("kind", list(PenaltyKind))
def test_float_loop_rejects_bad_lambda(value, kind):
    inst = AppendixAInstance(m=1, horizon=20, seed=0)
    with pytest.raises(ValueError, match="penalty parameter"):
        run_penalty_ogd(inst, Variant.COCO_M, kind, value)
    lams = np.full(len(inst.rounds), 0.5)
    lams[-1] = value  # one bad round of a per-round schedule
    with pytest.raises(ValueError, match="penalty parameter"):
        run_penalty_ogd(inst, Variant.COCO_M, kind, lams)


# sha256 of records.tobytes() in `pinned_layout` for seed 0 of the two
# shipped reference configs, recorded with the oracle-driven loop
PINNED_REFERENCE_TRACES = {
    "reference_stochastic": "7f930d1763d1bfe6",
    "reference_adversarial": "b242f96ebbaf8db4",
}


@pytest.mark.parametrize("name", sorted(PINNED_REFERENCE_TRACES))
def test_reference_trace_bytes_are_pinned(name):
    cfg = load_config(CONFIG_DIR / f"{name}.json")
    tr = run_single(cfg, 0)
    digest = hashlib.sha256(pinned_layout(tr).tobytes()).hexdigest()
    assert digest[:16] == PINNED_REFERENCE_TRACES[name]


def test_the_lam_column_is_the_only_record_of_lambda():
    """A per-round schedule and a single lambda alike are recorded in the
    `lam` column, one value per played round, and in no extra."""
    inst = AppendixAInstance(m=1, horizon=30, seed=0)
    tr = run_penalty_ogd(inst, Variant.COCO_M2, lam=sqrt_t(inst))
    assert tr.extras == {}
    assert tr.col("lam").tolist() == [1.0 / math.sqrt(max(t, 1)) for t in inst.rounds]
    fixed = run_penalty_ogd(inst, Variant.COCO_M2, lam=0.3)
    assert fixed.extras == {}
    assert fixed.col("lam").tolist() == [0.3] * len(inst.rounds)


@pytest.mark.parametrize("kind", list(PenaltyKind))
def test_no_lambda_plays_the_theorem_lambda(kind):
    """lam=None is the theorem's lambda in every round, under either
    penalty, so the theorem's lambda precondition holds; a per-round
    lambda array of another length than the round count is rejected."""
    inst = AppendixAInstance(m=1, horizon=200, seed=3)
    tr = run_penalty_ogd(inst, Variant.COCO_M, kind)
    assert np.all(tr.col("lam") == lambda_theorem(kind, inst))
    assert theorem_bound_report(tr).preconditions["lambda_theorem_tuned"] is True
    n = len(inst.rounds)
    for length in (n - 1, n + 1):
        with pytest.raises(ValueError):
            run_penalty_ogd(inst, Variant.COCO_M, kind, np.full(length, 0.1))


def test_float_loop_heap_is_a_small_multiple_of_its_table():
    """The float loop writes each round into the trace table's columns as
    it plays it, reading its rows and lambdas through memoryviews, so
    besides the table its heap holds no per-round list: on the
    reference_stochastic environment at T = 20,000 the tracemalloc peak
    of one run is at most 2x the table's bytes (a per-round row list
    transposed after the loop peaked at 7x, per-round lists of lambdas and
    coefficient rows at 2.75x).  A short run first warms up the one-time
    allocations."""
    env = load_config(CONFIG_DIR / "reference_stochastic.json").environment
    env = {key: value for key, value in env.items() if key != "kind"}
    warm = AppendixAInstance(**{**env, "horizon": 50}, seed=0)
    run_penalty_ogd(warm, Variant.COCO_M2, lam=sqrt_t(warm))
    inst = AppendixAInstance(**{**env, "horizon": 20_000}, seed=0)
    lam = sqrt_t(inst)
    tracemalloc.start()
    try:
        tr = run_penalty_ogd(inst, Variant.COCO_M2, lam=lam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * tr.records.nbytes
