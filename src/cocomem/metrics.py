"""Regret and violation metrics, best-in-hindsight solvers, theoretical
bound calculators, and the runtime inequality checks.

The benchmark solvers are exact for the 1-D instance families (interval
intersections plus closed-form minimizers) and fall back to a feasible
grid search otherwise.  Bound calculators evaluate the explicit
proof-constant right-hand sides from declared instance constants only,
never from the trace; the inequality checks then compare measured
quantities against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Variant
from .geometry import project, regret_coefficient
from .penalty import Penalty, PenaltyKind, lambda_theorem, phi_prime, short_memory_condition

_FEAS_TOL = 1e-12


@dataclass
class RunTrace:
    """One run: its per-round table (`core.round_table`, one row per
    played round), its instance, and run-level extras.  Every optimistic
    run is an `odaf` trace whose extras hold its `epochs` and their
    `epoch_starts`; one epoch means lambda stayed fixed."""

    algorithm: str
    variant: Variant
    penalty_kind: PenaltyKind
    records: np.ndarray
    instance: object
    extras: dict = field(default_factory=dict)

    @property
    def first_round(self) -> int:
        return self.instance.first_round

    @property
    def m(self) -> int:
        return self.instance.m

    @property
    def horizon(self) -> int:
        return self.instance.horizon

    @property
    def fset(self):
        return self.instance.fset

    def col(self, name: str) -> np.ndarray:
        return self.records[name]

    def v_at(self, r: int) -> float:
        """Cumulative violation after round r (0 before the first round)."""
        if r < self.first_round:
            return 0.0
        r = min(r, self.first_round + len(self.records) - 1)
        return float(self.records["ccv_cum"][r - self.first_round])

    def validate(self) -> None:
        """Finite columns, and the recurrence and monotonicity of the violations."""
        for name in self.records.dtype.names:  # `t` is an integer, the rest floats
            if not np.isfinite(self.col(name)).all():
                raise AssertionError(f"{name} has non-finite entries")
        ccv = self.col("ccv_cum")
        inc = self.col("g_plus_recorded")
        if not np.allclose(np.cumsum(inc), ccv, rtol=1e-9, atol=1e-9):
            raise AssertionError("ccv_cum does not replay from g_plus_recorded")
        if np.any(np.diff(ccv) < -1e-12):
            raise AssertionError("ccv_cum decreased")
        v = self.col("v_dual")
        if np.any(np.diff(v) < -1e-12):
            raise AssertionError("v_dual decreased")


# ---------------------------------------------------------------------------
# Benchmark solvers
#
# Each instance family supplies its own lift math over a round range:
# `lift_values` (f-lift on a block of points), `halfspaces` (the benchmark
# set as {x : A x + b <= 0}, `lift` or `slicewise`), and the 1-D
# minimizers `lift_argmin_1d` / `lift_min_per_round`.


@dataclass
class Benchmark:
    x_star: np.ndarray | None  # None (and total NaN) when the benchmark set is empty
    total: float


def _active_rounds(instance, upto: int | None) -> range:
    hi = instance.horizon if upto is None else min(upto, instance.horizon)
    return range(instance.first_round, hi + 1)


def _feasible(U: np.ndarray, A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows u of U with a_k . u + b_k <= 0 (to _FEAS_TOL) for every k."""
    vals = U @ A.T
    vals += b
    return np.all(vals <= _FEAS_TOL, axis=1)


def _half_space_intervals(instance, kind: str, rounds) -> tuple[np.ndarray, np.ndarray]:
    """Per half-space 1-D intervals: the set's extent cut by a x + b <= 0."""
    if instance.dim != 1:
        raise ValueError("closed-form interval needs dim = 1")
    A, b = instance.halfspaces(rounds, kind)
    a = A[:, 0]
    lo, hi, _ = instance.fset.interval
    cut = -b / np.where(a == 0.0, 1.0, a)  # a = 0 cuts nothing: its rows keep the extent
    return np.where(a < 0, np.maximum(lo, cut), lo), np.where(a > 0, np.minimum(hi, cut), hi)


def _interval_best(instance, lo: np.ndarray, hi: np.ndarray, rounds: range) -> Benchmark:
    """The 1-D benchmark: the minimizer of the summed f-lift on the set's
    extent cut by every interval [lo_k, hi_k], empty when they miss."""
    lo = float(np.max(lo, initial=instance.fset.lo[0]))
    hi = float(np.min(hi, initial=instance.fset.hi[0]))
    if not lo <= hi:
        return Benchmark(None, math.nan)
    x, total = instance.lift_argmin_1d(lo, hi, rounds)
    return Benchmark(np.array([x]), total)


GRID_STEPS_PER_DIAMETER = 500  # 2-D comparator grid step: the set's diameter / 500


def best_in_hindsight(instance, kind: str = "lift", upto: int | None = None) -> Benchmark:
    """Minimizer of the cumulative lifted loss over a benchmark set:
    `lift` (every lifted constraint <= 0; penalty OGD's) or `slicewise`
    (every constraint slice <= 0; ODAF's).  Exact in 1-D; in 2-D the
    minimum over the feasible points of a grid whose step is the set's
    diameter / GRID_STEPS_PER_DIAMETER."""
    if kind not in ("lift", "slicewise"):
        raise ValueError(f"unknown benchmark set {kind!r}")
    if instance.dim != 1:
        step = instance.fset.diameter / GRID_STEPS_PER_DIAMETER
        return _grid_best(instance, kind, step, upto)
    rounds = _active_rounds(instance, upto)
    return _interval_best(instance, *_half_space_intervals(instance, kind, rounds), rounds)


_GRID_POINT_CAP = 4_000_000


def check_benchmark_dim(dim: int) -> None:
    """Raise unless the benchmark solvers cover decisions of this
    dimension: closed form in 1-D, a grid in 2-D."""
    if not 1 <= dim <= 2:
        raise ValueError(f"grid benchmarks support dim 1 or 2 only, got {dim}")


def grid_points(fset, resolution: float) -> np.ndarray:
    """Uniform grid over the feasible set, dimensions 1 and 2 only; the
    2-D grid must stay coarse (point count capped)."""
    check_benchmark_dim(fset.dim)
    if fset.dim == 1:
        lo, hi = float(fset.lo[0]), float(fset.hi[0])
        n = int(round((hi - lo) / resolution)) + 1
        if n > _GRID_POINT_CAP:
            raise ValueError("grid resolution too fine for this set")
        return np.linspace(lo, hi, n)[:, None]
    spans = [(float(lo), float(hi)) for lo, hi in zip(fset.lo, fset.hi)]
    counts = [int((hi - lo) / resolution) + 1 for lo, hi in spans]
    if counts[0] * counts[1] > _GRID_POINT_CAP:
        raise ValueError(
            "2-D grid needs a coarser resolution "
            f"({counts[0]} x {counts[1]} points exceeds the cap)"
        )
    ax = [np.arange(lo, hi + resolution / 2, resolution) for lo, hi in spans]
    xx, yy = np.meshgrid(ax[0], ax[1])
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    return pts[fset.contains(pts, tol=0.0)]


def _grid_best(instance, kind: str, resolution: float, upto: int | None) -> Benchmark:
    rounds = _active_rounds(instance, upto)
    grid = grid_points(instance.fset, resolution)
    A, b = instance.halfspaces(rounds, kind)
    best_val, best_x = math.inf, None
    for sl in _chunks(len(grid)):
        U = grid[sl]
        mask = _feasible(U, A, b)
        if not np.any(mask):
            continue
        totals = instance.lift_values(U, rounds).sum(axis=1)
        totals[~mask] = math.inf
        k = int(np.argmin(totals))
        if totals[k] < best_val:
            best_val, best_x = float(totals[k]), U[k]
    if best_x is None:
        return Benchmark(None, math.nan)
    return Benchmark(best_x, best_val)


def _chunks(n: int, size: int = 1024):
    for lo in range(0, n, size):
        yield slice(lo, min(lo + size, n))


def lift_loss_at(instance, x: np.ndarray, upto: int | None = None) -> np.ndarray:
    """f-lift values f_t(x,...,x) per round at a fixed point."""
    return instance.lift_values(x[None, :], _active_rounds(instance, upto))[0]


# ---------------------------------------------------------------------------
# Regret / CCV series


@dataclass
class MetricSeries:
    regret_static_cum: np.ndarray
    regret_perround_cum: np.ndarray
    ccv_cum: np.ndarray


def regret_and_ccv(trace: RunTrace) -> MetricSeries:
    """All cumulative series against a fixed best-in-hindsight point and,
    in 1-D, against the per-round comparator: each round's lifted loss
    minimized on its own lifted-feasible interval.  Both comparators read
    one solve of the per-round intervals.

    When the benchmark set is empty the static regret is NaN; the run
    stays valid for violation accounting.  The per-round comparator is a
    1-D experiment metric and reads NaN in higher dimension.
    """
    inst = trace.instance
    f_mem = np.cumsum(trace.col("f_mem"))
    if inst.dim == 1:
        rounds = inst.rounds
        lo, hi = _half_space_intervals(inst, "lift", rounds)
        benchmark = _interval_best(inst, lo, hi, rounds)
        per_round = f_mem - np.cumsum(inst.lift_min_per_round(lo, hi, rounds))
    else:
        benchmark = best_in_hindsight(inst)
        per_round = np.full_like(f_mem, math.nan)
    if benchmark.x_star is not None:
        bench = np.cumsum(lift_loss_at(inst, benchmark.x_star))
        if len(bench) != len(f_mem):
            raise ValueError("trace and instance round counts disagree")
        static = f_mem - bench
    else:
        static = np.full_like(f_mem, math.nan)
    return MetricSeries(
        regret_static_cum=static,
        regret_perround_cum=per_round,
        ccv_cum=trace.col("ccv_cum"),
    )


# ---------------------------------------------------------------------------
# Theoretical bound calculators (explicit proof constants)


def _log_term(T: int, l_f: float, l_g: float) -> float:
    """log T + 2 log(L_f + sqrt(T) L_g) of the quadratic-penalty bounds.
    Below 0 (a short horizon with small constants) the bounds' form does
    not apply and this reads NaN, so they do too (`bounds` prints null)."""
    val = math.log(T) + 2.0 * math.log(l_f + math.sqrt(T) * l_g)
    return val if val >= 0.0 else math.nan


def regret_rhs_quadratic(T: int, m: int, diam: float, l_f: float, l_g: float) -> float:
    """Explicit regret bound under the quadratic penalty with lam = 1/sqrt(T)."""
    log_term = _log_term(T, l_f, l_g)
    return (
        math.sqrt(2 * T) * diam * l_f
        + 2.0 * math.sqrt(T) * diam * diam * l_g * l_g
        + m**1.5 * l_f * (diam / math.sqrt(2)) * math.sqrt(T) * math.sqrt(log_term)
    )


def ccv_rhs_quadratic(T: int, m: int, diam: float, l_f: float, l_g: float,
                      f_bound: float, constraint_memory: bool) -> float:
    """Explicit CCV bound under the quadratic penalty; the memory-deviation
    term (with the constraint's Lipschitz constant) enters only when the
    constraints themselves carry memory."""
    core = math.sqrt(
        2 * T * diam * diam * l_g * l_g + math.sqrt(2) * T * diam * l_f + 2 * f_bound * T**1.5
    ) + math.sqrt(2 * T) * diam * l_g
    if not constraint_memory:
        return core
    log_term = _log_term(T, l_f, l_g)
    return core + m**1.5 * l_g * (diam / math.sqrt(2)) * math.sqrt(T) * math.sqrt(log_term)


def regret_rhs_exponential(T: int, m: int, diam: float, l_f: float, l_g: float,
                           g_bound: float, lam: float) -> float:
    """Explicit regret bound under the tuned exponential penalty (memory-less
    constraints, short windows); requires l_f >= 1."""
    if l_f < 1.0:
        raise ValueError("exponential-penalty regret form needs L_f >= 1")
    return (
        math.sqrt(2 * T) * diam * l_f
        + m**1.5 * l_f * (diam / math.sqrt(2)) * math.sqrt(T * math.log(T))
        + math.exp(lam * g_bound)
        + m**1.5 * l_f * diam * math.sqrt(math.log(l_f))
    )


def ccv_rhs_exponential(T: int, m: int, diam: float, l_f: float, l_g: float,
                        f_bound: float) -> float:
    """(1/lam) log(|X| L_f sqrt(2T) + 2FT) with the tuned exponential lam."""
    inv_lam = 2.0 * (
        math.sqrt(2 * T) * diam * l_g + m**1.5 * diam * math.sqrt(T * l_f * l_g)
    )
    return inv_lam * math.log(diam * l_f * math.sqrt(2 * T) + 2 * f_bound * T)


@dataclass
class BoundReport:
    measured: dict
    theoretical: dict
    slack: dict
    preconditions: dict


def theorem_bound_report(trace: RunTrace) -> BoundReport:
    """Measured regret/CCV against the explicit bounds of the trace's
    algorithm: penalty OGD's theorem, `check_odaftrl_regret`'s forward-regret
    bound for an `odaf` run.  Penalty OGD's holds only if every round
    played the theorem's lambda, ODAF's only if the run made one epoch (a
    doubling run changes lambda per epoch)."""
    series = regret_and_ccv(trace)
    inst = trace.instance
    k = inst.constants()
    T, m, diam = inst.horizon, inst.m, inst.fset.diameter
    # the cumulative series end at round T; a run with no rounds measures 0
    measured = {key: float(col[-1]) if len(col) else 0.0
                for key, col in (("regret", series.regret_static_cum), ("ccv", series.ccv_cum))}
    theoretical: dict = {}
    preconditions: dict = {}
    if trace.algorithm == "odaf":
        preconditions["lambda_fixed_across_epochs"] = trace.extras["epochs"] == 1
        if preconditions["lambda_fixed_across_epochs"]:
            fwd, bench = ForwardFunctions(trace), best_in_hindsight(inst, "slicewise")
            check = check_odaftrl_regret(fwd, bench)
            measured["forward_regret"], theoretical["forward_regret"] = check.lhs, check.rhs
    elif trace.algorithm == "penalty_ogd":
        lam = lambda_theorem(trace.penalty_kind, inst)
        preconditions["lambda_theorem_tuned"] = bool(np.all(trace.col("lam") == lam))
        if trace.penalty_kind is PenaltyKind.EXPONENTIAL:
            preconditions["short_memory"] = short_memory_condition(T, m)
            preconditions["l_f_at_least_one"] = k.l_f >= 1.0
        if all(preconditions.values()) and trace.penalty_kind is PenaltyKind.QUADRATIC:
            theoretical["regret"] = regret_rhs_quadratic(T, m, diam, k.l_f, k.l_g)
            theoretical["ccv"] = ccv_rhs_quadratic(
                T, m, diam, k.l_f, k.l_g, k.f_bound,
                constraint_memory=trace.variant is Variant.COCO_M2,
            )
        elif all(preconditions.values()):
            theoretical["regret"] = regret_rhs_exponential(
                T, m, diam, k.l_f, k.l_g, k.g_bound, lam
            )
            theoretical["ccv"] = ccv_rhs_exponential(T, m, diam, k.l_f, k.l_g, k.f_bound)
    slack = {
        key: (theoretical[key] / measured[key] if measured.get(key, 0) > 0 else math.inf)
        for key in theoretical
    }
    return BoundReport(measured, theoretical, slack, preconditions)


# ---------------------------------------------------------------------------
# Runtime inequality checks


@dataclass
class CheckResult:
    name: str
    passed: bool
    lhs: float
    rhs: float
    detail: str = ""

    def __str__(self):
        tag = "ok " if self.passed else "FAIL"
        return f"[{tag}] {self.name}: lhs={self.lhs:.6g} rhs={self.rhs:.6g} {self.detail}"


def check_lemma_ogd_regret(trace: RunTrace, bench: Benchmark) -> CheckResult:
    """Surrogate regret against the adaptive-step OGD bound
    sqrt(2) |X| sqrt(sum ||grad||^2).  On the `lift` benchmark set every
    lifted constraint is <= 0, so the hinge term of the surrogate vanishes
    and the comparator is its best-in-hindsight total `bench`."""
    if bench.x_star is None:
        return CheckResult("ogd_surrogate_regret", True, math.nan, math.nan, "empty benchmark")
    lhs = surrogate_sum_splat(trace) - bench.total
    rhs = math.sqrt(2.0) * trace.fset.diameter * math.sqrt(
        float(np.sum(trace.col("grad_norm") ** 2))
    )
    return CheckResult("ogd_surrogate_regret", lhs <= rhs + 1e-9 * max(1.0, abs(rhs)), lhs, rhs)


def check_decomposition_ogd(trace: RunTrace, bench: Benchmark) -> CheckResult:
    """Penalty decomposition: memory-less regret + Phi(V_T) - Phi(V_m)
    is at most the surrogate regret (the same `lift` comparator `bench` on
    both sides, where the surrogate's hinge term is 0)."""
    if bench.x_star is None:
        return CheckResult("penalty_decomposition", True, math.nan, math.nan, "empty benchmark")
    lam, v, kind = trace.col("lam"), trace.col("v_dual"), trace.penalty_kind
    lhs = float(np.sum(trace.col("f_splat"))) - bench.total
    if len(v):  # V stays 0 over no rounds, where both Phi read 0
        lhs += Penalty(kind, float(lam[-1])).value(float(v[-1]))
        lhs -= Penalty(kind, float(lam[0])).value(float(v[0]))
    rhs = surrogate_sum_splat(trace) - bench.total
    return CheckResult("penalty_decomposition", lhs <= rhs + 1e-9 * max(1.0, abs(rhs)), lhs, rhs)


def check_memory_identity(trace: RunTrace) -> CheckResult:
    """Memory-deviation bound (Anava, Hazan & Mannor 2015): each window
    loss is within L_f * ||(x_{t-m},..,x_t) - (x_t,..,x_t)||_F of its
    lift, so  sum_t |f_mem - f_splat|  is at most L_f times the summed
    window-to-splat distances (history before the first round pinned to
    the set center)."""
    X = trace.instance.by_round(trace.col("x"))
    t = trace.col("t")
    dev_sq = np.zeros(len(t))
    for i in range(1, trace.m + 1):
        diff = X[t - i] - X[t]
        dev_sq += np.sum(diff * diff, axis=1)
    lhs = float(np.sum(np.abs(trace.col("f_mem") - trace.col("f_splat"))))
    rhs = trace.instance.constants().l_f * float(np.sum(np.sqrt(dev_sq)))
    return CheckResult("memory_deviation_bound", lhs <= rhs + 1e-9 * max(1.0, rhs), lhs, rhs)


def check_gradient_bound(trace: RunTrace) -> CheckResult:
    """Every round's surrogate gradient norm obeys L_f + Phi'_t * L_g with
    the multiplier Phi'_t that round used; reports the tightest round."""
    k = trace.instance.constants()
    grad = trace.col("grad_norm")
    rhs = k.l_f + trace.col("phi_prime") * k.l_g
    if not len(grad):
        return CheckResult("surrogate_gradient_bound", True, 0.0, k.l_f, "(no rounds)")
    w = int(np.argmax(grad - rhs))
    return CheckResult("surrogate_gradient_bound", bool(np.all(grad <= rhs + 1e-9)),
                       float(grad[w]), float(rhs[w]), f"(round {int(trace.col('t')[w])})")


def check_step_monotone(trace: RunTrace) -> CheckResult:
    eta = trace.col("eta_or_mu")
    start = 1 if len(eta) > 1 and eta[0] == 0.0 else 0
    diffs = np.diff(eta[start:])
    ok = bool(np.all(diffs <= 1e-12))
    worst = float(np.max(diffs)) if diffs.size else 0.0
    return CheckResult("step_size_monotone", ok, worst, 0.0)


def check_mu_monotone(trace: RunTrace) -> CheckResult:
    """The FTRL weight never decreases within an epoch.  A doubling run
    sets it back at each round of `extras["epoch_starts"]`, so the step
    into such a round's row is skipped."""
    diffs = np.diff(trace.col("eta_or_mu"))
    restarts = np.array(trace.extras["epoch_starts"], dtype=int) - trace.first_round
    diffs = np.delete(diffs, restarts[restarts > 0] - 1)
    ok = bool(np.all(diffs >= -1e-12))
    worst = float(np.min(diffs)) if diffs.size else 0.0
    return CheckResult("ftrl_weight_monotone", ok, worst, 0.0)


def check_ccv_replay(trace: RunTrace) -> CheckResult:
    try:
        trace.validate()
        return CheckResult("ccv_recurrence_replay", True, 0.0, 0.0)
    except AssertionError as exc:
        return CheckResult("ccv_recurrence_replay", False, math.nan, math.nan, str(exc))


# -- optimistic-run checks --------------------------------------------------


def _last_penalty(trace: RunTrace) -> Penalty:
    """The last round's penalty, for the end-of-run Phi(V_T) and Phi'(V_T).
    A run that played no round has no lambda and weighs no violation, so
    any lambda gives the checks the same verdict: 1 stands in."""
    lam = trace.col("lam")
    return Penalty(trace.penalty_kind, float(lam[-1]) if len(lam) else 1.0)


class ForwardFunctions:
    """The realized forward functions Z_t of an optimistic run, rebuilt
    once per audit from the instance arrays and the played decisions:
    `decisions`, the instance's `by_round` of the decision column, the
    summed loss coefficient `loss_coef`, and `round_mult[r]`, the weight
    Phi'(V_{r-d}) of round r's constraint slices (0 without any) under its
    row's lambda, d the dual delay: the learner's `phi_prime` there.  Per
    present slice (r, i), in `np.nonzero` order: `rounds`, `delays`, `coef`,
    `off`, `mult` and `value` at x_{r-i}.  `played_total` is sum_t Z_t(x_t),
    summed by diagonal (slice (r, i) at x_{r-i}), once for every check."""

    def __init__(self, trace: RunTrace):
        inst = trace.instance
        self.trace = trace
        delay = trace.variant.dual_delay(inst.m)
        self.decisions = inst.by_round(trace.col("x"))
        self.loss_coef = inst.f_coef.sum(axis=(0, 1))
        self.rounds, self.delays = np.nonzero(inst.g_present)
        self.round_mult = np.zeros(inst.horizon + 1)
        first, lam = trace.first_round, trace.col("lam").tolist()
        ccv = trace.col("ccv_cum").tolist()  # V_{r-d} read as `trace.v_at` reads it
        for r in np.flatnonzero(inst.g_present.any(axis=1)).tolist():
            v = ccv[min(r - delay - first, len(ccv) - 1)] if r - delay >= first else 0.0
            self.round_mult[r] = phi_prime(trace.penalty_kind, lam[r - first], v)
        self.coef = inst.g_coef[self.rounds, self.delays]
        self.off = inst.g_off[self.rounds, self.delays]
        self.mult = self.round_mult[self.rounds]
        touched = self.decisions[self.rounds - self.delays]
        self.value = np.sum(self.coef * touched, axis=1) + self.off
        r, total = np.arange(inst.horizon + 1), 0.0
        for i in range(inst.m + 1):
            total += float(np.sum(inst.f_coef[:, i] * self.decisions[np.maximum(r - i, 0)]))
        self.played_total = total + float(np.maximum(self.value, 0.0) @ self.mult)

    def sum_at(self, u: np.ndarray) -> float:
        """sum_t Z_t(u) at a constant point u (convex piecewise-linear)."""
        U = np.asarray(u, dtype=float)[None, :]
        vals = U @ self.loss_coef + np.maximum(U @ self.coef.T + self.off, 0.0) @ self.mult
        return float(vals[0])

    def hint_errors(self) -> np.ndarray:
        """||h_tau - sum_{j=tau-m}^{tau} grad Z_j||^2 for every stored hint.
        Each grad Z_s adds its slices in delay order (loss slice, then the
        constraint slice when active at x_s), and each window adds j in
        increasing order."""
        inst, hints, first = self.trace.instance, self.trace.extras["hints"], self.trace.first_round
        m, horizon = inst.m, inst.horizon
        taus = np.arange(first, first + len(hints))
        # weighted gradient of every constraint slice active at the decision
        # it touches (zero when inactive or absent)
        on = self.value > 0.0
        g_grad = np.zeros_like(inst.g_coef)
        g_grad[self.rounds[on], self.delays[on]] = self.mult[on, None] * self.coef[on]
        # grad Z_s for s = 0 .. newest hint round
        s = np.arange(taus[-1] + 1)
        Z = np.zeros((len(s), inst.dim))
        for i in range(m + 1):
            has = (s + i > m) & (s + i <= horizon)  # rounds with slices
            Z[has] += inst.f_coef[s[has] + i, i]
            Z[has] += g_grad[s[has] + i, i]
        win = np.zeros_like(hints)
        for lag in range(m, -1, -1):
            j = taus - lag
            seen = j >= 1
            win[seen] += Z[j[seen]]
        return np.sum((hints - win) ** 2, axis=1)


def surrogate_sum_splat(trace: RunTrace) -> float:
    """sum_t L_t(x_t,...,x_t): penalty OGD's surrogate at the lift, each
    round's f_splat + Phi'(V_t) max(g_splat, 0)."""
    g_pos = np.maximum(trace.col("g_splat"), 0.0)
    return float(np.sum(trace.col("f_splat") + trace.col("phi_prime") * g_pos))


def surrogate_sum_memory(trace: RunTrace) -> float:
    """sum_t L_t(window) with the delayed multipliers the learner used."""
    return float(
        np.sum(trace.col("f_mem"))
        + np.sum(trace.col("phi_prime") * np.maximum(trace.col("g_mem"), 0.0))
    )


def check_forward_consistency(fwd: ForwardFunctions) -> CheckResult:
    """For five random constant points u: sum_t Z_t(u) equals
    sum_t L_t(u,...,u) exactly under zero padding; and the played surrogate
    never exceeds the played forward sum.  Both weigh round t by its own lambda."""
    inst = fwd.trace.instance
    rounds = _active_rounds(inst, None)
    slopes = inst.lift_slopes(rounds)
    g_lift_coef, g_lift_off = inst.halfspaces(rounds, "lift")
    mults = fwd.round_mult[rounds.start:]
    rng = np.random.Generator(np.random.PCG64(12345))
    worst = 0.0
    for _ in range(5):
        u = inst.fset.center + rng.uniform(-1, 1, size=inst.dim) * inst.fset.diameter / 2
        u = project(inst.fset, u)
        z_sum = fwd.sum_at(u)
        l_sum = float(np.sum(slopes @ u) + mults @ np.maximum(g_lift_coef @ u + g_lift_off, 0.0))
        worst = max(worst, abs(z_sum - l_sum) / max(1.0, abs(z_sum)))
    played, forward = surrogate_sum_memory(fwd.trace), fwd.played_total
    if played > forward + 1e-8 * max(1.0, abs(forward)):
        return CheckResult("forward_vertical_consistency", False, played, forward,
                           "played surrogate exceeds forward sum")
    return CheckResult("forward_vertical_consistency", worst <= 1e-9, worst, 1e-9)


def check_lemma_forward_chain(fwd: ForwardFunctions, bench: Benchmark) -> CheckResult:
    """Phi(V_T) - Phi(V_{m-1}) + memory regret (slice-wise benchmark) is at
    most the forward-function regret plus G d Phi'(V_T), d the variant's
    dual delay.  On the slice-wise benchmark set every constraint slice is
    <= 0, so the forward sum equals the summed lift there and both regrets
    share the slice-wise best-in-hindsight total `bench` as comparator."""
    if bench.x_star is None:
        return CheckResult("forward_chain", True, math.nan, math.nan, "empty benchmark")
    trace = fwd.trace
    inst, pen = trace.instance, _last_penalty(trace)
    v_t = trace.v_at(inst.horizon)
    lhs = pen.value(v_t) + float(np.sum(trace.col("f_mem"))) - bench.total
    g_d = inst.constants().g_bound * trace.variant.dual_delay(inst.m)
    rhs = fwd.played_total - bench.total + g_d * pen.prime(v_t)
    return CheckResult("forward_chain", lhs <= rhs + 1e-8 * max(1.0, abs(rhs)), lhs, rhs)


def check_error_split(trace: RunTrace) -> CheckResult:
    """Cumulative hint error bounded by the loss/constraint error split:
    E(Z) <= 2 E(f) + 2 Phi'(V_T)^2 E(g+)."""
    pen = _last_penalty(trace)
    e_z = float(np.sum(trace.col("eps_z")))
    e_f = float(np.sum(trace.col("eps_f")))
    e_g = float(np.sum(trace.col("eps_g")))
    pp = pen.prime(trace.v_at(trace.horizon))
    rhs = 2.0 * e_f + 2.0 * pp * pp * e_g
    return CheckResult("hint_error_split", e_z <= rhs + 1e-9 * max(1.0, rhs), e_z, rhs)


def check_odaftrl_regret(fwd: ForwardFunctions, bench: Benchmark) -> CheckResult:
    """Measured forward-function regret against the delayed-FTRL bound
    C sqrt(sum ||h_t - window grads||^2) with the reconstructed hint errors
    (comparator as in the forward chain)."""
    if bench.x_star is None:
        return CheckResult("odaftrl_regret_bound", True, math.nan, math.nan, "empty benchmark")
    inst = fwd.trace.instance
    lhs = fwd.played_total - bench.total
    err_sum = float(np.sum(fwd.hint_errors()))
    rhs = regret_coefficient(inst.fset, inst.m) * math.sqrt(max(err_sum, 0.0))
    return CheckResult("odaftrl_regret_bound", lhs <= rhs + 1e-8 * max(1.0, abs(rhs)), lhs, rhs)


def invariant_suite(trace: RunTrace) -> list[CheckResult]:
    """Every runtime inequality that applies to this trace's algorithm."""
    replay = check_ccv_replay(trace)
    if not replay.passed:  # the others would compute on non-finite or inconsistent columns
        return [replay]
    checks = [replay, check_memory_identity(trace)]
    if trace.algorithm == "penalty_ogd":
        bench = best_in_hindsight(trace.instance)
        return checks + [
            check_lemma_ogd_regret(trace, bench),
            check_decomposition_ogd(trace, bench),
            check_gradient_bound(trace),
            check_step_monotone(trace),
        ]
    fwd = ForwardFunctions(trace)
    checks.append(check_forward_consistency(fwd))
    if trace.extras["epochs"] == 1:
        # the regret chain and the hint-error split read one lambda for the
        # whole run: a doubling run of several epochs changes it between them
        bench = best_in_hindsight(trace.instance, "slicewise")
        checks += [
            check_lemma_forward_chain(fwd, bench),
            check_error_split(trace),
            check_odaftrl_regret(fwd, bench),
        ]
    return checks + [check_mu_monotone(trace)]
