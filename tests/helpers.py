"""Helpers that several test modules share."""

import math

import numpy as np

from cocomem.core import ROUND_FIELDS
from cocomem.geometry import regret_coefficient
from cocomem.metrics import RunTrace, best_in_hindsight, lift_loss_at
from cocomem.penalty import saturated


def pinned_layout(trace: RunTrace) -> np.ndarray:
    """The trace table in the 18-column layout that the trace digests were
    recorded in.  It also stored the played surrogate after `lam` (penalty
    OGD's f_splat + Phi' max(g_splat, 0), ODAF's f_mem + Phi' g+) and the
    exponent cap's saturation last; both are rebuilt from the columns."""
    names = ROUND_FIELDS[:11] + ("surrogate",) + ROUND_FIELDS[11:]
    dim = trace.instance.dim
    table = np.zeros(len(trace.records), dtype=[("t", np.int64), ("x", float, (dim,))]
                     + [(name, float) for name in names[2:]] + [("saturated", bool)])
    for name in ROUND_FIELDS:
        table[name] = trace.col(name)
    if trace.algorithm == "penalty_ogd":
        f, g_plus = trace.col("f_splat"), np.maximum(trace.col("g_splat"), 0.0)
    else:
        f, g_plus = trace.col("f_mem"), trace.col("g_plus_recorded")
    table["surrogate"] = f + trace.col("phi_prime") * g_plus
    table["saturated"] = saturated(trace.penalty_kind, trace.col("lam"), trace.col("v_dual"))
    return table


def constant_window(x, m: int) -> np.ndarray:
    """The (m+1, d) memory window (x, ..., x) of an oracle's `value`."""
    return np.tile(np.atleast_1d(np.asarray(x, dtype=float)), (m + 1, 1))


def prefix_static_regret(trace: RunTrace, upto: int) -> float:
    """Static regret of the first rounds up to `upto`, against the
    best-in-hindsight point of that prefix."""
    bench = best_in_hindsight(trace.instance, upto=upto)
    if bench.x_star is None:
        return math.nan
    n = upto - trace.first_round + 1
    f_mem = float(np.sum(trace.col("f_mem")[:n]))
    return f_mem - float(np.sum(lift_loss_at(trace.instance, bench.x_star, upto=upto)))


def assert_v_at_reads_the_table(learner, played):
    """`v_at(r)` is the `ccv_cum` row of every played round, bit for bit,
    and 0 before the run and for rounds not yet played."""
    inst, first = learner.inst, learner.inst.first_round
    ccv = learner.records["ccv_cum"]
    for r in range(first - inst.m - 2, inst.horizon + inst.m + 3):
        want = float(ccv[r - first]) if first <= r <= played else 0.0
        assert learner.v_at(r) == want and type(learner.v_at(r)) is float


def error_sums(trace: RunTrace) -> dict:
    """Cumulative hint errors by kind, summed round by round in play order
    from the trace's `eps_*` columns."""
    return {k: float(sum(trace.col(f"eps_{k}").tolist())) for k in ("z", "f", "g")}


def sqrt_t(instance) -> np.ndarray:
    """lambda_t = 1/sqrt(t) for each of the instance's rounds: the reference
    configs' schedule, as `run_penalty_ogd` takes it."""
    t = np.arange(instance.rounds.start, instance.rounds.stop)
    return 1.0 / np.sqrt(np.maximum(t, 1))


def doubling_epoch_bound(trace: RunTrace) -> float:
    """2 + log2(C sqrt(E_total) / mu1), the most epochs a doubling run of
    more than one epoch can make, C the delayed-FTRL regret coefficient
    and E_total the run's summed eps_g: epoch K - 1 ended when
    C sqrt(E) > 2^(K-2) mu1, and E <= E_total."""
    inst = trace.instance
    coeff = regret_coefficient(inst.fset, inst.m)
    error = sum(trace.col("eps_g").tolist())
    return 2 + math.log2(coeff * math.sqrt(error) / trace.extras["mu1"])
