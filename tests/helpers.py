"""Helpers that several test modules share."""

import collections
import hashlib
import math
import struct
import sys

import numpy as np

from cocomem import (NoisyPredictor, PerfectPredictor, SeparableLinearInstance, ZeroPredictor,
                     run_doubling, run_optimistic)
from cocomem.core import ROUND_FIELDS
from cocomem.geometry import regret_coefficient
from cocomem.metrics import RunTrace, best_in_hindsight, lift_loss_at
from cocomem.penalty import saturated

NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0001))[0]
# floats whose text a writer can get wrong: signed zero, NaN payloads,
# infinities, the subnormal minimum, both sides of `repr`'s switches to
# exponent form (1e-4, 1e16) with the [1e-5, 1e-4) band between them,
# 1820.0000192952139 (a fraction holding 0.0000), exponents of one to
# three digits
FLOAT_TRAPS = [0.0, -0.0, math.nan, -math.nan, NAN_PAYLOAD, math.inf, -math.inf,
               5e-324, 1e16, 1e-5, 0.1, 1820.0000192952139, 7.921467553588983e-05,
               -1.2541866619736307e-05, 9.999999999999999e-05, 1e-4, 9999999999999998.0,
               1.2345678901234568e+17, 1e300, 1e-300]


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


def instance_digest(inst) -> str:
    """sha256 prefix of a separable instance's f_coef, g_coef, g_off and
    g_present bytes, the digest of the instance pins."""
    h = hashlib.sha256()
    for a in (inst.f_coef, inst.g_coef, inst.g_off, inst.g_present):
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def trace_digest(runner: str, kind: str, m: int, d: int) -> str:
    """sha256 prefix of `pinned_layout`, the hints (odaf only) and the
    error sums of the trace pin (runner, kind, m, d): a run on a 150-round
    separable instance with dense, strong constraint slices."""
    inst = SeparableLinearInstance(m=m, horizon=150, dim=d, seed=10 * m + d,
                                   g_round_density=0.4, g_mag=(0.05, 0.2))
    predictor = {"perfect": PerfectPredictor(), "zero": ZeroPredictor(),
                 "noisy": NoisyPredictor(0.3, seed=m + d)}[kind]
    run = run_optimistic if runner == "odaf" else run_doubling
    tr = run(inst, predictor)
    h = hashlib.sha256(pinned_layout(tr).tobytes())
    if runner == "odaf":
        h.update(tr.extras["hints"].tobytes())
    h.update(repr(sorted(error_sums(tr).items())).encode())
    return h.hexdigest()[:16]


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


def played_violation(learner, t: int) -> float:
    """max(g_t, 0) of played round t, as the finished run's trace records
    it: the family's `fill_values` on a copy of the learner's table (the
    loop writes the decisions, not g_t)."""
    table = learner.records.copy()
    learner.inst.fill_values(table)
    return float(table["g_plus_recorded"][t - learner.inst.first_round])


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


def python_calls(fn, *args, c_calls: bool = False) -> collections.Counter:
    """The Python function calls (profile `call` events) made while
    running fn(*args), by qualified name; with `c_calls`, the calls of
    built-in functions and methods too (`c_call` events), by theirs.
    numpy's Cython methods, the generator's draws among them, raise
    neither event: `CountingGenerator` turns its draws into Python calls."""
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_qualname] += 1
        elif c_calls and event == "c_call":
            calls[getattr(arg, "__qualname__", repr(arg))] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return calls


class CountingPCG64(np.random.PCG64):
    """numpy's PCG64 whose word draws and jumps are Python calls, which
    `python_calls` counts."""

    def random_raw(self, *args, **kwargs):
        return super().random_raw(*args, **kwargs)

    def advance(self, delta):
        return super().advance(delta)


class CountingGenerator(np.random.Generator):
    """numpy's generator whose draws are Python calls, which
    `python_calls` counts; its stream is the base class's."""

    def random(self, *args, **kwargs):
        return super().random(*args, **kwargs)

    def integers(self, *args, **kwargs):
        return super().integers(*args, **kwargs)

    def normal(self, *args, **kwargs):
        return super().normal(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        return super().uniform(*args, **kwargs)
