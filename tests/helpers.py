"""Helpers that several test modules share."""

import math

import numpy as np

from cocomem.metrics import RunTrace, best_in_hindsight, lift_loss_at


def constant_window(x, m: int) -> np.ndarray:
    """The (m+1, d) memory window (x, ..., x) of an oracle's `value`."""
    return np.tile(np.atleast_1d(np.asarray(x, dtype=float)), (m + 1, 1))


def prefix_static_regret(trace: RunTrace, upto: int) -> float:
    """Static regret of the first rounds up to `upto`, against the
    best-in-hindsight point of that prefix."""
    bench = best_in_hindsight(trace.instance, upto=upto)
    if not bench.feasible:
        return math.nan
    n = upto - trace.first_round + 1
    f_mem = float(np.sum(trace.col("f_mem")[:n]))
    return f_mem - float(np.sum(lift_loss_at(trace.instance, bench.x_star, upto=upto)))


def sqrt_t(instance) -> np.ndarray:
    """lambda_t = 1/sqrt(t) for each of the instance's rounds: the reference
    configs' schedule, as `run_penalty_ogd` takes it."""
    t = np.arange(instance.rounds.start, instance.rounds.stop)
    return 1.0 / np.sqrt(np.maximum(t, 1))
