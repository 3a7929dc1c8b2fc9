"""The float ODAF learner against the numpy learner it replaced
(`reference_odaf`), and its memory bound."""

import tracemalloc
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_odaf as ref
from cocomem import (
    NoisyPredictor,
    PerfectPredictor,
    SeparableLinearInstance,
    Variant,
    ZeroPredictor,
    optimistic,
)
from helpers import assert_v_at_reads_the_table, error_sums

PREDICTORS = {"perfect": PerfectPredictor, "zero": ZeroPredictor,
              "noisy": lambda: NoisyPredictor(0.4, seed=3)}


def _outcome(module, runner, make_instance, variant, kind, lam):
    """(trace facts, None) of one run, or (None, exception type) if it
    raised; then the predictor the run used."""
    inst, predictor = make_instance(), PREDICTORS[kind]()
    try:
        if runner == "odaf":
            tr = module.run_optimistic(inst, variant, predictor, lam=lam)
        else:
            tr = module.run_doubling(inst, variant, predictor)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return None, type(exc), predictor
    hints = tr.extras.get("hints")
    return (tr.records.tobytes(), None if hints is None else (hints.shape, hints.tobytes()),
            error_sums(tr), tr.extras["fixed_point_fallbacks"]), None, predictor


DRAWN_ROUNDS = 116  # the most rounds Hypothesis draws


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    runner=st.sampled_from(["odaf", "doubling"]),
    kind=st.sampled_from(sorted(PREDICTORS)),
    m=st.integers(0, 4),
    d=st.integers(1, 3),
    memoryless=st.booleans(),
    # theorem tuning, or an explicit lambda from 1e-6 up to values whose
    # exponent hits EXP_CAP (and overflows the multiplier) within the run
    lam=st.sampled_from([None, 1e-6, 1e-3, 0.1, 1.0, 10.0, 1e2, 1e3, 5e3, 1.2e4, 1e5]),
    rounds=st.integers(1, DRAWN_ROUNDS),
    density=st.sampled_from([0.15, 0.6]),
    seed=st.integers(0, 2**16),
)
# drawn runs stay inside the first forecast block at m <= 4 (a block is
# 341 rounds at m = 2 and 136 at m = 4): these cross a block boundary
@example(runner="odaf", kind="noisy", m=2, d=1, memoryless=False, lam=None, rounds=400,
         density=0.15, seed=0)
@example(runner="doubling", kind="noisy", m=2, d=1, memoryless=False, lam=None, rounds=400,
         density=0.15, seed=0)
@example(runner="odaf", kind="noisy", m=4, d=1, memoryless=False, lam=None, rounds=160,
         density=0.6, seed=1)
@example(runner="doubling", kind="noisy", m=4, d=1, memoryless=False, lam=None, rounds=160,
         density=0.6, seed=1)
# fewer rounds than m: from every row some delays reach back past the
# first round, to the center
@example(runner="odaf", kind="perfect", m=4, d=1, memoryless=False, lam=None, rounds=3,
         density=0.6, seed=1)
@example(runner="doubling", kind="noisy", m=4, d=2, memoryless=False, lam=None, rounds=3,
         density=0.6, seed=1)
def test_float_learner_matches_numpy_reference(runner, kind, m, d, memoryless, lam,
                                               rounds, density, seed):
    # a ball, which at d = 1 is an interval; COCO_M needs constraints at delay 0
    variant = Variant.COCO_M if memoryless else Variant.COCO_M2

    def make_instance():
        return SeparableLinearInstance(m=m, horizon=m + rounds, dim=d, seed=seed,
                                       constraint_memory=not memoryless,
                                       g_round_density=density, g_mag=(0.05, 0.2))

    with warnings.catch_warnings():  # the numpy learner warns of overflow; see the next test
        warnings.simplefilter("ignore", RuntimeWarning)
        want, want_exc, _ = _outcome(ref, runner, make_instance, variant, kind, lam)
    got, got_exc, predictor = _outcome(optimistic, runner, make_instance, variant, kind, lam)
    assert got_exc is want_exc
    assert got == want
    if rounds > DRAWN_ROUNDS:  # the last block starts after the first query round, m
        assert got_exc is None and predictor._held.start > m


def test_float_learner_overflows_silently():
    """The extreme-lambda example of the test above at d = 3, whose
    multiplier overflows numpy's dot and square: the float learner warns
    of nothing, as its d = 1 floats do not, and ends as the numpy learner
    does, whose overflow warnings stay (a non-finite decision raises)."""
    def make_instance():
        return SeparableLinearInstance(m=0, horizon=59, dim=3, seed=39536,
                                       g_round_density=0.6, g_mag=(0.05, 0.2))

    args = (make_instance, Variant.COCO_M2, "zero", 12000.0)
    with pytest.warns(RuntimeWarning, match="overflow"):
        want = _outcome(ref, "odaf", *args)[:2]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _outcome(optimistic, "odaf", *args)[:2]
    assert got == want == (None, ValueError)


def _run_heap(horizon: int) -> tuple[int, int]:
    """(tracemalloc peak, bytes of the trace table and hints) of one run."""
    inst = SeparableLinearInstance(m=2, horizon=horizon, seed=0)
    tracemalloc.start()
    try:
        tr = optimistic.run_optimistic(inst, Variant.COCO_M2, PerfectPredictor())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, tr.records.nbytes + tr.extras["hints"].nbytes


def test_learner_state_does_not_grow_with_the_horizon():
    """Besides the trace table and the hints the learner writes, its heap
    is O(m): at most 256 B more per round from T = 300 to T = 2400 (the
    numpy learner's dicts grew about 2.8 KB per round)."""
    (small, small_tables), (large, large_tables) = _run_heap(300), _run_heap(2400)
    assert ((large - large_tables) - (small - small_tables)) / (2400 - 300) <= 256


def test_run_heap_is_a_small_multiple_of_its_tables():
    """From T = 300 to T = 2400 a run's tracemalloc peak grows by at most
    1.5 times its trace table and hints: the learner reads slice rows
    through views of the instance arrays and derives columns one row of
    temporaries at a time (a whole-instance `.tolist()` cache of the rows
    grew it 2.49x).  The difference of two short runs leaves out the fixed
    cost a single run carries, and costs little: tracemalloc scans the line
    table of `OdafLearner.play` at every allocation."""
    (small, small_tables), (large, large_tables) = _run_heap(300), _run_heap(2400)
    assert large - small <= 1.5 * (large_tables - small_tables)


@pytest.mark.parametrize("kind", sorted(PREDICTORS))
def test_doubling_shares_bounded_history_across_epochs(kind):
    """Restarts at fixed rounds keep the decision window bounded by m,
    carry the violation over, and leave every played round's violation
    readable from the trace table."""
    inst = SeparableLinearInstance(m=3, horizon=200, seed=1,
                                   g_round_density=0.6, g_mag=(0.05, 0.2))
    learner = optimistic.OdafLearner(inst, Variant.COCO_M2, PREDICTORS[kind](), 0.5)
    restarts = {20: 0.25, 21: 0.125, 90: 0.0625}
    ccv = 0.0  # the running sum of the recorded violations, across restarts
    for t in inst.rounds:
        if t in restarts:
            learner.restart(t, restarts[t])
            assert learner.v_at(t - 1) == ccv and learner.lam == restarts[t]
        learner.play(t, t + 1)
        ccv += max(float(learner.records["g_mem"][t - inst.first_round]), 0.0)
        assert len(learner.x_hist) <= inst.m + 2 and learner.v_at(t) == ccv
        if t in restarts or t == inst.horizon:
            assert_v_at_reads_the_table(learner, t)
