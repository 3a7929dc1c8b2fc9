"""Higher-dimensional runs (ball geometry, coarse grid benchmarks) and
vector CSV emission."""

import numpy as np
import pytest

from cocomem import (
    AppendixAInstance,
    Variant,
    invariant_suite,
    regret_and_ccv,
    run_penalty_ogd,
    theorem_bound_report,
)
from cocomem.core import Ball
from cocomem.harness import CSV_HEADER, emit_csv
from cocomem.metrics import grid_points

from helpers import sqrt_t


@pytest.fixture(scope="module")
def ball_trace():
    inst = AppendixAInstance(m=2, horizon=80, seed=1, dim=2, radius=5.0,
                             sigma=2.0, gamma=3.0)
    return run_penalty_ogd(inst, Variant.COCO_M2, lam=sqrt_t(inst))


def test_ball_run_stays_feasible_and_valid(ball_trace):
    assert isinstance(ball_trace.fset, Ball)
    ball_trace.validate()
    for rec in ball_trace.records:
        assert np.linalg.norm(rec.x) <= 5.0 + 1e-9


def test_ball_run_metrics_and_bounds(ball_trace):
    s = regret_and_ccv(ball_trace)
    assert np.isfinite(s.regret_static_cum[-1])
    assert np.all(np.isnan(s.regret_perround_cum))  # 1-D experiment metric
    # the 1/sqrt(t) schedule misses the theorem's lambda: no bound is reported
    rep = theorem_bound_report(ball_trace)
    assert rep.preconditions == {"lambda_theorem_tuned": False} and rep.theoretical == {}
    rep = theorem_bound_report(run_penalty_ogd(ball_trace.instance, Variant.COCO_M2))
    assert rep.preconditions == {"lambda_theorem_tuned": True}
    assert rep.measured["regret"] <= rep.theoretical["regret"]
    assert rep.measured["ccv"] <= rep.theoretical["ccv"]


def test_ball_run_invariants(ball_trace):
    for res in invariant_suite(ball_trace):
        assert res.passed, str(res)


def test_vector_decisions_in_csv(ball_trace, tmp_path):
    series = regret_and_ccv(ball_trace)
    path = tmp_path / "ball.csv"
    emit_csv(ball_trace, series, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    first = lines[1].split(",")
    coords = first[1].split(";")
    assert len(coords) == 2
    assert all(np.isfinite(float(c)) for c in coords)


def test_grid_cap_rejects_absurd_resolution():
    with pytest.raises(ValueError):
        grid_points(Ball([0.0, 0.0], 5.0), 1e-4)
