import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocomem.core import Ball
from cocomem.geometry import (
    dub_alpha,
    ftrl_argmin,
    minimize_linear,
    point_step,
    project,
    regret_coefficient,
)


def test_box_projection_clamps():
    b = Ball([0.0], 15.0)
    assert project(b, [20.0])[0] == pytest.approx(15.0)
    assert project(b, [-31.0])[0] == pytest.approx(-15.0)


def test_ball_projection_scales_radially():
    s = Ball([0.0, 0.0], 15.0)
    assert np.allclose(project(s, [30.0, 0.0]), [15.0, 0.0])


def test_interior_point_is_fixed():
    for fset, p in ((Ball([0.0], 1.0), [0.25]), (Ball([0.0, 0.0], 1.0), [0.25, -0.5])):
        p = np.array(p)
        assert np.array_equal(project(fset, p), p)


def test_projection_idempotent_and_nonexpansive():
    rng = np.random.default_rng(0)
    for fset in (Ball([-0.5], 1.5), Ball([1.0, -1.0], 2.5)):
        for _ in range(1000):
            p, q = rng.normal(scale=5.0, size=fset.dim), rng.normal(scale=5.0, size=fset.dim)
            pp, qq = project(fset, p), project(fset, q)
            assert np.linalg.norm(project(fset, pp) - pp) <= 1e-12
            assert np.linalg.norm(pp - qq) <= np.linalg.norm(p - q) + 1e-12


@pytest.mark.parametrize("fset", [Ball([0.0], 15.0), Ball([0.0, 0.0], 15.0)], ids=["1d", "2d"])
def test_projection_rejects_non_finite_points(fset):
    # the penalty-OGD learner's window holds what project returns, so a
    # non-finite step must stop here
    for bad in (np.nan, np.inf, -np.inf):
        p = np.zeros(fset.dim)
        p[-1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            project(fset, p)
    with pytest.raises(ValueError, match="dimension"):
        project(fset, np.zeros(fset.dim + 1))


def test_ftrl_argmin_examples():
    s = Ball([0.0, 0.0], 15.0)
    # unconstrained optimum -g/mu interior
    assert np.allclose(ftrl_argmin(s, [2.0, 0.0], 1.0), [-2.0, 0.0])
    # optimum clipped to the boundary
    assert np.allclose(ftrl_argmin(s, [2.0, 0.0], 0.1), [-15.0, 0.0])
    # zero linear term
    assert np.allclose(ftrl_argmin(s, [0.0, 0.0], 2.0), [0.0, 0.0])
    # mu = 0 on a ball: the boundary point against g
    assert np.allclose(ftrl_argmin(s, [3.0, -4.0], 0.0), [-9.0, 12.0])
    # mu = 0 on an interval: the end against g; g = 0 resolves to the center
    b = Ball([0.5], 1.5)
    assert np.array_equal(ftrl_argmin(b, [3.0], 0.0), [-1.0])
    assert np.array_equal(ftrl_argmin(b, [-3.0], 0.0), [2.0])
    assert np.array_equal(ftrl_argmin(b, [0.0], 0.0), [0.5])


def test_ftrl_argmin_beats_random_feasible_points():
    rng = np.random.default_rng(3)
    for case in range(500):
        d = 1 + case % 2
        fset = Ball(rng.normal(size=d), float(rng.uniform(0.5, 4.0)))
        g = rng.normal(scale=3.0, size=d)
        mu = float(rng.uniform(0.01, 5.0))
        x = ftrl_argmin(fset, g, mu)
        assert fset.contains(x, tol=1e-9)
        obj = g @ x + mu * 0.5 * float(np.sum((x - fset.center) ** 2))
        pts = rng.uniform(-1.0, 1.0, size=(1000, d))
        cand = fset.center + pts * fset.radius
        norms = np.linalg.norm(cand - fset.center, axis=1)
        scale = np.minimum(1.0, fset.radius / np.maximum(norms, 1e-12))
        cand = fset.center + (cand - fset.center) * scale[:, None]
        vals = cand @ g + mu * 0.5 * np.sum((cand - fset.center) ** 2, axis=1)
        assert np.all(obj <= vals + 1e-10)


def test_ftrl_argmin_validates_input():
    b = Ball([0.0], 1.0)
    with pytest.raises(ValueError):
        ftrl_argmin(b, [1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        ftrl_argmin(b, [np.nan], 1.0)
    with pytest.raises(ValueError):
        ftrl_argmin(b, [1.0], -0.5)


def _numpy_argmin(fset, g, mu):
    """The numpy steps of ftrl_argmin: outcome bytes, or the error message."""
    try:
        g = np.array([g])
        if not np.isfinite(g).all():
            raise ValueError("linear term has non-finite entries")
        if mu < 0:
            raise ValueError("mu must be >= 0")
        with np.errstate(all="ignore"):
            x = minimize_linear(fset, g) if mu == 0.0 else project(fset, fset.center - g / mu)
        return x.tobytes()
    except ValueError as exc:
        return str(exc)


_CENTERS = st.sampled_from([0.0, -0.0, 1.0, -1e-300]) | st.floats(-5.0, 5.0)
_RADII = st.sampled_from([2.0, 5e-324, 1e-300]) | st.floats(1e-3, 5.0)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    center=_CENTERS,
    radius=_RADII,
    g=st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, float("inf"), float("nan")])
    | st.floats(-50.0, 50.0),
    mu=st.sampled_from([0.0, 5e-324, 1e-300, -0.5, float("inf")]) | st.floats(1e-6, 20.0),
)
def test_1d_box_argmin_has_the_numpy_bits_and_errors(center, radius, g, mu):
    """On an interval (a 1-D ball) the argmin of a float linear term (the
    float path) equals project(center - g/mu) and minimize_linear bit for
    bit (signed zeros included), and raises the same errors; so does a
    one-element list, tuple or array, which takes the numpy path."""
    fset = Ball([center], radius)
    want = _numpy_argmin(fset, g, mu)
    for arg in (g, [g], (g,), np.array([g])):
        try:
            with np.errstate(over="ignore"):
                x = ftrl_argmin(fset, arg, mu)
        except ValueError as exc:
            got = str(exc)
        else:
            assert isinstance(x, np.ndarray) and x.shape == (1,) and x.dtype == float
            got = x.tobytes()
        assert got == want


def test_1d_box_argmin_rejects_other_shapes():
    """A float is an interval's own input; other shapes raise."""
    b = Ball([0.0], 1.0)
    for g, shape in (([1.0, 2.0], r"\(2,\)"), ([[1.0]], r"\(1, 1\)"),
                     (np.array([[1.0]]), r"\(1, 1\)")):
        with pytest.raises(ValueError, match=f"linear term has shape {shape}"):
            ftrl_argmin(b, g, 1.0)


def test_float_argmin_on_a_2d_set_raises():
    with pytest.raises(ValueError, match=r"linear term has shape \(\)"):
        ftrl_argmin(Ball([0.0, 0.0], 1.0), 2.0, 1.0)


def test_regret_coefficient_formula():
    b = Ball([0.0], 2.0)
    assert dub_alpha(b) == 16.0  # diameter^2
    # (r_max/alpha + 1)(m*D + sqrt(D^2 + alpha)) with r_max = 2, D = 4
    want = (2.0 / 16.0 + 1.0) * (3 * 4.0 + np.sqrt(16.0 + 16.0))
    assert regret_coefficient(b, 3) == pytest.approx(want)


def test_regularizer_max_value():
    # r_max = 0.5 (D/2)^2 is the regularizer 0.5 ||x - center||^2 at the
    # farthest points of the set: an interval's ends, a disk's boundary
    for fset, far in ((Ball([0.0], 15.0), [15.0]), (Ball([1.0, -1.0], 15.0), [1.0, 14.0])):
        r_max = 0.5 * float(np.sum((np.array(far) - fset.center) ** 2))
        assert r_max == 0.5 * 15.0**2
        assert regret_coefficient(fset, 0) == pytest.approx((r_max / 900.0 + 1.0) * np.sqrt(1800.0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    center=_CENTERS,
    radius=_RADII,
    p=st.sampled_from([0.0, -0.0]) | st.floats(-20.0, 20.0),
    eta=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0),
    g=st.sampled_from([0.0, -0.0]) | st.floats(-20.0, 20.0),
)
def test_1d_ball_takes_the_interval_formulas(center, radius, p, eta, g):
    """A 1-D ball is the interval [c - r, c + r]: `project` and
    `point_step` are np.clip onto it, and `minimize_linear` and
    `ftrl_argmin` at mu = 0 the sign rule (lower end for g > 0, upper end
    for g < 0, the center for g = 0), bit for bit with signed zeros."""
    fset = Ball([center], radius)
    c = np.array([center])
    lo, hi = c - radius, c + radius
    assert (fset.lo.tobytes(), fset.hi.tobytes(), fset.center.tobytes()) == \
        (lo.tobytes(), hi.tobytes(), c.tobytes())
    assert project(fset, [p]).tobytes() == np.clip([p], lo, hi).tobytes()
    step = np.array([p]) - eta * np.array([g])
    got = point_step(fset)((p,), eta, (g,))
    assert np.array(got).tobytes() == np.clip(step, lo, hi).tobytes()
    want = (lo if g > 0 else hi if g < 0 else c).tobytes()
    assert minimize_linear(fset, [g]).tobytes() == want
    for arg in (g, [g]):
        assert ftrl_argmin(fset, arg, 0.0).tobytes() == want
