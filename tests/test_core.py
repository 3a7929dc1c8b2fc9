import numpy as np
import pytest

from cocomem import AppendixAInstance, SeparableLinearInstance
from cocomem.core import Ball

from helpers import constant_window


def test_splat_matches_lift_on_instance_oracles():
    inst = AppendixAInstance(m=2, horizon=20, seed=3)
    rng = np.random.default_rng(0)
    for t in (2, 7, 19):
        f, g = inst.loss(t), inst.constraint(t)
        for _ in range(5):
            x = rng.uniform(-15, 15, size=1)
            assert f.value(constant_window(x, 2)) == pytest.approx(f.value_splat(x), rel=1e-12)
            assert g.value(constant_window(x, 2)) == pytest.approx(g.value_splat(x), rel=1e-12)


def _ball_windows(rng, n: int, m: int, fset) -> np.ndarray:
    """n windows of m + 1 decisions in the ball, the first half of them
    on its boundary."""
    u = rng.normal(size=(n, m + 1, fset.dim))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    r = rng.uniform(0.0, 1.0, size=(n, m + 1, 1))
    r[: n // 2] = 1.0
    return fset.center + fset.radius * r * u


def test_instance_oracles_respect_declared_bounds():
    """Every round's oracles obey the instance's `constants()`, which the
    gradient-bound, memory-deviation and forward-chain checks and the
    lambda tunings read: on the feasible set |f| <= f_bound, and f's
    window Lipschitz constant and lift gradient norm are at most l_f;
    the same for g with g_bound and l_g."""
    instances = [AppendixAInstance(m=3, horizon=60, seed=7),
                 AppendixAInstance(m=2, horizon=40, seed=3, dim=2, mode="adversarial"),
                 SeparableLinearInstance(m=2, horizon=60, seed=7),
                 SeparableLinearInstance(m=3, horizon=40, seed=3, dim=2)]
    rng = np.random.default_rng(11)
    for inst in instances:
        k = inst.constants()
        for t in inst.rounds:
            for oracle, bound, lip in ((inst.loss(t), k.f_bound, k.l_f),
                                       (inst.constraint(t), k.g_bound, k.l_g)):
                w1 = _ball_windows(rng, 20, inst.m, inst.fset)
                w2 = _ball_windows(rng, 20, inst.m, inst.fset)
                for a, b in zip(w1, w2):
                    v1, v2 = oracle.value(a), oracle.value(b)
                    assert abs(v1) <= bound * (1 + 1e-12)
                    assert abs(v1 - v2) <= lip * np.linalg.norm(a - b) * (1 + 1e-12)
                    assert np.linalg.norm(oracle.grad_splat(a[-1])) <= lip * (1 + 1e-12)


def test_grad_splat_matches_finite_differences():
    inst = AppendixAInstance(m=2, horizon=30, seed=5)
    rng = np.random.default_rng(2)
    h = 1e-5
    for t in (2, 11, 29):
        for oracle in (inst.loss(t), inst.constraint(t)):
            for _ in range(17):
                x = rng.uniform(-14, 14)
                fd = (oracle.value_splat([x + h]) - oracle.value_splat([x - h])) / (2 * h)
                grad = oracle.grad_splat([x])[0]
                assert grad == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_feasible_set_diameters():
    b = Ball([0.0], 15.0)
    assert b.diameter == pytest.approx(30.0)
    s = Ball([0.0, 0.0], 15.0)
    assert s.diameter == pytest.approx(30.0)
    assert s.contains([0.0, 15.0]) and not s.contains([0.0, 15.1])
    with pytest.raises(ValueError):
        Ball([0.0], 0.0)


def test_support_function():
    s = Ball([1.0], 2.0)
    assert s.support(np.array([2.0])) == pytest.approx(2.0 + 4.0)
    s = Ball([1.0, -1.0], 2.0)
    assert s.support(np.array([3.0, 4.0])) == pytest.approx(3.0 - 4.0 + 2.0 * 5.0)
