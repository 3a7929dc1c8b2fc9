import numpy as np
import pytest

from cocomem import AppendixAInstance
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


def test_instance_oracles_respect_declared_bounds():
    inst = AppendixAInstance(m=3, horizon=60, seed=7)
    rng = np.random.default_rng(11)
    for t in range(3, 61, 7):
        for oracle in (inst.loss(t), inst.constraint(t)):
            for _ in range(50):
                w1 = rng.uniform(-15, 15, size=(4, 1))
                w2 = rng.uniform(-15, 15, size=(4, 1))
                v1, v2 = oracle.value(w1), oracle.value(w2)
                assert abs(v1) <= oracle.bound + 1e-9
                gap = np.linalg.norm(w1 - w2)
                assert abs(v1 - v2) <= oracle.lipschitz * gap + 1e-9


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
