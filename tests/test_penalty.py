import math

import numpy as np
import pytest

from cocomem.penalty import (
    Penalty,
    PenaltyKind,
    lambda_exponential_short_memory,
    lambda_optimistic,
    lambda_quadratic,
    saturated,
    short_memory_condition,
)


def test_quadratic_values():
    p = Penalty(PenaltyKind.QUADRATIC, 0.5)
    assert p.value(2.0) == pytest.approx(2.0)
    assert p.prime(2.0) == pytest.approx(2.0)
    assert p.value(0.0) == 0.0


def test_exponential_values():
    assert Penalty(PenaltyKind.EXPONENTIAL, 1.0).value(0.0) == 0.0
    assert Penalty(PenaltyKind.EXPONENTIAL, 0.5).value(2.0) == pytest.approx(math.e - 1.0)
    assert Penalty(PenaltyKind.EXPONENTIAL, 1.0).prime(0.0) == pytest.approx(1.0)


def test_prime_matches_finite_differences():
    h = 1e-6
    for p in (Penalty(PenaltyKind.QUADRATIC, 0.7), Penalty(PenaltyKind.EXPONENTIAL, 0.3)):
        for v in (0.5, 1.0, 3.7, 10.0):
            fd = (p.value(v + h) - p.value(v - h)) / (2 * h)
            assert p.prime(v) == pytest.approx(fd, rel=1e-6)


def test_negative_violation_rejected():
    p = Penalty(PenaltyKind.QUADRATIC, 1.0)
    with pytest.raises(ValueError):
        p.value(-0.1)
    with pytest.raises(ValueError):
        p.prime(-0.1)
    with pytest.raises(ValueError):
        Penalty(PenaltyKind.QUADRATIC, 0.0)


def test_exponential_cap_flags_saturation():
    p = Penalty(PenaltyKind.EXPONENTIAL, 1.0)
    assert not saturated(p.kind, p.lam, 10.0)
    assert saturated(p.kind, p.lam, 701.0)
    assert not saturated(PenaltyKind.QUADRATIC, 1.0, 701.0)
    assert saturated(p.kind, np.array([1.0, 0.5]), np.array([701.0, 701.0])).tolist() == [
        True, False]
    assert math.isfinite(p.value(1e6)) and math.isfinite(p.prime(1e6))


def test_convexity_and_monotone_prime():
    rng = np.random.default_rng(0)
    for p in (Penalty(PenaltyKind.QUADRATIC, 0.4), Penalty(PenaltyKind.EXPONENTIAL, 0.2)):
        for _ in range(200):
            v1, v2 = rng.uniform(0, 20, size=2)
            mid = p.value((v1 + v2) / 2)
            assert mid <= (p.value(v1) + p.value(v2)) / 2 + 1e-12
        grid = np.linspace(0, 30, 100)
        primes = [p.prime(v) for v in grid]
        assert all(b >= a - 1e-12 for a, b in zip(primes, primes[1:]))
        assert all(pr >= 0 for pr in primes)


def test_theorem_lambdas():
    assert lambda_quadratic(4) == pytest.approx(0.5)
    # perfect predictions: 1 / (2 * (C sqrt(0) + G(m+1))) with G = 1, m = 1
    assert lambda_optimistic(123.0 * math.sqrt(0.0), 1.0 * 2) == pytest.approx(0.25)
    # 0.5 / (sqrt(2T)|X|Lg + m^1.5 |X| sqrt(T Lf Lg)) at T=2, m=1, |X|=Lf=Lg=1
    assert lambda_exponential_short_memory(2, 1, 1.0, 1.0, 1.0) == pytest.approx(
        0.5 / (2.0 + math.sqrt(2.0))
    )
    with pytest.raises(ValueError):
        lambda_exponential_short_memory(2, 0, 1.0, 1.0, 0.0)


def test_short_memory_condition():
    # T = 4000: T^(1/6)/(log T)^(1/3) is about 1.97, so m <= 1 qualifies
    assert [short_memory_condition(4000, m) for m in range(4)] == [True, True, False, False]

