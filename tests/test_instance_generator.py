"""`SeparableLinearInstance._generate` against the per-round loop it
replaced (`reference_instance`), byte for byte, and pinned digests of
instances the tests elsewhere do not pin."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cocomem import SeparableLinearInstance
from helpers import instance_digest
from reference_instance import ReferenceSeparableInstance

ARRAYS = ("f_coef", "g_coef", "g_off", "g_present")


def _assert_same_bytes(params):
    got, want = SeparableLinearInstance(**params), ReferenceSeparableInstance(**params)
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
scale = st.one_of(st.just(0.0), st.floats(0.0, 3.0))


@st.composite
def instance_params(draw):
    m = draw(st.integers(0, 6))
    horizon = max(m + draw(st.integers(0, 60)), 1)  # T >= 1
    mag_lo = draw(st.floats(0.001, 0.5))
    root_lo = draw(st.floats(0.05, 0.9))
    return {
        "m": m,
        "horizon": horizon,
        "dim": draw(st.integers(1, 3)),
        "radius": draw(st.floats(0.1, 10.0)),
        "seed": draw(st.integers(0, 10**6)),
        "constraint_memory": draw(st.booleans()),
        "drift": draw(scale),
        "noise": draw(scale),
        "blocks": draw(st.integers(1, horizon - m + 5)),
        "g_round_density": draw(unit),
        "g_mag": (mag_lo, mag_lo * draw(st.floats(1.0, 4.0))),
        "g_root": (root_lo, draw(st.floats(root_lo, 0.99))),
        "g_active_fraction": draw(unit),
    }


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(instance_params())
@example({"m": 3, "horizon": 3, "dim": 2, "seed": 1})  # no active rounds
@example({"m": 0, "horizon": 40, "seed": 2, "g_round_density": 0.0})
@example({"m": 4, "horizon": 40, "dim": 3, "seed": 3, "g_round_density": 1.0,
          "g_active_fraction": 0.3})
@example({"m": 2, "horizon": 30, "seed": 4, "blocks": 50, "g_round_density": 1.0,
          "constraint_memory": False})  # blocks > T
@example({"m": 1, "horizon": 30, "dim": 2, "seed": 5, "drift": 0.0, "noise": 0.0,
          "g_round_density": 0.5})
@example({"m": 6, "horizon": 50, "seed": 6, "drift": 0.0, "g_round_density": 0.5,
          "g_active_fraction": 0.0})
def test_generator_matches_the_per_round_loop(params):
    _assert_same_bytes(params)


@pytest.mark.parametrize("params", [
    {"m": 2, "horizon": 2000, "seed": 0},  # optimistic_perfect
    {"m": 2, "horizon": 2000, "seed": 1, "g_round_density": 0.4, "g_mag": (0.05, 0.2)},
])
def test_generator_matches_the_per_round_loop_on_shipped_parameters(params):
    _assert_same_bytes(params)


# `instance_digest`s, recorded with the per-round loop, the d = 3 one since
# its norms and dots add in index order
PINNED_INSTANCES = [
    ({"m": 0, "horizon": 1500, "seed": 11, "g_round_density": 0.3}, "9db9c8cce5228aae"),
    ({"m": 10, "horizon": 800, "seed": 2, "g_round_density": 0.4, "g_active_fraction": 0.5},
     "1d56c2e871d80aa0"),
    ({"m": 2, "horizon": 400, "dim": 3, "seed": 9, "constraint_memory": False,
      "g_mag": (0.05, 0.2), "blocks": 3}, "f414e4131845bd51"),
]


@pytest.mark.parametrize("params, digest", PINNED_INSTANCES)
def test_generated_instance_bytes_are_pinned(params, digest):
    assert instance_digest(SeparableLinearInstance(**params)) == digest
