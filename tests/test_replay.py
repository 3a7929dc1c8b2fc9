"""The instance-replay JSON: both families' signatures, their round trip
through `to_json` / `from_json` without generating, the pinned bytes
of the shipped configs' seed-0 documents, `to_json` against the list
writer it replaced (`reference_instance.to_json`) and its heap."""

import hashlib
import inspect
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_instance
from cocomem import AppendixAInstance, SeparableLinearInstance
from cocomem.harness import build_instance, load_config
from helpers import FLOAT_TRAPS

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# every public constructor parameter with its default, in order: a config's
# `environment` binds against these
SIGNATURES = {
    AppendixAInstance: [
        ("m", 3), ("horizon", 4000), ("radius", 15.0), ("sigma", 10.0), ("delta", 1.0),
        ("gamma", 3.0), ("mode", "stochastic"), ("seed", 0), ("dim", 1),
    ],
    SeparableLinearInstance: [
        ("m", 2), ("horizon", 2000), ("radius", 2.0), ("dim", 1), ("seed", 0),
        ("constraint_memory", True), ("drift", 0.5), ("noise", 0.5), ("blocks", 8),
        ("g_round_density", 0.15), ("g_mag", (0.01, 0.03)), ("g_root", (0.4, 0.9)),
        ("g_active_fraction", 1.0),
    ],
}


@pytest.mark.parametrize("family", list(SIGNATURES), ids=lambda c: c.kind)
def test_family_signature_is_pinned(family):
    params = inspect.signature(family).parameters.values()
    assert [(p.name, p.default) for p in params if not p.name.startswith("_")] == SIGNATURES[family]


# sha256 of the seed-0 instance JSON that `cocomem run` writes for each
# shipped config
PINNED_INSTANCE_JSON = {
    "reference_stochastic": "c189efe26644d3d1a533f50b3936189524d800260d8e2abf37d20aaffe5eb4b9",
    "reference_adversarial": "1ab09a709a86a38362d00c7e6846f0b3e7aa81c6956e657a99bbae429fc3f2a6",
    "optimistic_perfect": "ea99eea51ebb8250fa2b71ab4b736f5340b40d5e9dd37f952a5ffb98101dcb8f",
    "doubling_noisy": "e10da15c5bfce05c7bff5b1d543d7403e6ec643446feb9ac713e141e303d17f8",
}


@pytest.mark.parametrize("name, digest", PINNED_INSTANCE_JSON.items())
def test_shipped_instance_json_is_pinned(name, digest):
    doc = build_instance(load_config(CONFIG_DIR / f"{name}.json"), 0).to_json()
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def test_reader_rejects_the_other_family():
    with pytest.raises(ValueError, match="not a separable_linear document"):
        SeparableLinearInstance.from_json(AppendixAInstance(m=1, horizon=3).to_json())


@st.composite
def appendix_params(draw):
    m = draw(st.integers(0, 4))
    return AppendixAInstance, {
        "m": m,
        "horizon": max(m + draw(st.integers(0, 30)), 1),  # T >= 1
        "radius": draw(st.floats(0.1, 20.0)),
        "sigma": draw(st.floats(0.1, 20.0)),
        "delta": draw(st.floats(0.1, 5.0)),
        "gamma": draw(st.floats(0.5, 4.0)),
        "mode": draw(st.sampled_from(["stochastic", "adversarial"])),
        "seed": draw(st.integers(0, 10**6)),
        "dim": draw(st.integers(1, 2)),
    }


@st.composite
def separable_params(draw):
    m = draw(st.integers(0, 4))
    horizon = max(m + draw(st.integers(0, 30)), 1)  # T >= 1
    mag_lo = draw(st.floats(0.001, 0.5))
    root_lo = draw(st.floats(0.05, 0.9))
    # a config's ranges arrive as JSON lists, the defaults are tuples
    as_range = draw(st.sampled_from([tuple, list]))
    return SeparableLinearInstance, {
        "m": m,
        "horizon": horizon,
        "radius": draw(st.floats(0.1, 10.0)),
        "dim": draw(st.integers(1, 2)),
        "seed": draw(st.integers(0, 10**6)),
        "constraint_memory": draw(st.booleans()),
        "drift": draw(st.floats(0.0, 3.0)),
        "noise": draw(st.floats(0.0, 3.0)),
        "blocks": draw(st.integers(1, horizon - m + 5)),
        "g_round_density": draw(st.floats(0.0, 1.0)),
        "g_mag": as_range((mag_lo, mag_lo * draw(st.floats(1.0, 4.0)))),
        "g_root": as_range((root_lo, draw(st.floats(root_lo, 0.99)))),
        "g_active_fraction": draw(st.floats(0.0, 1.0)),
    }


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(appendix_params(), separable_params()))
def test_json_round_trip_is_exact_and_never_generates(case):
    family, params = case
    inst = family(**params)
    doc = inst.to_json()

    def no_generation(self):
        raise AssertionError("from_json generated the instance")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(family, "_generate", no_generation)
        back = family.from_json(doc)
    assert back.to_json() == doc
    for name in family._ARRAYS:
        a, b = getattr(inst, name), getattr(back, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=st.one_of(appendix_params(), separable_params()), data=st.data())
def test_to_json_matches_the_list_writer(case, data):
    """`to_json` writes the bytes of the writer it replaced, on arrays of
    the family's shapes adopted through `_arrays` and filled with any
    floats (signed zero, NaN, infinities, the [1e-5, 1e-4) band) or
    drawn bools."""
    family, params = case
    generated, arrays = family(**params), []
    for name, dtype in family._ARRAYS.items():
        shape = getattr(generated, name).shape
        elements = st.booleans() if dtype is bool else st.one_of(
            st.sampled_from(FLOAT_TRAPS), st.floats())
        drawn = data.draw(st.lists(elements, min_size=1, max_size=40))
        arrays.append(np.resize(np.array(drawn, dtype=dtype), shape))
    inst = family(**params, _arrays=arrays)
    assert inst.to_json() == reference_instance.to_json(inst)


@pytest.mark.parametrize("family, params", [
    (AppendixAInstance, {"m": 3, "horizon": 40_000, "radius": 15.0, "sigma": 10.0,
                         "delta": 1.0, "gamma": 3.0, "mode": "stochastic"}),
    (SeparableLinearInstance, {"m": 2, "horizon": 20_000, "g_round_density": 0.4,
                               "g_mag": (0.05, 0.2)}),
], ids=["appendix_a", "separable_linear"])
def test_to_json_heap_is_a_small_multiple_of_its_text(family, params):
    """`to_json` turns no array into Python lists: its tracemalloc peak,
    the returned text included, stays within 3x the text (the list
    writer peaked at 6.8x on this Appendix A instance, 8.4x on this
    separable one)."""
    inst = family(**params)
    inst.to_json()  # orjson's first import is not the writer's heap
    tracemalloc.start()
    try:
        text = inst.to_json()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * len(text)
