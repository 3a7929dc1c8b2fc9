"""`SeparableLinearInstance._generate` against the per-round loop it
replaced (`reference_instance`), byte for byte, on natural streams and on
streams built to take each path of its walk over raw PCG64 words; the
numpy generator calls it makes; and pinned digests of instances the tests
elsewhere do not pin."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_instance
from cocomem import SeparableLinearInstance, environments, pcg
from helpers import CountingGenerator, CountingPCG64, instance_digest, python_calls
from reference_instance import ReferenceSeparableInstance

ARRAYS = ("f_coef", "g_coef", "g_off", "g_present")


def _assert_same_bytes(params):
    got, want = SeparableLinearInstance(**params), ReferenceSeparableInstance(**params)
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    return got


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


# -- streams built to take each path of the walk ------------------------------

# d = 1, m = 2 and a hit in every round: the stream's words 0 and 1 are
# the drift direction and the base sign, round 1 takes words 2-5 (loss
# uniforms, density), its hit words 6 (Lemire's integer on the lower
# half, the upper half buffered), 7 (normal) and 8-10 (uniforms), round 2
# words 11-14, its hit the buffered half, then words 15-18.  The walk's
# block starts at word 2.
EVERY_ROUND = {"m": 2, "horizon": 12, "g_round_density": 1.0, "g_active_fraction": 0.5}
BLOCK_START = 2


def _state_with(word: int, at: int) -> dict:
    """A PCG64 state whose output number `at` (from 0) is `word`, built as
    `pcg._derive` builds its probes: the state one step before the state
    (hi = 0, lo = word), whose output is `word`, moved back `at` steps."""
    bits, inc = np.random.PCG64(), 2 * 0x5851F42D4C957F2D + 1
    bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                  "state": {"state": (word - inc) * pow(pcg._MULT, -1, pcg._MOD) % pcg._MOD,
                            "inc": inc}}
    return bits.advance(-at).state


@pytest.fixture
def stream(monkeypatch):
    """Sets the stream both generators draw from, and returns the list of
    (first word, uint32 buffer) of every hit drawn by numpy's generator,
    the word relative to the walk's first block."""
    fallbacks = []

    def rng(state, seed):
        bits = np.random.PCG64()
        bits.state = state
        return np.random.Generator(bits)

    def draw(self, j, uint32, fn, _draw=pcg.RawWords.draw):
        fallbacks.append((j, uint32))
        return _draw(self, j, uint32, fn)

    def use(state):
        for module in (environments, reference_instance):
            monkeypatch.setattr(module, "_instance_rng", functools.partial(rng, state))
        return fallbacks

    monkeypatch.setattr(pcg.RawWords, "draw", draw)
    return use


def test_a_lemire_rejection_is_drawn_by_numpy(stream):
    """Word 6's lower half is 0, which Lemire's method rejects at m = 2
    (threshold (2^32 - 3) mod 3 = 1); numpy's retry reads the buffered
    upper half, which the walk must then not read again."""
    fallbacks = stream(_state_with(0x9E3779B9 << 32, at=6))
    _assert_same_bytes(EVERY_ROUND)
    assert fallbacks[0] == (6 - BLOCK_START, (0, 0))


def test_a_ziggurat_rejection_is_drawn_by_numpy(stream):
    """Word 7, the first hit's normal, is all ones: layer 255 with the
    largest rabs, which the fast path rejects."""
    fallbacks = stream(_state_with((1 << 64) - 1, at=7))
    _assert_same_bytes(EVERY_ROUND)
    assert fallbacks[0] == (6 - BLOCK_START, (0, 0))


def test_a_rejection_on_the_buffered_half_is_drawn_by_numpy(stream):
    """Word 6's upper half is 0, so round 2's integer, which reads it from
    PCG64's buffer, is rejected: numpy's generator starts at word 15 with
    the buffer holding 0, and leaves the next word's upper half buffered
    for round 3."""
    fallbacks = stream(_state_with(0x7F4A7C15, at=6))
    _assert_same_bytes(EVERY_ROUND)
    assert fallbacks[0] == (15 - BLOCK_START, (1, 0))


@pytest.mark.parametrize("params", [
    EVERY_ROUND,
    {"m": 3, "horizon": 60, "dim": 2, "g_round_density": 0.5, "g_active_fraction": 0.5},
    {"m": 0, "horizon": 40, "dim": 3, "g_round_density": 0.7, "constraint_memory": False},
])
def test_a_failed_uniform_probe_draws_every_hit_by_numpy(monkeypatch, stream, params):
    """Where numpy's uniform(a, b) rounds otherwise than a + (b - a) u,
    every hit is drawn by numpy's generator, and the bytes do not move."""
    monkeypatch.setattr(pcg, "uniform_exact", lambda: False)
    fallbacks = stream(environments._instance_rng(5).bit_generator.state)
    hits = _assert_same_bytes(params).g_present.sum()
    assert len(fallbacks) == hits > 0


@pytest.mark.parametrize("params, cap, blocks", [
    ({"m": 1, "horizon": 41, "seed": 23, "g_round_density": 0.5}, None, 2),
    ({"m": 2, "horizon": 400, "dim": 2, "seed": 4, "g_round_density": 0.4}, 40, 80),
    ({"m": 3, "horizon": 300, "dim": 2, "seed": 1, "g_round_density": 0.7}, 16, 200),
])
def test_a_walk_outgrows_its_first_block(monkeypatch, params, cap, blocks):
    """Seed 23 has so many hit rounds that the walk draws a second block,
    after two hits drawn by numpy's generator, which moved it off the
    block's end; the uint32 buffer carries across the blocks.  With
    blocks cut to `cap` words, the walk reads deep into each of many
    blocks, and a hit that numpy draws may end past the next one."""
    sizes = []

    def extend(self, n, _extend=pcg.RawWords.extend):
        sizes.append(n)
        _extend(self, min(n, cap or n))

    monkeypatch.setattr(pcg.RawWords, "extend", extend)
    _assert_same_bytes(params)
    assert len(sizes) >= blocks


# -- generator calls -------------------------------------------------------------


@pytest.mark.parametrize("params", [
    {"m": 2, "horizon": 2000},  # optimistic_perfect
    {"m": 2, "horizon": 2000, "g_round_density": 0.4, "g_mag": (0.05, 0.2)},  # doubling_noisy
])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generation_makes_a_constant_number_of_generator_calls(monkeypatch, params, seed):
    """The drift direction, the base sign and the word blocks are a few
    generator calls; a hit that numpy draws adds its jump and its five
    draws.  The per-round loop made one call per round and five per hit,
    about 3,500 at optimistic_perfect's parameters."""
    params = dict(params, seed=seed)
    want = SeparableLinearInstance(**params)
    monkeypatch.setattr(environments, "_instance_rng", lambda seed: CountingGenerator(
        CountingPCG64(np.random.SeedSequence([int(seed), 0]))))  # the same stream
    got = []
    calls = python_calls(lambda: got.append(SeparableLinearInstance(**params)))
    assert instance_digest(got[0]) == instance_digest(want)
    generator = sum(n for name, n in calls.items() if name.startswith("Counting"))
    fallbacks = calls["RawWords.draw"]
    assert generator <= 5 + 6 * fallbacks
    assert fallbacks < want.g_present.sum() / 10


def test_the_walk_makes_no_call_per_round():
    """Without hit rounds, 2000 rounds make the same Python and built-in
    calls as 200: the walk over the rounds is bytecode alone."""
    counts = []
    for horizon in (200, 2000):
        params = {"m": 2, "horizon": horizon, "seed": 3, "g_round_density": 0.0}
        SeparableLinearInstance(**params)  # the tables and the uniform probe, once per process
        counts.append(python_calls(lambda: SeparableLinearInstance(**params), c_calls=True))
    assert counts[0] == counts[1]
