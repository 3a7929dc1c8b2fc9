import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cocomem import (
    AppendixAInstance,
    NoisyPredictor,
    PerfectPredictor,
    SeparableLinearInstance,
    ZeroPredictor,
    pcg,
    run_penalty_ogd,
)
from cocomem.environments import NOISE_BLOCK_ROWS
from helpers import constant_window, instance_digest, python_calls
from reference_instance import oracles


def test_default_parameters_match_reference_experiment():
    inst = AppendixAInstance()
    assert (inst.m, inst.horizon, inst.radius) == (3, 4000, 15.0)
    assert (inst.sigma, inst.delta, inst.gamma) == (10.0, 1.0, 3.0)
    assert inst.coef_bound == 30.0
    assert inst.mode == "stochastic"


def test_constraint_lift_example():
    inst = AppendixAInstance(m=1, horizon=10, seed=0)
    inst.d_coef[5] = 2.0
    _, g = oracles(inst, 5)
    # lift at x = 1: 2*1 - 1 = 1, positive part 1
    assert g.value_splat([1.0]) == pytest.approx(1.0)
    assert max(g.value_splat([1.0]), 0.0) == pytest.approx(1.0)
    assert g.value(constant_window(1.0, 1)) == pytest.approx(1.0)


def test_same_seed_is_bitwise_identical():
    a = AppendixAInstance(m=2, horizon=50, seed=9, mode="adversarial")
    b = AppendixAInstance(m=2, horizon=50, seed=9, mode="adversarial")
    assert np.array_equal(a.c, b.c) and np.array_equal(a.d_coef, b.d_coef)
    c = AppendixAInstance(m=2, horizon=50, seed=10, mode="adversarial")
    assert not np.array_equal(a.c, c.c)


def test_instance_unaffected_by_play():
    inst = AppendixAInstance(m=2, horizon=40, seed=1)
    before = inst.c.copy(), inst.d_coef.copy()
    run_penalty_ogd(inst)
    run_penalty_ogd(inst, lam=0.3)
    assert np.array_equal(inst.c, before[0]) and np.array_equal(inst.d_coef, before[1])


def test_coefficients_within_declared_range():
    st = AppendixAInstance(m=1, horizon=400, seed=3, mode="stochastic")
    assert np.all(np.abs(st.c) <= st.sigma) and np.all(np.abs(st.d_coef) <= st.sigma)
    ad = AppendixAInstance(m=1, horizon=400, seed=3, mode="adversarial")
    assert np.all(np.abs(ad.c) <= ad.coef_bound)
    assert np.all(np.abs(ad.d_coef) <= ad.coef_bound)
    # the Gaussian branch actually exceeds the uniform range sometimes
    assert np.max(np.abs(ad.c)) > ad.sigma


def test_declared_constants_dominate_empirical_probes():
    inst = AppendixAInstance(m=2, horizon=60, seed=5, mode="adversarial")
    k = inst.constants()
    rng = np.random.default_rng(0)
    for t in range(2, 61, 3):
        f, g = oracles(inst, t)
        w = rng.uniform(-15, 15, size=(100, 3, 1))
        for i in range(0, 100, 2):
            w1, w2 = constant_window(w[i, 0], 2), constant_window(w[i + 1, 0], 2)
            assert abs(f.value(w1)) <= k.f_bound + 1e-9
            assert abs(g.value(w1)) <= k.g_bound + 1e-9
            gap = np.linalg.norm(w1 - w2)
            assert abs(f.value(w1) - f.value(w2)) <= k.l_f * gap + 1e-9
            assert abs(g.value(w1) - g.value(w2)) <= k.l_g * gap + 1e-9


def test_appendix_json_round_trip():
    inst = AppendixAInstance(m=2, horizon=30, seed=11, mode="adversarial")
    doc = inst.to_json()
    obj = json.loads(doc)
    assert obj["rng"] == "pcg64" and obj["seed"] == 11
    back = AppendixAInstance.from_json(doc)
    assert np.array_equal(back.c, inst.c) and np.array_equal(back.d_coef, inst.d_coef)


def test_separable_json_round_trip():
    inst = SeparableLinearInstance(m=1, horizon=25, seed=13)
    back = SeparableLinearInstance.from_json(inst.to_json())
    assert np.array_equal(back.f_coef, inst.f_coef)
    assert np.array_equal(back.g_coef, inst.g_coef)
    assert np.array_equal(back.g_off, inst.g_off)
    assert np.array_equal(back.g_present, inst.g_present)


def test_separable_json_round_trip_is_bit_exact_without_generating(monkeypatch):
    inst = SeparableLinearInstance(m=2, horizon=40, dim=2, seed=3, constraint_memory=False,
                                   g_round_density=0.6, g_mag=(0.05, 0.2))

    def no_generation(self):
        raise AssertionError("from_json generated the instance")

    monkeypatch.setattr(SeparableLinearInstance, "_generate", no_generation)
    back = SeparableLinearInstance.from_json(inst.to_json())
    for name in ("f_coef", "g_coef", "g_off", "g_present"):
        a, b = getattr(inst, name), getattr(back, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert back.to_json() == inst.to_json()


# `instance_digest`s, recorded with one uniform draw per (round, delay) loss
# slice (one draw per round must give the same doubles), the d = 2 one since
# its norms and dots add in index order
PINNED_INSTANCES = [
    ({"m": 2, "horizon": 2000, "seed": 0}, "af262d0b4f36f15f"),
    ({"m": 3, "horizon": 300, "dim": 2, "seed": 5, "g_round_density": 0.4,
      "g_mag": (0.05, 0.2)}, "fc33e3bf03d9e4c3"),
    ({"m": 1, "horizon": 500, "seed": 7, "constraint_memory": False,
      "g_active_fraction": 0.5}, "7d87f21a336aaed7"),
]


@pytest.mark.parametrize("params, digest", PINNED_INSTANCES)
def test_separable_instance_bytes_are_pinned(params, digest):
    assert instance_digest(SeparableLinearInstance(**params)) == digest


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from([AppendixAInstance, SeparableLinearInstance]),
       d=st.integers(1, 2), m=st.integers(0, 4), extra=st.integers(0, 12))
def test_window_reads_the_center_before_the_first_round(family, d, m, extra):
    """`by_round` row r is round r's decision from `first_round` on and the
    set center before it, and slot i of row k of `slots` is decision
    k - m + i of the column, the center where that index is negative.
    Horizons from m up include runs with fewer rounds than m, and none."""
    inst = family(m=m, horizon=max(m + extra, 1), dim=d, seed=extra)
    first, center = inst.first_round, inst.fset.center
    X = np.random.default_rng(extra).uniform(1.0, 2.0, size=(inst.horizon + 1 - first, d))
    rows = inst.by_round(X)
    assert rows.shape == (inst.horizon + 1, d)
    for r, row in enumerate(rows):
        assert np.array_equal(row, X[r - first] if r >= first else center)
    slots = inst.slots(X)
    assert len(slots) == m + 1
    for i, w in enumerate(slots):
        assert w.shape == X.shape
        for k, row in enumerate(w):
            assert np.array_equal(row, X[k - m + i] if k - m + i >= 0 else center)


@pytest.mark.parametrize("constraint_memory", [True, False])
@pytest.mark.parametrize("family", [AppendixAInstance, SeparableLinearInstance],
                         ids=lambda c: c.kind)
def test_constraint_memory_sets_g_mem_and_the_dual_delay(family, constraint_memory):
    """An instance's `constraint_memory` decides what `fill_values`
    records as the constraint and the instance's dual delay: without
    memory g_mem is the lift g_splat, bit for bit, and the delay is 1; with
    memory g_mem is the window value, and the delay is m + 1."""
    inst = family(m=2, horizon=80, seed=4, constraint_memory=constraint_memory)
    assert inst.dual_delay == (inst.m + 1 if constraint_memory else 1)
    tr = run_penalty_ogd(inst, lam=0.5)
    g_mem, g_splat = tr.col("g_mem"), tr.col("g_splat")
    assert (g_mem.tobytes() == g_splat.tobytes()) is not constraint_memory
    if constraint_memory:  # the window value, slot by slot
        window = inst.slots(tr.col("x"))
        for k, t in enumerate(inst.rounds):
            value = oracles(inst, t)[1].value(np.stack([w[k] for w in window]))
            assert g_mem[k] == pytest.approx(value, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("predictor", [
    PerfectPredictor,
    ZeroPredictor,
    pytest.param(lambda: NoisyPredictor(0.3, seed=1), marks=pytest.mark.xfail(
        strict=True, reason="the noisy predictor perturbs absent pairs too; the fix changes "
        "doubling_noisy's outputs, so it waits for the noisy stream's re-record (ROADMAP item 2)")),
], ids=["perfect", "zero", "noisy"])
def test_separable_zero_outside_active_rounds(predictor):
    inst = SeparableLinearInstance(m=2, horizon=30, seed=0)
    # rounds <= m carry no slices
    assert not np.any(inst.f_coef[:3]) and not np.any(inst.g_present[:3])
    assert np.any(inst.f_coef[3, 0])
    p = predictor()
    p.bind(inst)
    for t in (0, 29, 31):
        for (r, i), (f, g, g_off) in zip(_triangle(t, inst.m), p.forecasts(t)):
            if not inst.m < r <= inst.horizon:  # absent slices forecast +0.0
                assert [f, g, g_off] == [0.0] * 3
                assert math.copysign(1.0, f) == math.copysign(1.0, g) == 1.0


def test_separable_m0_collapses_to_single_slice():
    inst = SeparableLinearInstance(m=0, horizon=30, seed=1)
    t = 5
    f, _ = oracles(inst, t)
    assert f.memory == 0
    assert np.allclose(f.grad_splat([0.3]), inst.f_coef[t, 0])


def test_separable_center_feasible_for_every_slice():
    inst = SeparableLinearInstance(m=2, horizon=300, seed=4)
    present = inst.g_present
    assert np.any(present)
    assert np.all(inst.g_coef[present] @ inst.fset.center + inst.g_off[present] <= 0.0)


def test_separable_constraint_bound_matches_sampling():
    inst = SeparableLinearInstance(m=2, horizon=200, seed=7)
    k = inst.constants()
    pts = np.linspace(-inst.radius, inst.radius, 10001)[:, None]
    present = inst.g_present
    worst = float(np.max(np.abs(pts @ inst.g_coef[present].T + inst.g_off[present])))
    assert worst <= k.g_bound + 1e-9
    assert worst >= 0.95 * k.g_bound  # the declared bound is near-tight


def _triangle(t: int, m: int) -> list[tuple[int, int]]:
    """The slice pairs (r, i) of query round t in `forecasts(t)` order:
    (t + j, i) at index i (i + 1) / 2 + j."""
    return [(t + j, i) for i in range(m + 1) for j in range(i + 1)]


@pytest.mark.parametrize("d", [1, 2])
def test_predictors_basic_contracts(d):
    inst = SeparableLinearInstance(m=1, horizon=40, dim=d, seed=2, g_round_density=0.6)
    x = np.full(d, 0.5)
    perfect, zero = PerfectPredictor(), ZeroPredictor()
    noiseless = NoisyPredictor(0.0, seed=3)
    for p in (perfect, zero, noiseless):
        p.bind(inst)
    n_present = 0
    for t in range(4, 19):  # every pair here lies in rounds (m, horizon]
        got = [p.forecasts(t) for p in (perfect, zero, noiseless)]
        assert all(len(fc) == 3 for fc in got)
        for (r, i), pf, zf, nf in zip(_triangle(t, inst.m), *got):
            # floats at d = 1, (d,) rows at d >= 2
            assert all(type(v) is (float if d == 1 else np.ndarray) for v in pf[:2] + zf[:2])
            assert type(pf[2]) is type(zf[2]) is float
            f, pc, po = (np.array(v, ndmin=1) for v in pf)
            assert np.array_equal(f, inst.f_coef[r, i])
            assert all(np.array_equal(a, b) for a, b in zip(pf, nf))  # scale 0 is perfect
            assert all(np.array_equal(np.array(v, ndmin=1), np.zeros(d)) for v in zf[:2])
            assert zf[2] == 0.0
            present, g_coef, g_off = inst.g_present[r, i], inst.g_coef[r, i], inst.g_off[r, i]
            n_present += present
            if not present:
                # an absent slice forecasts (zeros, 0.0): never active
                assert np.array_equal(pc, np.zeros(d)) and po == 0.0
            else:
                assert np.array_equal(pc, g_coef) and po == g_off
            # activity is judged from the affine forecast
            assert (float(pc @ x) + po > 0.0) == (present and float(g_coef @ x) + g_off > 0.0)
    assert n_present > 0


def test_noisy_predictor_is_deterministic_per_round():
    inst = SeparableLinearInstance(m=2, horizon=40, seed=2)
    p = NoisyPredictor(0.4, seed=5)
    p.bind(inst)
    # pair (9, 2) is (7 + 2, 2) of round 7, index 5, and (8 + 1, 2) of round 8, index 4
    a = p.forecasts(7)
    assert p.forecasts(7) == a  # frozen within the round
    assert p.forecasts(8)[4] != a[5]  # fresh across rounds
    q = NoisyPredictor(0.4, seed=5)
    q.bind(inst)
    assert q.forecasts(7) == a  # reproducible


def test_noisy_predictor_stream_contract():
    """Pair (r, i) queried in round t draws z ~ N(0, I_{d+1}) once from the
    generator seeded by [seed, 7, t, r, i]; the loss forecast perturbs the
    coefficient by scale * z[:d], the constraint forecast its coefficient
    by the same scale * z[:d] and its offset by scale * z[d]."""
    inst = SeparableLinearInstance(m=2, horizon=40, dim=2, seed=4,
                                   g_round_density=0.6, g_mag=(0.05, 0.2))
    scale, seed, d = 0.3, 11, inst.dim
    p = NoisyPredictor(scale, seed=seed)
    p.bind(inst)
    for t in (5, 6):
        for (r, i), (f, coeff, offset) in zip(_triangle(t, inst.m), p.forecasts(t)):
            ss = np.random.SeedSequence([seed, 7, t, r, i])
            z = np.random.Generator(np.random.PCG64(ss)).normal(size=d + 1)
            # rounds t..t+2 lie in (m, horizon]; absent constraint rows are 0
            f_true, g_true, g_off = inst.f_coef[r, i], inst.g_coef[r, i], inst.g_off[r, i]
            assert np.array_equal(f, f_true + scale * z[:d])
            assert np.array_equal(coeff, g_true + scale * z[:d])
            assert offset == g_off + scale * z[d]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 2**32, 2**40 + 5, 2**64 - 1])
def test_noisy_stream_is_the_list_seeded_stream(seed, d):
    """The predictor seeds from a uint32 array; the draws are those of the
    list form SeedSequence([seed, 7, t, r, i]), multi-word seeds included,
    and the forecasts are floats at d = 1 and (d,) float rows at d >= 2."""
    inst = SeparableLinearInstance(m=2, horizon=30, dim=d, seed=1,
                                   g_round_density=0.6, g_mag=(0.05, 0.2))
    scale = 0.3
    p = NoisyPredictor(scale, seed=seed)
    p.bind(inst)
    vector = float if d == 1 else np.ndarray
    for t in (4, 29, 31):
        for (r, i), (f, coeff, offset) in zip(_triangle(t, inst.m), p.forecasts(t)):
            ss = np.random.SeedSequence([seed, 7, t, r, i])
            z = np.random.Generator(np.random.PCG64(ss)).normal(size=d + 1)
            live = r <= inst.horizon
            f_true = inst.f_coef[r, i] if live else np.zeros(d)
            present = live and inst.g_present[r, i]
            g_true = inst.g_coef[r, i] if present else np.zeros(d)
            g_off = float(inst.g_off[r, i]) if present else 0.0
            assert type(f) is vector and type(coeff) is vector and type(offset) is float
            assert np.array(f, ndmin=1).tobytes() == (f_true + scale * z[:d]).tobytes()
            assert np.array(coeff, ndmin=1).tobytes() == (g_true + scale * z[:d]).tobytes()
            assert offset == g_off + scale * z[d]


def test_noisy_predictor_rejects_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        NoisyPredictor(0.3, -1)


@pytest.mark.parametrize("scale", [-1.0, math.nan, math.inf, "abc"])
def test_noisy_predictor_rejects_a_bad_scale(scale):
    # a non-number fails the type table (TypeError), a negative number the
    # range check (ValueError)
    with pytest.raises((TypeError, ValueError)):
        NoisyPredictor(scale)


_WORD = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(5, 7).flatmap(
    lambda n: st.lists(st.lists(_WORD, min_size=n, max_size=n), min_size=1, max_size=6)))
@example([[0] * 5])
@example([[2**32 - 1] * 7, [0] * 7])
def test_seed_words_are_the_seed_sequence_words(rows):
    """The batched hash gives, row by row, the uint64 state words of
    SeedSequence(row) that PCG64 seeds from."""
    got = pcg.seed_sequence_words(np.array(rows, dtype=np.uint32))
    want = [np.random.SeedSequence(row).generate_state(4, np.uint64) for row in rows]
    assert got.dtype == np.uint64 and got.shape == (len(rows), 4)
    assert np.array_equal(got, np.array(want))


@pytest.mark.parametrize("entropy", [np.zeros((3, 4), np.uint32), np.zeros((3, 5), np.int64),
                                     np.zeros(5, np.uint32)], ids=["short_rows", "int64", "1d"])
def test_seed_words_reject_other_entropy(entropy):
    with pytest.raises(ValueError, match="uint32 entropy"):
        pcg.seed_sequence_words(entropy)


def _numpy_rows(words, k):
    return np.array([np.random.Generator(np.random.PCG64(pcg.Words(row))).normal(size=k)
                     for row in words])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_normal_rows_are_numpy_draws(k):
    """Row j of `normal_rows` is Generator(PCG64(words[j])).normal(size=k)
    bit for bit, over 20,000 rows of SeedSequence words; among them are
    rows whose ziggurat rejects a draw in the base layer (idx 0), in the
    layer that never returns on its first word (idx 1), in any other
    layer, and only in the last column."""
    entropy = np.random.default_rng(100 + k).integers(0, 2**32, (20_000, 5), dtype=np.uint32)
    words = pcg.seed_sequence_words(entropy)
    got, want = pcg.normal_rows(words, k), _numpy_rows(words, k)
    assert got.shape == (len(words), k)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    r = pcg._outputs(words, k)
    _, accepted = pcg._ziggurat_rows(r, *pcg._tables())
    layer = r & np.uint64(0xFF)
    for kind in (layer == 0, layer == 1, layer > 1):
        assert (kind & ~accepted).any()
    assert (accepted[:, :-1].all(axis=1) & ~accepted[:, -1]).any()
    for j in np.flatnonzero(~accepted.all(axis=1))[:4]:  # one-row blocks, words kept as given
        row = words[j : j + 1].copy()
        assert pcg.normal_rows(row, k).tobytes() == want[j].tobytes()
        assert np.array_equal(row, words[j : j + 1])


def _numpy_first_draw(u: int) -> tuple[float, bool]:
    """(numpy's normal(), whether it took one 64-bit word) when its PCG64's
    next output is u: the state before the step to (hi = 0, lo = u), whose
    XSL-RR output is u."""
    mult, mod, inc = 0x2360ED051FC65DA44385DF649FCCF645, 1 << 128, 2**64 + 1
    bits = np.random.PCG64(pcg.Words(np.zeros(4, np.uint64)))
    bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                  "state": {"state": (u - inc) * pow(mult, -1, mod) % mod, "inc": inc}}
    x = np.random.Generator(bits).normal()
    return x, bits.state["state"]["state"] == u


def test_derived_ziggurat_tables_match_numpy():
    """On every layer and sign, the kernel's value of a word is numpy's
    draw wherever numpy returns on that word (rabs = 0 gives +0.0 of
    either sign; rabs = 1 returns wi on every layer, through the slow
    path on layer 1), and each threshold is at most numpy's exact one,
    found by binary search on a few layers: every word the kernel keeps,
    numpy returns on.  numpy's layer 1 never returns on its first word."""
    wi, ki = pcg._tables()
    rabs = np.random.default_rng(7).integers(2, 2**52, 256).tolist()
    for idx in range(256):
        for a in (0, 1, rabs[idx]):
            for sign in (0, 1):
                u = a << 9 | sign << 8 | idx
                x, first = _numpy_first_draw(u)
                got, kept = pcg._ziggurat_rows(np.array([u], np.uint64), wi, ki)
                if first or a <= 1:
                    assert np.float64(x).tobytes() == got.tobytes(), (idx, a, sign)
                assert first or not kept[0], (idx, a, sign)
    for idx in (0, 1, 2, 128, 255):
        lo, hi = 0, 1 << 52  # numpy returns on its first word for every rabs < lo
        while lo < hi:
            mid = (lo + hi) // 2
            if _numpy_first_draw(mid << 9 | idx)[1]:
                lo = mid + 1
            else:
                hi = mid
        assert ki[idx] <= lo, idx
        assert ki[idx] >= lo * (1 - 2.0**-28), idx  # nearly all of numpy's fast path


def test_wrong_tables_still_give_numpy_draws(monkeypatch):
    """Tables that miss numpy's draws on the fixed check rows are
    dropped to thresholds of 0: every row takes numpy's own path."""
    derive = pcg._derive

    def off_by_an_ulp():
        wi, ki = derive()
        return np.nextafter(wi, np.inf), ki

    monkeypatch.setattr(pcg, "_derive", off_by_an_ulp)
    pcg._tables.cache_clear()
    try:
        words = pcg.seed_sequence_words(
            np.random.default_rng(3).integers(0, 2**32, (500, 6), dtype=np.uint32))
        assert not pcg._tables()[1].any()
        got = pcg.normal_rows(words, 3)
        assert np.array_equal(got.view(np.uint64), _numpy_rows(words, 3).view(np.uint64))
    finally:
        pcg._tables.cache_clear()


@pytest.mark.parametrize("m", [0, 2, 10])
def test_noisy_draws_are_the_contract_draws_across_blocks(m, monkeypatch):
    """Each forecast is the true row plus the SeedSequence([seed, 7, t, r, i])
    draw, with no SeedSequence built, for the pairs (t + j, i), 0 <= j <= i
    <= m: on both sides of a block boundary, for a round asked twice, a
    round before the current block and the last query round, the
    horizon."""
    per_block = NOISE_BLOCK_ROWS // ((m + 1) * (m + 2) // 2)
    inst = SeparableLinearInstance(m=m, horizon=m + per_block + 20, dim=2, seed=2,
                                   g_round_density=0.6, g_mag=(0.05, 0.2))
    seed, scale, d = 2**33 + 9, 0.25, inst.dim
    first, last = inst.first_round, inst.horizon
    rounds = [first, first + 1, first + per_block - 1, first + per_block, first + per_block,
              first + 2, last]
    want = {}
    for t in rounds:
        for r, i in _triangle(t, m):
            ss = np.random.SeedSequence([seed, 7, t, r, i])
            z = np.random.Generator(np.random.PCG64(ss)).normal(size=d + 1)
            live = inst.m < r <= inst.horizon
            present = live and inst.g_present[r, i]
            f = (inst.f_coef[r, i] if live else np.zeros(d)) + scale * z[:d]
            g = (inst.g_coef[r, i] if present else np.zeros(d)) + scale * z[:d]
            off = (float(inst.g_off[r, i]) if present else 0.0) + scale * z[d]
            want[t, r, i] = (f.tolist(), g.tolist(), off)

    def no_seed_sequence(*args, **kwargs):
        raise AssertionError("a SeedSequence was built")

    monkeypatch.setattr(np.random, "SeedSequence", no_seed_sequence)
    p = NoisyPredictor(scale, seed=seed)
    p.bind(inst)
    for t in rounds:
        for (r, i), (f, g, off) in zip(_triangle(t, m), p.forecasts(t)):
            assert (f.tolist(), g.tolist(), off) == want[t, r, i], (t, r, i)


def test_noisy_draws_up_to_the_last_uint32_round():
    """The rounds next to the 2^32 - 1 limit still draw the
    SeedSequence([seed, 7, t, r, i]) draws; a round whose pairs pass it
    raises."""
    inst = SeparableLinearInstance(m=2, horizon=40, seed=1)
    p = NoisyPredictor(0.5, seed=3)
    p.bind(inst)
    for t in (2**32 - 5, 2**32 - 3):
        for (r, i), (f, _, _) in zip(_triangle(t, inst.m), p.forecasts(t)):
            ss = np.random.SeedSequence([3, 7, t, r, i])
            z = np.random.Generator(np.random.PCG64(ss)).normal(size=2)
            assert f == 0.5 * z[0], (t, r, i)
    with pytest.raises(OverflowError):
        p.forecasts(2**32 - 2)


def _noisy_predictor_heap(horizon: int) -> int:
    """tracemalloc peak of a noisy predictor answering the learner's
    queries of every round up to the last, the horizon, at m = 2."""
    inst = SeparableLinearInstance(m=2, horizon=horizon, seed=0)
    p = NoisyPredictor(0.3, seed=4)
    p.bind(inst)
    tracemalloc.start()
    try:
        for t in range(inst.first_round, horizon + 1):
            p.forecasts(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_noisy_predictor_state_does_not_grow_with_the_horizon():
    """The predictor holds one block of rounds' forecasts and draws: its
    heap peak at T = 4000 (twelve blocks of 341 rounds at m = 2) is that
    of T = 500 (two blocks), within 16 KB.  Interpreter and numpy
    internals move the peak by a few KB (7 KB on a first run in a fresh
    process, hence the warm-up run); one float kept per round would add
    about 112 KB."""
    _noisy_predictor_heap(500)
    assert _noisy_predictor_heap(4000) <= _noisy_predictor_heap(500) + 16 * 1024


@pytest.mark.parametrize("predictor", [PerfectPredictor(), NoisyPredictor(0.3, seed=1)])
def test_a_block_gathers_its_true_slices_once(predictor):
    """Both hooks of a block share one gather of the instance's slices
    (`_true_rows`), which the predictor drops once the block is made."""
    inst = SeparableLinearInstance(m=2, horizon=2000, seed=0)
    predictor.bind(inst)
    rounds = inst.rounds  # six blocks of 341 rounds
    calls = python_calls(lambda: [predictor.forecasts(t) for t in rounds])
    assert calls["Predictor._true_rows"] == calls["Predictor._fill"] == 6
    assert predictor._rows_held == (range(0), None)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        AppendixAInstance(m=5, horizon=3)
    with pytest.raises(ValueError):
        AppendixAInstance(sigma=-1.0)
    with pytest.raises(ValueError):
        AppendixAInstance(mode="chaotic")
    with pytest.raises(ValueError):
        SeparableLinearInstance(radius=0.0)
