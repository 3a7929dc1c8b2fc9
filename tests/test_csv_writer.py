"""`harness.emit_csv` against the whole-file writer it replaced
(`reference_csv`), byte for byte; `core.array_json`, the float writer it
shares with the instance JSON, against `repr`; the writer's heap at a
long horizon; and the modules the CLI loads."""

import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_csv
from cocomem import core
from cocomem.core import array_json, round_table
from cocomem.harness import CSV_BLOCK_ROWS, emit_csv
from cocomem.metrics import MetricSeries, RunTrace
from helpers import FLOAT_TRAPS

B = CSV_BLOCK_ROWS
FLOAT_FIELDS = ("f_mem", "g_mem", "g_plus_recorded", "ccv_cum", "eta_or_mu",
                "eps_f", "eps_g", "eps_z")

value = st.one_of(st.sampled_from(FLOAT_TRAPS), st.floats())
# a float64 of any bit pattern: every NaN payload, subnormal and exponent
bit_pattern = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
# short runs, and runs long enough to cross one or two block boundaries
run = st.tuples(value, st.one_of(st.integers(1, 3), st.integers(B - 2, 2 * B + 2)))
runs = st.lists(run, min_size=1, max_size=6)


def _column(draw, n: int) -> np.ndarray:
    """n floats: a drawn list of (value, length) runs, repeated cyclically."""
    drawn = draw(runs)
    return np.resize(np.repeat([v for v, _ in drawn], [k for _, k in drawn]), n)


def _trace(tab: np.ndarray, static: np.ndarray, perround: np.ndarray):
    series = MetricSeries(regret_static_cum=static, regret_perround_cum=perround,
                          ccv_cum=tab["ccv_cum"])
    return RunTrace("penalty_ogd", None, None, tab, None), series


@pytest.mark.parametrize("d", (1, 2))
@pytest.mark.parametrize("n", (0, 1, B - 1, B, B + 1, 3 * B + 7))
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_block_writer_matches_the_whole_file_writer(tmp_path_factory, n, d, data):
    tab = round_table(n, d)
    tab["t"] = np.arange(n) + data.draw(st.integers(-3, 10**6))
    for j in range(d):
        tab["x"][:, j] = _column(data.draw, n)
    for name in FLOAT_FIELDS:
        tab[name] = _column(data.draw, n)
    trace, series = _trace(tab, _column(data.draw, n), _column(data.draw, n))
    out = tmp_path_factory.mktemp("csv")
    emit_csv(trace, series, out / "block.csv")
    reference_csv.emit_csv(trace, series, out / "whole.csv")
    assert (out / "block.csv").read_bytes() == (out / "whole.csv").read_bytes()


def _many_tokens(seed: int) -> list:
    """Hundreds of floats, many of which orjson spells otherwise: values in
    [1e-5, 1e-4) of either sign, fractions such as 1820.00001 that must
    stay, and a few nan and +-inf far apart."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(200, 600))
    kinds = [rng.uniform(1e-5, 1e-4, n) * rng.choice([-1.0, 1.0], n),
             rng.choice([1820.00001, -3.0000192952139, 10.00005, 0.00010000001, 7e-05], n),
             rng.uniform(-1e3, 1e3, n)]
    values = np.choose(rng.integers(0, 3, n), kinds)
    where = rng.choice(n, int(rng.integers(0, 5)), replace=False)
    values[where] = rng.choice([np.nan, np.inf, -np.inf], len(where))
    return values.tolist()


@pytest.mark.parametrize("shape", [(-1,), (-1, 1), (-1, 3, 1)], ids=str)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.one_of(value, bit_pattern), max_size=60)
       | st.integers(0, 2**32 - 1).map(_many_tokens))
def test_array_json_spells_every_float_as_repr(shape, values):
    """Over raw bit patterns and drawn floats, each token of
    `array_json(a, repr)` is `repr` of its float, non-finite ones
    included, and with `json.dumps` as the speller the text is
    `json.dumps` of `a.tolist()`, nesting and all.  Long arrays with many
    tokens to rewrite far apart cover the per-token patches.  An orjson
    that spells a number another way fails here."""
    a = np.array(values[: len(values) // 3 * 3], dtype=float).reshape(shape)
    assert re.findall(r"[^\[\],]+", array_json(a, repr)) == list(map(repr, a.ravel().tolist()))
    assert array_json(a, json.dumps) == json.dumps(a.tolist(), separators=(",", ":"))


@pytest.mark.parametrize("v, patched", [(1e-5, True), (np.nextafter(1e-4, 0.0), True),
                                        (-1e-5, True), (1e-4, False),
                                        (np.nextafter(1e-5, 0.0), False)])
def test_array_json_patches_exactly_the_fixed_point_band(v, patched):
    """orjson writes [1e-5, 1e-4) in fixed point, where `repr` does not:
    those tokens, of either sign, are rewritten, one match each, and 1e-4
    and the value below 1e-5 (orjson writes the one as `repr` does and the
    other with an exponent) are matched by no band pattern."""
    matches, pattern = [], core._FIXED_E5

    class Spy:
        def match(self, text, pos):
            matches.append(pos)
            return pattern.match(text, pos)

    a = np.array([float(v), 1820.00001, 2.5])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_FIXED_E5", Spy())
        text = array_json(a, repr)
    assert text == f"[{float(v)!r},1820.00001,2.5]"
    assert len(matches) == patched


def test_csv_heap_does_not_grow_with_the_horizon(tmp_path):
    """The writer holds one block of rows as text at a time: at T = 40,000
    with every float distinct its tracemalloc peak stays under 2 MB (the
    whole-file writer peaked at about 70 MB on this table)."""
    T = 40_000
    rng = np.random.default_rng(0)
    tab = round_table(T, 1)
    tab["t"] = np.arange(T)
    tab["x"] = rng.random((T, 1))
    for name in FLOAT_FIELDS:
        tab[name] = rng.random(T)
    trace, series = _trace(tab, rng.random(T), rng.random(T))
    tracemalloc.start()
    try:
        emit_csv(trace, series, tmp_path / "long.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    with open(tmp_path / "long.csv") as fh:
        assert sum(1 for _ in fh) == T + 1


def test_cli_import_loads_no_process_pool():
    """The pool is imported only when seeds run in parallel, orjson only
    when a run writes its text, and `cocomem.pcg` only when a noisy
    predictor draws, so `run`, `verify` and `bounds` start without
    multiprocessing or the draw kernel and `verify` and `bounds` without
    orjson."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import cocomem.cli, sys; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process', 'orjson', "
            "'cocomem.pcg'} & sys.modules.keys()))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
