"""The CSV writer that `harness.emit_csv` replaced: the reference the
block writer is held to, byte for byte.

It builds the whole file as one string, calls `repr` on every float of
every row and reads the last column from `series.ccv_cum`; it is kept
here unchanged."""

from __future__ import annotations

from pathlib import Path

from cocomem.harness import CSV_HEADER
from cocomem.metrics import MetricSeries, RunTrace


def emit_csv(trace: RunTrace, series: MetricSeries, path: str | Path) -> None:
    """One row per round under the fixed header; floats in shortest
    round-trip decimal, coordinates semicolon-joined.  `V_t` is the
    trace's cumulative violation `ccv_cum`."""
    floats = [trace.col(name) for name in ("f_mem", "g_mem", "g_plus_recorded", "ccv_cum",
                                           "eta_or_mu", "eps_f", "eps_g", "eps_z")]
    floats += [series.regret_static_cum, series.regret_perround_cum, series.ccv_cum]
    columns = [[str(t) for t in trace.col("t").tolist()],
               [";".join(map(repr, x)) for x in trace.col("x").tolist()]]
    columns += [list(map(repr, col.tolist())) for col in floats]
    lines = [CSV_HEADER, *map(",".join, zip(*columns))]
    Path(path).write_text("\n".join(lines) + "\n")
