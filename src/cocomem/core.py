"""Shared domain types: decision vectors, the decision set, function
oracles with memory, and the per-round trace table.

A decision is a plain 1-D numpy array of finite floats.  A memory window
is an (m+1, d) array of the last m+1 decisions in round order (row 0 the
oldest), so the loss f_t(x_{t-m}, ..., x_t) is always evaluated on a full
window.
"""

from __future__ import annotations

import json
import math
import operator
from enum import Enum

import numpy as np


class Variant(Enum):
    """Which problem flavor a run solves.

    COCO_M2: both losses and constraints depend on the last m+1 decisions.
    COCO_M : losses have memory, constraints depend on the current decision.
    """

    COCO_M = "coco_m"
    COCO_M2 = "coco_m2"

    def dual_delay(self, m: int) -> int:
        """d such that round r's constraint slices weigh Phi'(V_{r-d}): m + 1
        when constraints carry memory, 1 when they see only x_t."""
        return m + 1 if self is Variant.COCO_M2 else 1


def as_decision(x, dim: int | None = None) -> np.ndarray:
    """Validate and normalize a decision vector (1-D, finite, d >= 1)."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"decision must be a 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("decision has non-finite entries")
    if dim is not None and v.size != dim:
        raise ValueError(f"decision has dimension {v.size}, expected {dim}")
    return v


def fdot(a: np.ndarray, b: np.ndarray):
    """sum_j a[..., j] * b[..., j] over the last axis, the products added
    one by one in index order from 0.0: the one order in which the package
    sums every d-vector's products, so no value depends on the BLAS build
    (a BLAS dot may group the terms otherwise, and np.sum adds 8 or more
    pairwise).  Two (d,) vectors give a Python float, summed over their
    `tolist()`; wider arrays give an array over the leading axes."""
    pairs = (zip(a.tolist(), b.tolist()) if a.ndim == 1
             else ((a[..., j], b[..., j]) for j in range(a.shape[-1])))
    s = 0.0
    for aj, bj in pairs:
        s = s + aj * bj
    return s


# ---------------------------------------------------------------------------
# The decision set


class Ball:
    """The closed Euclidean ball {x : ||x - center|| <= radius}, the one
    decision set: it admits an exact projection and a closed-form linear
    minimization.  At d = 1 it is the interval [lo, hi] = [center - radius,
    center + radius].  `center`, `lo` and `hi` are computed once and
    read-only, since every reader shares them; at d = 1 `interval` holds
    (lo, hi, center) as floats, for the float paths."""

    def __init__(self, center, radius: float):
        self.center = as_decision(center).copy()
        if not (radius > 0 and np.isfinite(radius)):
            raise ValueError("ball radius must be positive and finite")
        self.radius = float(radius)
        self.dim = self.center.size
        self.diameter = 2.0 * self.radius
        self.lo = self.center - self.radius
        self.hi = self.center + self.radius
        for arr in (self.center, self.lo, self.hi):
            arr.flags.writeable = False
        if self.dim == 1:
            self.interval = (self.lo.item(), self.hi.item(), self.center.item())

    def contains(self, x, tol: float = 1e-9):
        """Membership of one point, or of every row of an (n, d) array."""
        x = np.asarray(x, dtype=float)
        return np.linalg.norm(x - self.center, axis=-1) <= self.radius + tol

    def support(self, g: np.ndarray) -> float:
        """sup_{x in set} <g, x> (support function)."""
        return fdot(g, self.center) + self.radius * math.sqrt(fdot(g, g))


def float_vectors(fset: Ball):
    """(zero, center, rows, dot) of a learner's float loop, whose vectors
    are Python floats at d = 1 and (d,) float arrays at d >= 2, so that +,
    - and scalar * serve both: the zero vector (never updated in place),
    the set center, `rows(a)` giving the rows of an (n, d) array (floats
    through a memoryview at d = 1) and the dot product, `fdot`'s order at
    every d (at d = 1 the one product: 0.0 + a * b differs from it only in
    the sign of a zero, which no column reads)."""
    if fset.dim == 1:
        return 0.0, fset.interval[2], (lambda a: memoryview(a[:, 0])), operator.mul
    return np.zeros(fset.dim), fset.center, np.asarray, fdot


# ---------------------------------------------------------------------------
# Function oracles


class MemoryFunctionOracle:
    """A convex function of a memory window with closed-form gradients.

    Subclasses provide the window value and the memory-less lift
    value/gradient.  `grad_splat` must equal the sum of the partial
    gradients over all m+1 slots at a constant window (the chain rule of
    the splat map x -> (x,...,x)).  The Lipschitz and range constants
    of a family's oracles are its instance's `constants()`.
    """

    dim: int
    memory: int

    def value(self, window: np.ndarray) -> float:
        """The value at an (m+1, d) window, row 0 the oldest decision."""
        raise NotImplementedError

    def value_splat(self, x) -> float:
        return self.value(np.tile(as_decision(x), (self.memory + 1, 1)))

    def grad_splat(self, x) -> np.ndarray:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Per-round trace table

ROUND_FIELDS = (
    "t", "x", "f_mem", "f_splat", "g_mem", "g_splat", "g_plus_recorded", "v_dual",
    "ccv_cum", "phi_prime", "lam", "grad_norm", "eta_or_mu", "eps_f", "eps_g", "eps_z",
)


def round_table(n_rounds: int, dim: int) -> np.ndarray:
    """Zeroed structured array with one row per round; a learner writes
    each row once, as a tuple in `ROUND_FIELDS` order, or fills columns.

    Every field is a column (`table["f_mem"]`, `table["x"]` of shape
    (n_rounds, dim)); a row is a `np.record`, so `row.t` and `row.x` read
    one round.  `v_dual` is the cumulative memory-less violation driving
    the penalty; `ccv_cum` is the variant's official cumulative
    constraint violation (they coincide except for the double-memory
    penalty-OGD runs, where the dual update uses the lift while the CCV
    uses the window value).  `eta_or_mu` is the step size (OGD) or FTRL
    weight used to produce the next decision.  The eps_* fields stay 0
    for non-optimistic runs.  The surrogate sums (`metrics.surrogate_sum_*`)
    and the exponent cap's saturation (`penalty.saturated` of `lam` and
    `v_dual`) are derived from the columns, not stored.
    """
    fields = [("t", np.int64), ("x", float, (dim,))]
    fields += [(name, float) for name in ROUND_FIELDS[2:]]
    return np.zeros(n_rounds, dtype=np.dtype((np.record, fields)))


# ---------------------------------------------------------------------------
# Floats as text


def _orjson_text(a: np.ndarray) -> tuple[str, list[int]]:
    """orjson's JSON text of numeric array `a`, and the first-axis rows
    holding a float that orjson spells otherwise than `repr`.  orjson
    writes `repr`'s shortest round-trip digits (Ryu) at about a tenth of
    its cost, in another notation only for a nonzero |v| < 1e-4 (0.00001,
    1e-7), a |v| >= 1e16 (1e16) and a non-finite v (null)."""
    # imported per call: its uuid and zoneinfo imports would slow `import cocomem`
    import orjson

    text = orjson.dumps(np.ascontiguousarray(a), option=orjson.OPT_SERIALIZE_NUMPY).decode()
    if a.dtype.kind != "f" or not a.size:
        return text, []
    b = np.abs(a)
    odd = (b < 1e-4) & (b != 0.0) | ~(b < 1e16)  # ~: nan too
    # the rows of the odd values, each once and in order
    return text, list(dict.fromkeys((np.flatnonzero(odd) // (a.size // len(a))).tolist()))


def _split_rows(a: np.ndarray, spell, text: str, respell: list[int]) -> list[str]:
    k = a.ndim - 1
    rows = text[k + 1 : len(text) - k - 1].split("]" * k + "," + "[" * k)
    for i in respell:  # spell spaces a list as repr and json.dumps do
        row = spell(a[i].tolist()).replace(", ", ",")
        rows[i] = row[k : len(row) - k]
    return rows


def json_rows(a: np.ndarray, spell) -> list[str]:
    """The text of each first-axis row of nonempty numeric array `a`, as
    `array_json` writes it, split at the commas between rows: one number
    per row of a 1-D array, "x,y" per row of an (n, 2) one, "[x],[y" per
    row of an (n, 2, 1) one."""
    return _split_rows(a, spell, *_orjson_text(a))


def array_json(a: np.ndarray, spell) -> str:
    """The JSON text of numeric array `a`, nested as `a.tolist()` with no
    spaces: each finite float as `repr` writes it, each non-finite one as
    `spell` writes it (`repr` writes nan, `json.dumps` NaN).  orjson writes
    the text; only the first-axis rows holding a value it spells otherwise
    are written again, as `spell(row.tolist())`."""
    text, respell = _orjson_text(a)
    if respell:
        k = a.ndim - 1
        rows = _split_rows(a, spell, text, respell)
        text = "[" * (k + 1) + ("]" * k + "," + "[" * k).join(rows) + "]" * (k + 1)
    return text


def strict_json(doc, **kwargs) -> str:
    """`json.dumps(doc, sort_keys=True, **kwargs)` in strict JSON: a non-finite
    float at any depth reads null."""
    try:
        return json.dumps(doc, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError:  # a first pass's NaN or Infinity token parses back as None
        doc = json.loads(json.dumps(doc, sort_keys=True), parse_constant=lambda _: None)
        return json.dumps(doc, allow_nan=False, **kwargs)
