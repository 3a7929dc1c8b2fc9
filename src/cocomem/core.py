"""Shared domain types: decision vectors, memory windows, feasible sets,
function oracles with memory, and the per-round trace table.

A decision is a plain 1-D numpy array of finite floats.  A memory window
holds the last m+1 decisions in round order (oldest first), so the loss
f_t(x_{t-m}, ..., x_t) is always evaluated on a full window.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class Variant(Enum):
    """Which problem flavor a run solves.

    COCO_M2: both losses and constraints depend on the last m+1 decisions.
    COCO_M : losses have memory, constraints depend on the current decision.
    """

    COCO_M = "coco_m"
    COCO_M2 = "coco_m2"


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


def fdot(a, b) -> float:
    """sum_j a_j * b_j over two sequences of Python floats, added one by
    one in index order from 0.0 (a BLAS dot product of two or more terms
    may group them differently)."""
    s = 0.0
    for aj, bj in zip(a, b):
        s += aj * bj
    return s


class MemoryWindow:
    """Ring of the last m+1 decisions, oldest -> newest.

    After construction the window always holds exactly m+1 entries;
    pushing a new decision evicts the oldest one.
    """

    __slots__ = ("_buf", "memory", "dim")

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError("window needs at least one entry")
        if not np.all(np.isfinite(arr)):
            raise ValueError("window has non-finite entries")
        self._buf = arr.copy()
        self.memory = arr.shape[0] - 1
        self.dim = arr.shape[1]

    def push(self, x) -> None:
        x = as_decision(x, self.dim)
        self._buf[:-1] = self._buf[1:]
        self._buf[-1] = x

    @property
    def entries(self) -> np.ndarray:
        """(m+1, d) array, row 0 is the oldest decision."""
        return self._buf

    @property
    def newest(self) -> np.ndarray:
        return self._buf[-1]


def splat(x, m: int) -> MemoryWindow:
    """Constant window (x, ..., x) with m+1 slots: the memory-less lift's
    evaluation point."""
    if m < 0:
        raise ValueError("memory length must be >= 0")
    x = as_decision(x)
    return MemoryWindow(np.tile(x, (m + 1, 1)))


# ---------------------------------------------------------------------------
# Feasible sets


class FeasibleSet:
    """Closed convex decision set with a cached diameter.

    Only axis-aligned boxes and Euclidean balls are supported; both admit
    exact projections and closed-form linear minimization.
    """

    dim: int
    diameter: float

    @property
    def center(self) -> np.ndarray:
        raise NotImplementedError

    def extents(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-axis (lo, hi) of the set's bounding box."""
        raise NotImplementedError

    def contains(self, x, tol: float = 1e-9):
        """Membership of one point, or of every row of an (n, d) array."""
        raise NotImplementedError

    def support(self, g: np.ndarray) -> float:
        """sup_{x in set} <g, x> (support function)."""
        raise NotImplementedError


class Box(FeasibleSet):
    def __init__(self, lo, hi):
        self.lo = as_decision(lo)
        self.hi = as_decision(hi, self.lo.size)
        if np.any(self.lo > self.hi):
            raise ValueError("empty box: lo > hi componentwise")
        self.dim = self.lo.size
        self.diameter = float(np.linalg.norm(self.hi - self.lo))
        self._center = 0.5 * (self.lo + self.hi)
        self._center.flags.writeable = False  # every reader shares this array

    @property
    def center(self) -> np.ndarray:
        return self._center

    def extents(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lo, self.hi

    def contains(self, x, tol: float = 1e-9):
        x = np.asarray(x, dtype=float)
        return np.all((x >= self.lo - tol) & (x <= self.hi + tol), axis=-1)

    def support(self, g: np.ndarray) -> float:
        return float(np.sum(np.where(g >= 0, g * self.hi, g * self.lo)))

    def __repr__(self):
        return f"Box(lo={self.lo}, hi={self.hi})"


class Ball(FeasibleSet):
    def __init__(self, center, radius: float):
        self._center = as_decision(center)
        if not (radius > 0 and np.isfinite(radius)):
            raise ValueError("ball radius must be positive and finite")
        self.radius = float(radius)
        self.dim = self._center.size
        self.diameter = 2.0 * self.radius

    @property
    def center(self) -> np.ndarray:
        return self._center

    def extents(self) -> tuple[np.ndarray, np.ndarray]:
        return self._center - self.radius, self._center + self.radius

    def contains(self, x, tol: float = 1e-9):
        x = np.asarray(x, dtype=float)
        return np.linalg.norm(x - self._center, axis=-1) <= self.radius + tol

    def support(self, g: np.ndarray) -> float:
        return float(g @ self._center) + self.radius * float(np.linalg.norm(g))

    def __repr__(self):
        return f"Ball(center={self._center}, radius={self.radius})"


# ---------------------------------------------------------------------------
# Function oracles


class MemoryFunctionOracle:
    """A convex function of a memory window with closed-form gradients.

    Subclasses provide the window value and the memory-less lift
    value/gradient.  `grad_splat` must equal the sum of the partial
    gradients over all m+1 slots at a constant window (the chain rule of
    the splat map x -> (x,...,x)).

    `lipschitz` bounds both the joint-window Lipschitz constant and the
    lift's gradient norm; `bound` bounds |value| over the feasible set.
    """

    dim: int
    memory: int
    lipschitz: float
    bound: float

    def value(self, window: MemoryWindow) -> float:
        raise NotImplementedError

    def value_splat(self, x) -> float:
        return self.value(splat(x, self.memory))

    def grad_splat(self, x) -> np.ndarray:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Per-round trace table

ROUND_FIELDS = (
    "t", "x", "f_mem", "f_splat", "g_mem", "g_splat", "g_plus_recorded", "v_dual",
    "ccv_cum", "phi_prime", "lam", "surrogate", "grad_norm", "eta_or_mu",
    "eps_f", "eps_g", "eps_z", "saturated",
)


def round_table(n_rounds: int, dim: int) -> np.ndarray:
    """Zeroed structured array with one row per round; a learner writes
    each row once, as a tuple in `ROUND_FIELDS` order.

    Every field is a column (`table["f_mem"]`, `table["x"]` of shape
    (n_rounds, dim)); a row is a `np.record`, so `row.t` and `row.x` read
    one round.  `v_dual` is the cumulative memory-less violation driving
    the penalty; `ccv_cum` is the variant's official cumulative
    constraint violation (they coincide except for the double-memory
    penalty-OGD runs, where the dual update uses the lift while the CCV
    uses the window value).  `eta_or_mu` is the step size (OGD) or FTRL
    weight used to produce the next decision.  The eps_* fields stay 0
    for non-optimistic runs; `saturated` marks rounds whose exponential
    penalty hit its exponent cap.
    """
    fields = [("t", np.int64), ("x", float, (dim,))]
    fields += [(name, float) for name in ROUND_FIELDS[2:-1]]
    fields.append(("saturated", bool))
    return np.zeros(n_rounds, dtype=np.dtype((np.record, fields)))
