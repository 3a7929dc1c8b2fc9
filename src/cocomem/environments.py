"""Oblivious adversary instances and gradient predictors.

Two instance families:

* `AppendixAInstance` - averaged quadratic tracking losses with an affine
  budget constraint, the 1-D benchmark environment (closed-form gradients,
  closed-form best-in-hindsight).
* `SeparableLinearInstance` - per-round linear loss/constraint slices,
  one slice per delay, for the optimistic delayed-FTRL learner.

Instances draw every coefficient from a seeded PCG64 stream before round
one, so the sequence never depends on the learner's play and replays are
bit-identical.  Each family is a dataclass whose fields are its
parameters, declared once; the shared base `_Instance` checks them,
builds the decision set, generates or adopts the arrays, and holds the
one replay-JSON writer (`to_json`) and reader (`from_json`) of both
families.  Predictors forecast not-yet-revealed slices as affine data
(coefficient, plus offset for constraint slices).

Besides the per-round oracles `loss(t)` / `constraint(t)`, each family
gives the penalty-OGD float loop its lift rows as data:
`halfspaces(rounds, "lift")` for the constraint and `loss_lift(rounds)`
for the loss gradient.  After either learner's loop, `fill_values(table,
variant)` writes every round's window and lift values from the decision
column, elementwise, each sum adding its terms one by one from 0.0,
coordinates in index order (`core.fdot`'s order, so no value depends on
the BLAS build; in 1-D with m <= 6 the values match the oracles, whose
numpy sums add 8 or more terms pairwise, bit for bit).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, InitVar, astuple, dataclass, field, fields

import numpy as np

from .core import Ball, MemoryFunctionOracle, Variant, array_json, fdot

RNG_NAME = "pcg64"


def _instance_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), 0])))


@dataclass(frozen=True)
class InstanceConstants:
    """Closed-form problem constants for the bound calculators (|X| is `fset.diameter`)."""

    l_f: float
    l_g: float
    f_bound: float
    g_bound: float


def is_number(v) -> bool:
    """The rule every float-typed config value follows: a finite real that
    is not a bool (so neither a string nor an int past the doubles)."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


# The type rule of every config value: field annotation (a string, by
# postponed evaluation) -> (what its value must be, the test, the cast made
# once the test passes; float() would read "2" or true, int() truncate 0.9
# and dict() read [key, value] pairs).  Enum fields have no entry.
_FIELD_TYPES = {
    "int": ("an integer", _is_int, int),
    "float": ("a finite number", is_number, float),
    "Literal['theorem', 'sqrt_t', 'doubling'] | float": (
        "a finite number or one of 'theorem', 'sqrt_t', 'doubling'",
        lambda v: v in ("theorem", "sqrt_t", "doubling") or is_number(v),
        lambda v: v if isinstance(v, str) else float(v)),
    "bool": ("true or false", lambda v: isinstance(v, bool), bool),
    "str": ("a string", lambda v: isinstance(v, str), str),
    "dict": ("a JSON object", lambda v: isinstance(v, dict), dict),
    "list[int]": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v)),
                  list),
    "tuple[float, float]": ("a pair of finite numbers", lambda v: isinstance(v, (list, tuple))
                            and len(v) == 2 and all(map(is_number, v)), tuple),
}


def check_fields(cls, values: dict) -> dict:
    """The fields of dataclass `cls` in `values`, defaults filling keys left
    out, each checked against its annotation's entry in `_FIELD_TYPES` and
    cast; TypeError on a bad value or an unknown or missing key.  Enum
    fields are left out: their constructors check them."""
    if unknown := sorted(values.keys() - {f.name for f in fields(cls)}):
        raise TypeError(f"unknown keys {unknown}")
    typed = {}
    for f in fields(cls):
        value = values.get(f.name, f.default)
        if value is MISSING:
            raise TypeError(f"missing key {f.name!r}")
        if f.type in _FIELD_TYPES:
            what, takes, cast = _FIELD_TYPES[f.type]
            if not takes(value):
                raise TypeError(f"{f.name} must be {what}, got {value!r}")
            typed[f.name] = cast(value)
    return typed


class _Instance:
    """What both instance families share.

    A family is a dataclass whose fields are its parameters in constructor
    order; `_ARRAYS` maps the names of its generated arrays to their dtypes.
    Construction types the fields (`check_fields`), makes the family's range
    checks (`check_params`; neither needs an instance, so a config can be
    checked without generating), builds the decision set `fset` (the ball of
    `radius` at the origin, which alone holds its `diameter`), then
    generates the arrays (`_generate` sets them as attributes) or adopts the
    `_arrays` passed in, in `_ARRAYS` order.  `to_json` and `from_json` are
    the replay document's one writer and reader: `kind`, `rng` and `seed`,
    then the other fields in declaration order (those whose metadata sets
    `params` nested under "params"), then the arrays as nested lists.
    Round t's loss and constraint read the window x_{t-m} .. x_t, the set
    center standing in for every round before `first_round`: `by_round`
    states that rule, and `slots`, both learners and the audit read it.
    """

    def __post_init__(self, _arrays) -> None:
        vars(self).update(check_fields(type(self), vars(self)))
        self.check_params(**vars(self))
        self.fset = Ball([0.0] * self.dim, self.radius)
        if _arrays is None:
            self._generate()
        else:
            for name, array in zip(self._ARRAYS, _arrays, strict=True):
                setattr(self, name, array)

    @property
    def rounds(self) -> range:
        return range(self.first_round, self.horizon + 1)

    def to_json(self) -> str:
        """The replay document, each array as `core.array_json` writes it,
        spaced as `json.dumps` spaces a list; built in one join, so that at
        most twice its text is held."""
        doc = {"kind": self.kind, "rng": RNG_NAME, "seed": self.seed}
        params = {}
        for f in fields(self):
            if f.name != "seed":
                (params if f.metadata.get("params") else doc)[f.name] = getattr(self, f.name)
        if params:
            doc["params"] = params
        parts = [json.dumps(doc)[:-1]]
        for name in self._ARRAYS:
            a = getattr(self, name)
            if a.ndim > 1 and a.shape[-1] == 1 and a.size:
                # orjson opens one list per value of a trailing length-1 axis:
                # write a[..., 0] and close and open that list at each comma
                parts += [f', "{name}": [',
                          array_json(a[..., 0], json.dumps).replace(",", "], ["), "]"]
            else:
                parts += [f', "{name}": ', array_json(a, json.dumps).replace(",", ", ")]
        return "".join(parts + ["}"])

    @classmethod
    def from_json(cls, text: str):
        obj = json.loads(text)
        if obj.get("kind") != cls.kind:
            raise ValueError(f"not a {cls.kind} document")
        values = {**obj, **obj.get("params", {})}
        args = {f.name: values[f.name] for f in fields(cls)}
        arrays = [np.asarray(obj[name], dtype=dtype) for name, dtype in cls._ARRAYS.items()]
        return cls(**args, _arrays=arrays)

    def by_round(self, X: np.ndarray) -> np.ndarray:
        """The (horizon + 1, d) decisions of rounds 0..horizon: the set
        center before `first_round`, then the (n, d) decision column X."""
        return np.concatenate((np.tile(self.fset.center, (self.first_round, 1)), X))

    def slots(self, X: np.ndarray) -> list[np.ndarray]:
        """The m+1 window slots of every round of the decision column X,
        oldest first, as (n, d) views of `by_round(X)`: slot i of row k is
        decision k - m + i of X, the set center before the first round."""
        decisions, start = self.by_round(X), self.first_round - self.m
        return [decisions[start + i : start + i + len(X)] for i in range(self.m + 1)]

    @np.errstate(over="ignore", invalid="ignore")  # numpy overflows as floats do: silently
    def fill_values(self, table: np.ndarray, variant: Variant) -> None:
        """Write the trace columns that are functions of the decisions `x`:
        `t`, the family's values (`_fill`), g_mem (the constraint window
        under `coco_m2`, else the lift g_splat) and g_plus_recorded =
        max(g_mem, 0.0), -0.0 and nan kept."""
        table["t"] = np.arange(self.first_round, self.horizon + 1)
        self._fill(table, variant is Variant.COCO_M2)
        if variant is not Variant.COCO_M2:
            table["g_mem"] = table["g_splat"]
        table["g_plus_recorded"] = np.where(table["g_mem"] < 0.0, 0.0, table["g_mem"])


# fields nested under "params" in the replay document
_KNOB = {"params": True}


# ---------------------------------------------------------------------------
# Appendix-style quadratic/affine environment


class _QuadraticTrackingLoss(MemoryFunctionOracle):
    """f(x_{t-m},...,x_t) = (1/(m+1)) sum_i 0.5 ||x_{t-i} - c||^2."""

    def __init__(self, c: np.ndarray, m: int):
        self.c = c
        self.dim = c.size
        self.memory = m

    def value(self, window: np.ndarray) -> float:
        diff = window - self.c
        return 0.5 * float(np.sum(diff * diff)) / (self.memory + 1)

    def value_splat(self, x) -> float:
        diff = np.asarray(x, dtype=float) - self.c
        return 0.5 * float(diff @ diff)

    def grad_splat(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float) - self.c


class _AffineBudgetConstraint(MemoryFunctionOracle):
    """g(x_{t-m},...,x_t) = (1/(m+1)) sum_i <d, x_{t-i}> - delta."""

    def __init__(self, d_coef: np.ndarray, delta: float, m: int):
        self.d_coef = d_coef
        self.delta = delta
        self.dim = d_coef.size
        self.memory = m

    def value(self, window: np.ndarray) -> float:
        return float(np.mean(window @ self.d_coef)) - self.delta

    def value_splat(self, x) -> float:
        return float(self.d_coef @ np.asarray(x, dtype=float)) - self.delta

    def grad_splat(self, x) -> np.ndarray:
        return self.d_coef.copy()


@dataclass(eq=False)
class AppendixAInstance(_Instance):
    """Quadratic tracking losses with an affine budget constraint.

    Coefficients c_t, d_t live in [-B, B]^d with B = max(gamma, 1) * sigma,
    the bound the family's constants are built from.  The stochastic mode
    draws them i.i.d. uniform on [-sigma, sigma]; the adversarial mode
    mixes uniform draws (probability 0.4) with centered Gaussians of std
    sigma (probability 0.6), re-drawing any Gaussian sample whose
    magnitude exceeds gamma * sigma (`coef_bound`).
    """

    kind = "appendix_a"
    _ARRAYS = {"c": float, "d_coef": float}

    m: int = 3
    horizon: int = 4000
    radius: float = 15.0
    sigma: float = 10.0
    delta: float = 1.0
    gamma: float = 3.0
    mode: str = "stochastic"
    seed: int = 0
    dim: int = 1
    _arrays: InitVar[tuple | None] = None

    @staticmethod
    def check_params(m, horizon, radius, sigma, delta, gamma, mode, dim, **_) -> None:
        """Range checks of the constructor's parameters, the problem
        constants' finiteness included; no instance is generated."""
        if not (horizon >= m >= 0 and horizon >= 1):
            raise ValueError("need horizon >= memory >= 0 and horizon >= 1")
        if min(radius, sigma, delta) <= 0 or gamma <= 0:
            raise ValueError("radius, sigma, delta, gamma must be positive")
        if mode not in ("stochastic", "adversarial"):
            raise ValueError(f"unknown mode {mode!r}")
        k = AppendixAInstance.constants_of(radius, sigma, delta, gamma, dim)
        if not all(map(math.isfinite, astuple(k))):
            raise ValueError(f"the parameters give non-finite problem constants {k}")

    @property
    def coef_bound(self) -> float:
        return self.gamma * self.sigma

    def _generate(self) -> None:
        rng = _instance_rng(self.seed)
        shape = (self.horizon + 1, self.dim)
        if self.mode == "stochastic":
            self.c = rng.uniform(-self.sigma, self.sigma, size=shape)
            self.d_coef = rng.uniform(-self.sigma, self.sigma, size=shape)
            return

        def mixture():
            pick_unif = rng.uniform(size=shape) < 0.4
            unif = rng.uniform(-self.sigma, self.sigma, size=shape)
            gaus = rng.normal(0.0, self.sigma, size=shape)
            bad = ~pick_unif & (np.abs(gaus) > self.coef_bound)
            while np.any(bad):
                gaus[bad] = rng.normal(0.0, self.sigma, size=int(bad.sum()))
                bad = ~pick_unif & (np.abs(gaus) > self.coef_bound)
            return np.where(pick_unif, unif, gaus)

        self.c = mixture()
        self.d_coef = mixture()

    @property
    def first_round(self) -> int:
        return self.m

    def loss(self, t: int) -> MemoryFunctionOracle:
        return _QuadraticTrackingLoss(self.c[t], self.m)

    def constraint(self, t: int) -> MemoryFunctionOracle:
        return _AffineBudgetConstraint(self.d_coef[t], self.delta, self.m)

    def loss_lift(self, rounds: range) -> tuple[np.ndarray, bool]:
        """(c, True): round rounds[k]'s f-lift gradient at x is x - c[k]."""
        return self.c[rounds.start : rounds.stop], True

    def _fill(self, table: np.ndarray, g_window: bool) -> None:
        """Write f_mem, f_splat, g_splat and, when `g_window`, g_mem (the
        window mean) from the decision column, each with the terms of
        `loss(t)` / `constraint(t)` in their order: slots oldest first,
        coordinates in index order."""
        X, slots, c, d = table["x"], self.m + 1, self.c[self.m :], self.d_coef[self.m :]
        sq, s = np.zeros(len(X)), np.zeros(len(X))
        for w in self.slots(X):
            for j in range(self.dim):
                diff = w[:, j] - c[:, j]
                sq += diff * diff
                s += w[:, j] * d[:, j]
        diff = X - c
        table["f_mem"], table["f_splat"] = 0.5 * sq / slots, 0.5 * fdot(diff, diff)
        table["g_splat"] = fdot(d, X) - self.delta
        if g_window:
            table["g_mem"] = s / slots - self.delta

    # -- lift math over a round range, for the benchmark solvers ------------

    def lift_values(self, U: np.ndarray, rounds: range) -> np.ndarray:
        """f-lift values at every row of U, shape (len(U), len(rounds))."""
        c = self.c[rounds.start : rounds.stop]
        sq = np.sum(U * U, axis=1)[:, None] - 2.0 * U @ c.T + np.sum(c * c, axis=1)[None, :]
        return 0.5 * sq

    def halfspaces(self, rounds: range, kind: str = "lift") -> tuple[np.ndarray, np.ndarray]:
        """(A, b): the lifted budget constraints as {x : A x + b <= 0}, one
        row per round.  The family has no slices, so only `lift` exists."""
        if kind != "lift":
            raise ValueError("slice-wise benchmark needs a separable instance")
        d = self.d_coef[rounds.start : rounds.stop]
        # a stride-0 view: adding it to a block costs what a scalar add does
        return d, np.broadcast_to(-self.delta, len(d))

    def lift_argmin_1d(self, lo: float, hi: float, rounds: range) -> tuple[float, float]:
        """(x, total): minimizer on [lo, hi] of the summed f-lift (dim 1)."""
        c = self.c[rounds.start : rounds.stop, 0]
        x = float(np.clip(np.mean(c), lo, hi))
        return x, 0.5 * float(np.sum((x - c) ** 2))

    def lift_min_per_round(self, lo: np.ndarray, hi: np.ndarray, rounds: range) -> np.ndarray:
        """Minimum of each round's f-lift on its own [lo_t, hi_t] (dim 1)."""
        c = self.c[rounds.start : rounds.stop, 0]
        x = np.clip(c, lo, hi)
        return 0.5 * (x - c) ** 2

    def constants(self) -> InstanceConstants:
        return self.constants_of(self.radius, self.sigma, self.delta, self.gamma, self.dim)

    @staticmethod
    def constants_of(radius, sigma, delta, gamma, dim) -> InstanceConstants:
        """The family's constants, which read only its parameters."""
        l_g = max(gamma, 1.0) * sigma * math.sqrt(dim)
        l_f = radius + l_g
        return InstanceConstants(
            l_f=l_f,
            l_g=l_g,
            f_bound=0.5 * l_f * l_f,
            g_bound=l_g * radius + delta,
        )


# ---------------------------------------------------------------------------
# Separable linear environment


class _SeparableMemoryFunction(MemoryFunctionOracle):
    """sum_i <coeff_i, x_{t-i}> + offset_i over the window slots."""

    def __init__(self, coeffs: np.ndarray, offsets: np.ndarray):
        # coeffs[i] multiplies x_{t-i} (delay order), shape (m+1, d)
        self.coeffs = coeffs
        self.offsets = offsets
        self.memory = coeffs.shape[0] - 1
        self.dim = coeffs.shape[1]

    def value(self, window: np.ndarray) -> float:
        # window rows are oldest->newest; delay i touches row m-i
        rows = window[::-1]
        return float(np.sum(rows * self.coeffs)) + float(np.sum(self.offsets))

    def value_splat(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.coeffs.sum(axis=0) @ x) + float(np.sum(self.offsets))

    def grad_splat(self, x) -> np.ndarray:
        return self.coeffs.sum(axis=0)


def _delay_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the delays (axis 1) of a slice array, added in delay order:
    `a.sum(axis=1)` with fewer than 8 delays (numpy adds more pairwise at
    d = 1), in a sixth of its time at (2000, 3, 1)."""
    return sum((a[:, i] for i in range(1, a.shape[1])), a[:, 0].copy())


@dataclass(eq=False)
class SeparableLinearInstance(_Instance):
    """Per-(round, delay) linear loss and constraint slices.

    Loss slices follow a sign-alternating drift (fixed-length blocks) plus
    uniform noise, so the leader moves and look-ahead pays off.  At most
    one constraint slice is emitted per round (at a random delay when
    `constraint_memory` is set, else always at delay 0); its offset puts
    the activation boundary strictly inside the set for a configurable
    fraction of slices and keeps the set center feasible for all of them,
    so the slice-wise benchmark set is nonempty by construction.
    Slices vanish outside rounds (m, horizon].
    """

    kind = "separable_linear"
    _ARRAYS = {"f_coef": float, "g_coef": float, "g_off": float, "g_present": bool}

    m: int = 2
    horizon: int = 2000
    radius: float = 2.0
    dim: int = 1
    seed: int = 0
    constraint_memory: bool = True
    drift: float = field(default=0.5, metadata=_KNOB)
    noise: float = field(default=0.5, metadata=_KNOB)
    blocks: int = field(default=8, metadata=_KNOB)
    g_round_density: float = field(default=0.15, metadata=_KNOB)
    g_mag: tuple[float, float] = field(default=(0.01, 0.03), metadata=_KNOB)
    g_root: tuple[float, float] = field(default=(0.4, 0.9), metadata=_KNOB)
    g_active_fraction: float = field(default=1.0, metadata=_KNOB)
    _arrays: InitVar[tuple | None] = None

    @staticmethod
    def check_params(m, horizon, radius, drift, noise, blocks, g_round_density, g_mag,
                     g_root, g_active_fraction, **_) -> None:
        """Range checks of the constructor's parameters; no instance is
        generated."""
        if not (horizon >= m >= 0 and horizon >= 1):
            raise ValueError("need horizon >= memory >= 0 and horizon >= 1")
        if radius <= 0:
            raise ValueError("radius must be positive")
        if min(drift, noise) < 0:
            raise ValueError(f"drift and noise must be >= 0, got {drift}, {noise}")
        if blocks < 1:
            raise ValueError(f"blocks must be >= 1, got {blocks!r}")
        for name, v in (("g_round_density", g_round_density),
                        ("g_active_fraction", g_active_fraction)):
            if not 0 <= v <= 1:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        low, high = g_mag
        if not 0 < low <= high:
            raise ValueError(f"g_mag needs 0 < low <= high, got {list(g_mag)}")
        low, high = g_root
        if not 0 < low <= high < 1:
            raise ValueError(f"g_root needs 0 < low <= high < 1, got {list(g_root)}")

    def _generate(self):
        rng = _instance_rng(self.seed)
        T, m, d = self.horizon, self.m, self.dim
        self.f_coef = np.zeros((T + 1, m + 1, d))
        self.g_coef = np.zeros((T + 1, m + 1, d))
        self.g_off = np.zeros((T + 1, m + 1))
        self.g_present = np.zeros((T + 1, m + 1), dtype=bool)

        w = rng.normal(size=d)
        w /= math.sqrt(fdot(w, w))
        base_sign = 1.0 if rng.uniform() < 0.5 else -1.0
        n_active = T - m
        block_len = max(1, math.ceil(n_active / max(1, self.blocks)))

        # Round t draws, in stream order, its (m+1)*d loss uniforms, its
        # density draw and, in a hit round, the constraint draws.  PCG64
        # hands out doubles as one flat sequence, so the first two are one
        # random() row.  uniform(-1, 1) is -1 + 2u of the same double u (2u
        # is exact, so FMA contraction cannot change it) and uniform() is u.
        # The hit draws stay generator calls: integers() reads PCG64's
        # buffered upper 32 bits, which carry from hit to hit, and
        # uniform(a, b) over a non-dyadic range rounds as numpy's C does.
        k = (m + 1) * d
        draws = np.empty((n_active, k + 1))
        hits = []
        for t, row in enumerate(draws, start=m + 1):
            rng.random(out=row)
            if row[k] < self.g_round_density:
                i = int(rng.integers(0, m + 1)) if self.constraint_memory else 0
                direction = rng.normal(size=d)
                mag = rng.uniform(*self.g_mag)
                if rng.random() < self.g_active_fraction:
                    root = rng.uniform(*self.g_root)
                else:
                    root = rng.uniform(1.05, 1.5)
                hits.append((t, i, direction, mag, root))

        # f_coef[t] = (drift * sign * w + noise * u') / (m + 1): one round's
        # elementwise operations, in place for all rounds (IEEE addition
        # commutes, so adding the drift term second changes no bit)
        f = self.f_coef[m + 1:]
        f[...] = draws[:, :k].reshape(n_active, m + 1, d)
        f *= 2.0
        f -= 1.0
        f *= self.noise
        for start in range(0, n_active, block_len):
            sign = base_sign * (1.0 if start // block_len % 2 == 0 else -1.0)
            f[start:start + block_len] += self.drift * sign * w
        f /= m + 1

        # each hit: coeff = mag * direction / |direction|, offset
        # -root * (support(coeff) - coeff . center)
        if not hits:
            return
        t_hit, i_hit, coeff, mag, root = (np.array(col) for col in zip(*hits))
        # one row per hit, each norm and dot added in index order (fdot);
        # support(coeff) = coeff . center + radius * |coeff|, as Ball.support
        coeff /= np.sqrt(fdot(coeff, coeff))[:, None]
        coeff *= mag[:, None]
        along = fdot(coeff, self.fset.center)
        sup = along + self.fset.radius * np.sqrt(fdot(coeff, coeff)) - along
        self.g_coef[t_hit, i_hit] = coeff
        self.g_off[t_hit, i_hit] = -root * sup
        self.g_present[t_hit, i_hit] = True

    @property
    def first_round(self) -> int:
        return self.m + 1

    def loss(self, t: int) -> MemoryFunctionOracle:
        coeffs = self.f_coef[t] if 0 < t <= self.horizon else np.zeros_like(self.f_coef[0])
        return _SeparableMemoryFunction(coeffs, np.zeros(self.m + 1))

    def constraint(self, t: int) -> MemoryFunctionOracle:
        in_range = 0 < t <= self.horizon
        coeffs = self.g_coef[t] if in_range else np.zeros_like(self.g_coef[0])
        offs = self.g_off[t] if in_range else np.zeros(self.m + 1)
        return _SeparableMemoryFunction(coeffs, offs)

    def loss_lift(self, rounds: range) -> tuple[np.ndarray, bool]:
        """(slopes, False): round rounds[k]'s f-lift gradient is slopes[k]."""
        return self.lift_slopes(rounds), False

    def _fill(self, table: np.ndarray, g_window: bool) -> None:
        """Write f_mem, f_splat, g_splat and, when `g_window`, g_mem (the
        window sum) from the decision column, each sum from 0.0: window
        slots newest first (in delay order) and coordinates in index
        order, the lifts after the per-round slice sums (lift slopes,
        summed offsets).  A sum from 0.0 is never -0.0, so the loss's
        zero offset adds nothing."""
        X, span, slots = table["x"], slice(self.m + 1, None), self.slots(table["x"])

        def window_value(coef):
            s = np.zeros(len(X))
            for i, w in enumerate(reversed(slots)):  # delay i touches slot m - i
                for j in range(self.dim):
                    s += w[:, j] * coef[:, i, j]
            return s

        A, b = self.halfspaces(self.rounds)
        table["f_mem"] = window_value(self.f_coef[span])
        table["f_splat"] = fdot(self.lift_slopes(self.rounds), X)
        table["g_splat"] = fdot(A, X) + b
        if g_window:
            table["g_mem"] = window_value(self.g_coef[span]) + b

    # -- lift math over a round range, for the benchmark solvers ------------

    def lift_slopes(self, rounds: range) -> np.ndarray:
        """Per-round f-lift gradient sum_i f_coef[t, i], shape (len(rounds), d)."""
        return _delay_sum(self.f_coef[rounds.start : rounds.stop])

    def lift_values(self, U: np.ndarray, rounds: range) -> np.ndarray:
        """f-lift values at every row of U, shape (len(U), len(rounds))."""
        return U @ self.lift_slopes(rounds).T

    def halfspaces(self, rounds: range, kind: str = "lift") -> tuple[np.ndarray, np.ndarray]:
        """(A, b) with the benchmark set {x : A x + b <= 0}: one summed
        half-space per round for `lift`, one per present constraint slice
        for `slicewise`."""
        coef = self.g_coef[rounds.start : rounds.stop]
        off = self.g_off[rounds.start : rounds.stop]
        if kind == "lift":
            return _delay_sum(coef), _delay_sum(off)
        present = self.g_present[rounds.start : rounds.stop]
        return coef[present], off[present]

    def lift_argmin_1d(self, lo: float, hi: float, rounds: range) -> tuple[float, float]:
        """(x, total): minimizer on [lo, hi] of the summed f-lift (dim 1)."""
        s = float(np.sum(self.lift_slopes(rounds)[:, 0]))
        x = lo if s > 0 else hi if s < 0 else 0.5 * (lo + hi)
        return x, s * x

    def lift_min_per_round(self, lo: np.ndarray, hi: np.ndarray, rounds: range) -> np.ndarray:
        """Minimum of each round's f-lift on its own [lo_t, hi_t] (dim 1)."""
        s = self.lift_slopes(rounds)[:, 0]
        return np.where(s > 0, s * lo, s * hi)

    def constants(self) -> InstanceConstants:
        joint_f = np.sqrt(np.sum(self.f_coef**2, axis=(1, 2)))
        lift_f = np.linalg.norm(self.f_coef.sum(axis=1), axis=-1)
        joint_g = np.sqrt(np.sum(self.g_coef**2, axis=(1, 2)))
        lift_g = np.linalg.norm(self.g_coef.sum(axis=1), axis=-1)
        f_norms = np.linalg.norm(self.f_coef, axis=2)
        g_norms = np.linalg.norm(self.g_coef, axis=2)
        f_bound = float(np.max(np.sum(f_norms * self.radius, axis=1)))
        g_bound = float(np.max(np.sum(g_norms * self.radius + np.abs(self.g_off), axis=1)))
        return InstanceConstants(
            l_f=float(max(joint_f.max(), lift_f.max())),
            l_g=float(max(joint_g.max(), lift_g.max(), 1e-12)),
            f_bound=f_bound,
            g_bound=max(g_bound, 1e-12),
        )


# ---------------------------------------------------------------------------
# Predictors

# forecast rows a predictor makes at a time (at least one round's)
NOISE_BLOCK_ROWS = 2048


@dataclass(eq=False)
class Predictor:
    """Forecast source for not-yet-revealed slices.

    Round t forecasts the P = (m + 1)(m + 2) / 2 slice pairs (t + j, i),
    0 <= j <= i <= m: the loss coefficient f and the constraint slice as
    affine data (g, g_off), active at x when `g @ x + g_off > 0`.  An
    absent slice forecasts (zeros, 0.0), never active; a non-finite loss
    (constraint) forecast of a pair reads zero.

    A subclass's fields are checked as an instance family's are.  It
    defines two hooks over a range of n query rounds t_k, row
    k P + i (i + 1) / 2 + j holding pair (t_k + j, i): `predict_f(rounds)`
    returns the loss rows (n P, d), `predict_g(rounds)` the constraint rows
    (n P, d) and offsets (n P,).  `forecasts` calls each once per block of
    up to `NOISE_BLOCK_ROWS` // P rounds, ending at the last query round,
    horizon + 1, and holds the block, so a round asked twice (as a restart
    does) gets the same forecasts.
    """

    kind = "base"

    def __post_init__(self) -> None:
        vars(self).update(check_fields(type(self), vars(self)))
        self.check_params(**vars(self))

    @staticmethod
    def check_params(**_) -> None:
        """Range checks of the fields; a predictor without fields has none."""

    def bind(self, instance) -> None:
        self._instance = instance
        # pair (t + j, i) of a round is row i (i + 1) / 2 + j of its rows
        self._pair_i = np.repeat(np.arange(instance.m + 1), np.arange(1, instance.m + 2))
        self._pair_j = np.arange(len(self._pair_i)) - self._pair_i * (self._pair_i + 1) // 2
        self._block_rounds = max(1, NOISE_BLOCK_ROWS // len(self._pair_i))
        self._held, self._block = range(0), ()

    def forecasts(self, t: int) -> list:
        """Round t's P forecasts (f, g, g_off), pair (t + j, i) at index
        i (i + 1) / 2 + j, in the learner's vector type: floats at d = 1,
        as [f, g, g_off] lists from one `tolist` of the held row, and (d,)
        row views at d >= 2.  A round outside the held block starts the
        next block, its non-finite forecasts set to zero pair by pair."""
        if t not in self._held:
            self._block = ()  # dropped before the next block is built
            self._block, self._held = self._fill(t)
        k = t - self._held.start
        if self._instance.dim == 1:
            return self._block[k].tolist()
        f, g, off = self._block
        return list(zip(f[k], g[k], off[k].tolist()))

    def _fill(self, t: int) -> tuple:
        """(block, rounds) of the block of rounds from t, one row per round:
        an (n, P, 3) array of [f, g, g_off] at d = 1, else arrays (f, g, off)."""
        rounds = range(t, max(t + 1, min(t + self._block_rounds, self._instance.horizon + 2)))
        f = np.asarray(self.predict_f(rounds), dtype=float)
        g, off = (np.asarray(rows, dtype=float) for rows in self.predict_g(rounds))
        bad = ~np.isfinite(f).all(axis=1)
        if bad.any():
            f = np.where(bad[:, None], 0.0, f)
        bad = ~(np.isfinite(g).all(axis=1) & np.isfinite(off))
        if bad.any():
            g, off = np.where(bad[:, None], 0.0, g), np.where(bad, 0.0, off)
        n, d = len(rounds), self._instance.dim
        if d == 1:
            return np.stack((f[:, 0], g[:, 0], off), axis=-1).reshape(n, -1, 3), rounds
        return (f.reshape(n, -1, d), g.reshape(n, -1, d), off.reshape(n, -1)), rounds

    def _pairs(self, rounds: range) -> np.ndarray:
        """(query round, slice round, delay) of each row of a block, as
        the columns of an (n P, 3) array."""
        t = np.arange(rounds.start, rounds.stop)[:, None] + 0 * self._pair_i
        return np.stack((t, t + self._pair_j, 0 * t + self._pair_i), -1).reshape(-1, 3)

    def _true_rows(self, rounds: range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The instance's (loss rows, constraint rows, offsets) of a block;
        absent slices read +0.0."""
        inst = self._instance
        _, r, i = self._pairs(rounds).T
        live = (inst.m < r) & (r <= inst.horizon)
        idx = np.where(live, r, 0), i
        f, g, off = inst.f_coef[idx], inst.g_coef[idx], inst.g_off[idx]
        f[~live] = 0.0
        live &= inst.g_present[idx]
        g[~live], off[~live] = 0.0, 0.0
        return f, g, off


class PerfectPredictor(Predictor):
    """Returns the true slices."""

    kind = "perfect"

    def predict_f(self, rounds):
        return self._true_rows(rounds)[0]

    def predict_g(self, rounds):
        return self._true_rows(rounds)[1:]


class ZeroPredictor(Predictor):
    """No information: zero coefficients, inactive hinges."""

    kind = "zero"

    def predict_f(self, rounds):
        return np.zeros((len(rounds) * len(self._pair_i), self._instance.dim))

    def predict_g(self, rounds):
        rows = len(rounds) * len(self._pair_i)
        return np.zeros((rows, self._instance.dim)), np.zeros(rows)


@dataclass(eq=False)
class NoisyPredictor(Predictor):
    """True slices plus Gaussian perturbations of a given scale.

    Slice pair (r, i) queried in round t gets one standard normal draw
    `z` of length d + 1 from the generator seeded by
    `SeedSequence([seed, 7, t, r, i])`: the loss forecast is
    `f_coef + scale * z[:d]` and the constraint forecast is
    `(g_coef + scale * z[:d], g_off + scale * z[d])`.  The loss and
    constraint perturbations of one pair therefore share their first d
    components (they are correlated); this is kept so that recorded runs
    replay.  Draws are fresh per query round and frozen within one, which
    keeps the hint's self-consistency search deterministic.  scale = 0
    coincides with the perfect predictor.

    A block's draws are computed in numpy arrays (`pcg`): its
    SeedSequence words are hashed at once, and its PCG64 streams and
    numpy's ziggurat run for all rows at once, bit for bit; a row whose
    ziggurat rejects a draw is drawn by numpy's own generator, seeded
    from its words.  No SeedSequence is built.  Query rounds whose pairs
    pass 2^32 - 1 raise `OverflowError`.
    """

    kind = "noisy"

    scale: float
    seed: int = 0

    @staticmethod
    def check_params(scale, seed, **_) -> None:
        if scale < 0:
            raise ValueError(f"noise scale must be >= 0, got {scale}")
        if seed < 0:
            raise ValueError(f"noise seed must be a non-negative integer, got {seed}")

    def bind(self, instance) -> None:
        super().bind(instance)
        # the seed as SeedSequence splits an integer: 32-bit words, low first
        self._seed_words = [(self.seed >> k) & 0xFFFFFFFF
                            for k in range(0, max(self.seed.bit_length(), 1), 32)]
        self._rows_held = (range(0), None)

    def _rows(self, rounds: range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A block's forecast rows (f, g, off), made once for both hooks."""
        if self._rows_held[0] == rounds:
            return self._rows_held[1]
        self._rows_held = (range(0), None)  # dropped before the next block is made
        z = self._draws(rounds) if self.scale > 0 else None
        f, g, off = self._true_rows(rounds)
        if z is not None:
            f += z[:, :-1]
            g += z[:, :-1]
            off += z[:, -1]
        self._rows_held = (rounds, (f, g, off))
        return f, g, off

    def _draws(self, rounds: range) -> np.ndarray:
        """scale times the (n P, d + 1) draws of a block, row k P + i (i + 1)
        / 2 + j drawn from [seed, 7, t_k, t_k + j, i]."""
        from . import pcg  # loaded on the first draw: `import cocomem` never compiles it

        keys = self._pairs(rounds)
        if rounds.start < 0 or keys[-1, 1] > 0xFFFFFFFF:
            raise OverflowError(f"noise rounds {rounds.start}..{keys[-1, 1]} do not fit in 32 bits")
        entropy = np.empty((len(keys), len(self._seed_words) + 4), dtype=np.uint32)
        entropy[:, :-4] = self._seed_words
        entropy[:, -4] = 7
        entropy[:, -3:] = keys
        z = pcg.normal_rows(pcg.seed_sequence_words(entropy), self._instance.dim + 1)
        z *= self.scale
        return z

    def predict_f(self, rounds):
        return self._rows(rounds)[0]

    def predict_g(self, rounds):
        return self._rows(rounds)[1:]
