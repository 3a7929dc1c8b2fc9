"""Euclidean projections and the closed-form FTRL argmin.

The decision set is a ball, which at d = 1 is an interval, so no
iterative solver is involved anywhere: projection is a clamp (d = 1) or
radial scaling (d >= 2), and the regularized leader
argmin_x <g, x> + mu * 0.5 ||x - c||^2  is a projected affine map of g.
At d = 1 every function takes the interval's own expressions (np.clip,
lower bound first, and the sign rule), which round differently from the
radial ones; `ftrl_argmin` takes them in Python floats for a float g, in
its own frame, so a wrapper set on it sees each step of the float learner.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Ball, as_decision, fdot


def project(fset: Ball, p) -> np.ndarray:
    """l2 projection of p onto the decision set."""
    p = as_decision(p, fset.dim)
    if fset.dim == 1:
        return np.clip(p, fset.lo, fset.hi)
    diff = p - fset.center
    n = math.sqrt(fdot(diff, diff))
    if n <= fset.radius:
        return p.copy()
    return fset.center + diff * (fset.radius / n)


def minimize_linear(fset: Ball, g: np.ndarray) -> np.ndarray:
    """argmin_{x in set} <g, x>: at d = 1 the sign rule (g = 0 resolves to
    the center), at d >= 2 the boundary point against g (g = 0 resolves to
    the center), for determinism."""
    g = np.asarray(g, dtype=float)
    if fset.dim == 1:
        return np.where(g > 0, fset.lo, np.where(g < 0, fset.hi, fset.center))
    n = math.sqrt(fdot(g, g))
    if n == 0.0:
        return fset.center.copy()
    return fset.center - fset.radius * g / n


def dub_alpha(fset: Ball) -> float:
    """alpha = |X|^2, the scale of the optimistic learner's delayed
    upper-bound (DUB) weights (Flaspohler et al. 2021), fixed by the set."""
    return fset.diameter**2


def regret_coefficient(fset: Ball, memory: int) -> float:
    """(r_max/alpha + 1) * (m*|X| + sqrt(|X|^2 + alpha)), alpha =
    `dub_alpha(fset)`: the constant in front of the accumulated hint error
    in the delayed-FTRL regret bound.  r_max = (|X|/2)^2 / 2 is the maximum
    of the FTRL regularizer 0.5 ||x - center||^2 over the ball."""
    alpha, d = dub_alpha(fset), fset.diameter
    r_max = 0.5 * (d / 2.0) ** 2
    return (r_max / alpha + 1.0) * (memory * d + np.sqrt(d * d + alpha))


def ftrl_argmin(fset: Ball, g, mu: float):
    """Exact minimizer of <g, x> + mu * r(x) over the feasible set, with
    the regularizer r(x) = 0.5 ||x - center||^2 at the set's center.

    For mu > 0 the unconstrained optimum center - g/mu is projected onto
    the set (valid because r is centered at the set's center).  mu = 0
    degenerates to pure linear minimization.  At d = 1 a float g takes
    the same steps in Python floats, with numpy's bits and errors (the
    sign rule of `minimize_linear`, the clamp of `project`: np.clip, lower
    bound first), and returns a float; a list, tuple or array g takes the
    numpy path and returns a (d,) array.
    """
    if isinstance(g, float) and fset.dim == 1:
        if not math.isfinite(g):
            raise ValueError("linear term has non-finite entries")
        if mu < 0:
            raise ValueError("mu must be >= 0")
        lo, hi, center = fset.interval
        if mu == 0.0:
            return lo if g > 0 else hi if g < 0 else center
        x = center - g / mu
        if not math.isfinite(x):
            raise ValueError("decision has non-finite entries")
        x = x if x > lo else lo
        return x if x < hi else hi
    g = np.asarray(g, dtype=float)
    if g.shape != (fset.dim,):
        raise ValueError(f"linear term has shape {g.shape}, expected ({fset.dim},)")
    if not np.isfinite(g).all():
        raise ValueError("linear term has non-finite entries")
    if mu < 0:
        raise ValueError("mu must be >= 0")
    if mu == 0.0:
        return minimize_linear(fset, g)
    return project(fset, fset.center - g / mu)
