"""The per-round slice generator that `SeparableLinearInstance._generate`
replaced, and the replay-JSON writer that `_Instance.to_json` replaced:
the references the two are held to, byte for byte.

`ReferenceSeparableInstance._generate` is the loop the package shipped
before the generator read its stream as blocks of raw PCG64 words
(`cocomem.pcg.RawWords`, which loads `cocomem.pcg` at the first separable
instance) and moved the slice arithmetic after the walk over them: one
numpy generator call per round and five per constraint slice, in stream
order.  It is kept unchanged but for its norms and dot products, which
add in index order from 0.0 (`reference_ogd.fdot`), the package's one
order, where numpy's BLAS may round otherwise.  It takes its generator
from `_instance_rng` in this module's namespace, so a test can hand both
generators one built stream.  Every other method is the package's.
`to_json` is the writer the package shipped before it wrote each array's
floats through `core.array_json`, kept unchanged but for taking the
instance as an argument.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields

import numpy as np

from cocomem import SeparableLinearInstance
from cocomem.environments import RNG_NAME, _instance_rng
from reference_ogd import fdot


class ReferenceSeparableInstance(SeparableLinearInstance):
    def _generate(self):
        rng = _instance_rng(self.seed)
        T, m, d = self.horizon, self.m, self.dim
        self.f_coef = np.zeros((T + 1, m + 1, d))
        self.g_coef = np.zeros((T + 1, m + 1, d))
        self.g_off = np.zeros((T + 1, m + 1))
        self.g_present = np.zeros((T + 1, m + 1), dtype=bool)

        w = rng.normal(size=d)
        w /= math.sqrt(fdot(w.tolist(), w.tolist()))
        base_sign = 1.0 if rng.uniform() < 0.5 else -1.0
        n_active = T - m
        block_len = max(1, math.ceil(n_active / max(1, self.blocks)))

        for t in range(m + 1, T + 1):
            block = (t - m - 1) // block_len
            sign = base_sign * (1.0 if block % 2 == 0 else -1.0)
            # one draw per round: the same doubles, in the same order, as
            # one size-d draw per delay
            self.f_coef[t] = (
                self.drift * sign * w + self.noise * rng.uniform(-1.0, 1.0, size=(m + 1, d))
            ) / (m + 1)
            if rng.uniform() < self.g_round_density:
                i = int(rng.integers(0, m + 1)) if self.constraint_memory else 0
                direction = rng.normal(size=d)
                direction /= math.sqrt(fdot(direction.tolist(), direction.tolist()))
                mag = rng.uniform(*self.g_mag)
                coeff = mag * direction
                sup = self.fset.support(coeff) - fdot(coeff.tolist(), self.fset.center.tolist())
                if rng.uniform() < self.g_active_fraction:
                    root = rng.uniform(*self.g_root)
                else:
                    root = rng.uniform(1.05, 1.5)
                self.g_coef[t, i] = coeff
                self.g_off[t, i] = -root * sup
                self.g_present[t, i] = True


def to_json(inst) -> str:
    """The replay-JSON writer that `_Instance.to_json` replaced: every
    array turned into nested Python lists, then one `json.dumps`."""
    doc = {"kind": inst.kind, "rng": RNG_NAME, "seed": inst.seed}
    params = {}
    for f in fields(inst):
        if f.name != "seed":
            (params if f.metadata.get("params") else doc)[f.name] = getattr(inst, f.name)
    if params:
        doc["params"] = params
    doc.update((name, getattr(inst, name).tolist()) for name in inst._ARRAYS)
    return json.dumps(doc)
