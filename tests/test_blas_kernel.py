"""The pins whose values a BLAS dot product could round: the d = 2 trace
pins of `test_optimistic` and the d >= 2 instance pins of
`test_environments` and `test_instance_generator`, computed again in one
child interpreter whose OpenBLAS runs its Haswell kernel.

OpenBLAS picks a dot kernel for the CPU it runs on, and the kernels group
a dot product's terms differently: on one AVX-512 x86-64 machine the
SkylakeX kernel rounded 4,863 of 20,000 random normal 2-term dots
otherwise than in-order addition, the Haswell and Sandybridge kernels
none.  The package adds every d-vector's products in index
order from 0.0 (`core.fdot`), so its bits must not depend on the kernel.
`OPENBLAS_CORETYPE` is set in the child's environment only; with another
BLAS it changes nothing, and the pins must hold all the same.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_environments import PINNED_INSTANCES as SEPARABLE_PINS
from test_instance_generator import PINNED_INSTANCES as GENERATOR_PINS
from test_optimistic import PINNED_TRACES

TESTS = Path(__file__).resolve().parent

CHILD = """
import json, sys
from cocomem import SeparableLinearInstance
from helpers import instance_digest, trace_digest
cases, params = json.loads(sys.argv[1])
print(json.dumps([[trace_digest(*case) for case in cases],
                  [instance_digest(SeparableLinearInstance(**p)) for p in params]]))
"""


def test_kernel_sensitive_pins_hold_under_the_haswell_kernel():
    cases = sorted(case for case in PINNED_TRACES if case[3] >= 2)
    instances = [(p, digest) for p, digest in SEPARABLE_PINS + GENERATOR_PINS
                 if p.get("dim", 1) >= 2]
    assert len(cases) == 12 and len(instances) == 2
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])}
    child = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps([cases, [p for p, _ in instances]])],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    traces, arrays = json.loads(child.stdout)
    assert dict(zip(cases, traces)) == {case: PINNED_TRACES[case] for case in cases}
    assert arrays == [digest for _, digest in instances]
