"""Each test module starts from a heap with no cyclic garbage.

When a cyclic-GC pass runs depends on every allocation made earlier in
the process.  `perfbench/tests` holds traced time to wall time within
0.1 ms, and a pass that lands in the tracer's few untraced instructions
takes longer than that; collecting before each module makes its tests
see the GC state they see when run alone, whatever the modules before
them allocated.
"""

import gc

import pytest


@pytest.fixture(autouse=True, scope="module")
def _collected_heap():
    gc.collect()
