"""The Hypothesis profile the suite runs under.

`tier1` is Hypothesis' default profile without the shrink phase: the
examples and every verdict stay the same, and a failing property reports
its first failing example at once.  Shrinking the long float lists of the
writer tests took minutes on a defect that failed them, against seconds
for the passing suite.  `pytest --hypothesis-profile=default` loads the
default profile after this file and brings shrinking back.
"""

from hypothesis import Phase, settings

settings.register_profile("tier1", phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("tier1")
