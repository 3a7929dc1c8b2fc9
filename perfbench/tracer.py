"""Span tracer that instruments cocomem from outside the package.

The tracer replaces public functions and methods at cocomem's module
boundaries with thin wrappers, records what they did, and puts the
originals back afterwards.  Nothing inside ``src/`` knows it is traced.

Three kinds of wrapper exist:

* ``span``: one record per call (name, start, end, parent, seed), used at
  coarse boundaries such as ``run_experiment`` or one learner run;
* ``hot``: the same timing and parent bookkeeping, but calls are folded
  into one record per (parent span, name) with a call count, because
  per-round functions (``project``, ``ftrl_argmin``, predictor queries)
  run hundreds of thousands of times per pass;
* ``count``: a call counter with no timing, for very cheap per-round
  calls whose timing would cost more than the call itself.

Every timed wrapper charges its duration to the enclosing timed frame,
so a frame's self time is its duration minus its timed children, and the
self times of all frames add up to the duration of the root span.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


class MissingTarget(LookupError):
    """A function or method the tracer was asked to wrap does not exist."""


class Tracer:
    def __init__(self):
        # span records: [name, start, end, parent index, seed, self seconds]
        self.spans: list[list] = []
        # (parent span index, name) -> [calls, total seconds, self seconds]
        self.groups: dict[tuple[int, str], list] = {}
        self.counts: Counter = Counter()
        self.seed: int | None = None
        self._frames: list[list] = []  # per open timed call: [seconds of timed children]
        self._open: list[int] = []  # indices of open span records
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def _timed(self, name: str, fn, folded: bool, before=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frames, open_spans = tracer._frames, tracer._open
            parent = open_spans[-1] if open_spans else -1
            if not folded:
                idx = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.seed, 0.0])
                open_spans.append(idx)
            frame = [0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                dur = end - start
                if frames:
                    frames[-1][0] += dur
                if folded:
                    group = tracer.groups.get((parent, name))
                    if group is None:
                        group = tracer.groups[(parent, name)] = [0, 0.0, 0.0]
                    group[0] += 1
                    group[1] += dur
                    group[2] += dur - frame[0]
                else:
                    open_spans.pop()
                    rec = tracer.spans[idx]
                    rec[1], rec[2], rec[5] = start, end, dur - frame[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def root(self, name: str, fn, *args, **kwargs):
        """Call fn(*args) inside a span that has no parent."""
        return self._timed(name, fn, folded=False)(*args, **kwargs)

    # -- installing and removing wrappers ------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace owner.attr with make(original).  A missing attribute is
        an error: a layer reached some other way would silently read as
        zero time and its cost would move into its caller's self time."""
        original = getattr(owner, attr, None)
        if original is None:
            raise MissingTarget(f"{getattr(owner, '__name__', owner)}.{attr}")
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, make(original))

    def span(self, owner, attr, name, before=None, after=None) -> None:
        self.patch(owner, attr, lambda fn: self._timed(name, fn, False, before, after))

    def hot(self, owner, attr, name) -> None:
        self.patch(owner, attr, lambda fn: self._timed(name, fn, True))

    def count(self, owner, attr, name) -> None:
        self.patch(owner, attr, lambda fn: self._counted(name, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- reading -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, _, _, _, _, self_s in self.spans:
            out[name] += self_s
        for (_, name), (_, _, self_s) in self.groups.items():
            out[name] += self_s
        return dict(out)

    def inclusive(self, name: str) -> float:
        """Summed duration of the spans called `name` (children included)."""
        return sum(end - start for n, start, end, _, _, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        spans = sum(1 for rec in self.spans if rec[0] == name)
        return spans + sum(g[0] for (_, n), g in self.groups.items() if n == name)

    def write(self, path: str | Path, extra: dict) -> None:
        doc = {
            "span_fields": ["name", "start_s", "end_s", "parent", "seed", "self_s"],
            "spans": self.spans,
            "group_fields": ["parent", "name", "calls", "total_s", "self_s"],
            "groups": [[p, n, *g] for (p, n), g in sorted(self.groups.items())],
            "counts": dict(self.counts),
            **extra,
        }
        Path(path).write_text(json.dumps(doc))
