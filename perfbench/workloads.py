"""Workloads, their seed plans, one closed-loop iteration, and the
correctness gate on what each iteration produced.

An iteration runs one seed through every config of a workload, one
config after the other, through cocomem's public entry points
(`harness.run_experiment` or `harness.verify_experiment`).  Seeds are
drawn from a fixed pool so that every seed run has recorded reference
values (`reference.json`) to be checked against.
"""

from __future__ import annotations

import json
import math
import random
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

POOL = 64  # seeds 0..POOL-1 of every config have recorded reference values
REL_TOL = 1e-9  # regret and violation must replay to this relative tolerance
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "run" -> harness.run_experiment, "verify" -> harness.verify_experiment
    configs: tuple[str, ...]
    # nominal seconds per iteration (uncalibrated, shared 2-core x86 VM,
    # CPython 3.11); only used to turn --seconds into an iteration count
    iter_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ogd_reference", "run", ("reference_stochastic", "reference_adversarial"), 0.7),
        Workload("odaf_perfect", "run", ("optimistic_perfect",), 0.8),
        Workload("odaf_doubling_noisy", "run", ("doubling_noisy",), 2.0),
        Workload("verify_audit", "verify", ("reference_stochastic", "optimistic_perfect"), 4.5),
    )
}


def iterations(workload: Workload, seconds: float) -> int:
    """How many iterations a run of about `seconds` makes.  The count is
    fixed by the workload and `seconds`, not by the clock, so the same
    base seed always runs the same seeds and attempts (and fails) the same
    operations however fast the machine is at the time."""
    return max(1, round(seconds / workload.iter_s))


def seed_plan(base_seed: int, workload: Workload) -> list[dict[str, int]]:
    """Seeds per iteration: entry i maps each config to the seed iteration
    i runs.  Each config walks its own permutation of the pool, drawn from
    the base seed; a run that needs more iterations starts over."""
    rng = random.Random(base_seed)
    orders = {c: rng.sample(range(POOL), POOL) for c in workload.configs}
    return [{c: orders[c][i] for c in workload.configs} for i in range(POOL)]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


_CHECK_LINE = re.compile(r"^seed (-?\d+): \[(ok |FAIL)\] ([^:]+):")


def read_csv_outcome(path: Path, header: str) -> tuple[int, int, float, float]:
    """(data rows, last round, regret_static_cum, ccv_cum) of one seed CSV;
    raises ValueError when the header is not `header`."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header differs from harness.CSV_HEADER")
    cols = header.split(",")
    last = lines[-1].split(",")
    if len(last) != len(cols):
        raise ValueError(f"{path.name}: last row has {len(last)} fields, header {len(cols)}")
    return (len(lines) - 1, int(last[cols.index("t")]),
            float(last[cols.index("regret_static_cum")]), float(last[cols.index("ccv_cum")]))


def _close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


@dataclass
class Tally:
    """Operations attempted and failed, the reasons, and each seed's
    regret and violation relative to its recorded reference."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list[str] = field(default_factory=list)
    failed_checks: dict[str, int] = field(default_factory=dict)
    deviation: dict[str, list[float]] = field(
        default_factory=lambda: {"regret_T": [], "ccv_T": []})
    absolute: dict[str, list[float]] = field(
        default_factory=lambda: {"regret_T": [], "ccv_T": []})

    def wrong(self, what: str) -> None:
        self.correct = False
        if len(self.problems) < 20:
            self.problems.append(what)

    def compare(self, ref: dict, config: str, seed: int, regret: float, ccv: float) -> bool:
        """Record R_T/T and V_T/T against the reference; False on mismatch."""
        ok = True
        for key, value in (("regret_T", regret), ("ccv_T", ccv)):
            want = ref["configs"][config][key][seed]
            self.absolute[key].append(value)
            self.deviation[key].append((value - want) / max(abs(want), 1e-12))
            if not _close(value, want, REL_TOL):
                self.wrong(f"{config} seed {seed}: {key} {value!r} != recorded {want!r}")
                ok = False
        return ok


class Session:
    """One workload bound to a cocomem import: runs iterations and checks
    their outputs.  Verify iterations stash each audited trace (through a
    wrapper on `harness.invariant_suite`) so the replay can be checked
    against the reference after the timed region."""

    def __init__(self, root: Path, workload: Workload, out_dir: Path):
        from cocomem import harness, metrics

        self.harness, self.metrics = harness, metrics
        self.workload = workload
        self.out_dir = out_dir
        self.reference = load_reference()
        self.cfgs = {c: harness.load_config(root / "configs" / f"{c}.json")
                     for c in workload.configs}
        self.tally = Tally()
        self._stash: dict[tuple[str, int], object] = {}
        self._current = ""
        self._original_suite = None

    # -- verify-trace stash ---------------------------------------------------

    def __enter__(self):
        if self.workload.entry == "verify":
            suite = self._original_suite = self.harness.invariant_suite

            def stashing_suite(trace, *args, **kwargs):
                self._stash[(self._current, trace.instance.seed)] = trace
                return suite(trace, *args, **kwargs)

            self.harness.invariant_suite = stashing_suite
        return self

    def __exit__(self, *exc):
        if self._original_suite is not None:
            self.harness.invariant_suite = self._original_suite
            self._original_suite = None
        shutil.rmtree(self.out_dir, ignore_errors=True)

    # -- one config call --------------------------------------------------------

    def run(self, name: str, seed: int):
        """One config on one seed through cocomem's public entry point;
        returns the raw output for `check`, or the exception it raised.
        This is the timed call."""
        cfg = self.cfgs[name]
        cfg.seeds = [seed]
        self._current = name
        try:
            if self.workload.entry == "run":
                return self.harness.run_experiment(cfg, self.out_dir / name, parallel=1)
            return self.harness.verify_experiment(cfg)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            return exc

    def check(self, name: str, seed: int, output) -> None:
        if isinstance(output, Exception):
            self.tally.attempted += 1
            self.tally.failed += 1
            self.tally.wrong(f"{name} seed {seed}: raised {type(output).__name__}: {output}")
            self._stash.pop((name, seed), None)
            shutil.rmtree(self.out_dir / name, ignore_errors=True)
        elif self.workload.entry == "run":
            self._check_run(name, seed, output)
        else:
            self._check_verify(name, seed, output)

    def _check_run(self, name: str, seed: int, summary: dict) -> None:
        """One seed pipeline: it fails when it raised or failed
        RunTrace.validate (both land in seeds_failed), when its CSV header
        or row count is wrong, or when R_T/T or V_T/T differ from the
        reference."""
        t = self.tally
        t.attempted += 1
        cfg = self.cfgs[name]
        ref = self.reference["configs"][name]
        horizon = int(cfg.environment["horizon"])
        out = self.out_dir / name
        try:
            if summary["seeds_failed"] or summary["seeds_completed"] != [seed]:
                raise ValueError(f"seed failed in the pipeline: {summary['seeds_failed']}")
            rows, last_t, reg_cum, ccv_cum = read_csv_outcome(
                out / f"{cfg.name}_seed{seed}.csv", self.harness.CSV_HEADER)
            if rows != ref["rows"] or last_t != horizon:
                raise ValueError(f"{rows} rows ending at t={last_t}, "
                                 f"expected {ref['rows']} ending at t={horizon}")
            if not (out / f"{cfg.name}_seed{seed}_instance.json").stat().st_size:
                raise ValueError("empty instance JSON")
            regret, ccv = reg_cum / horizon, ccv_cum / horizon
            block = summary["checkpoints"][str(horizon)]
            for key, value in (("regret_static_per_round", regret), ("ccv_per_round", ccv)):
                if not _close(block[key]["mean"], value, 1e-12):
                    raise ValueError(f"summary {key} {block[key]['mean']!r} "
                                     f"disagrees with the CSV ({value!r})")
            if not t.compare(self.reference, name, seed, regret, ccv):
                t.failed += 1
        except (OSError, ValueError, KeyError, IndexError) as exc:
            t.failed += 1
            t.wrong(f"{name} seed {seed}: {exc}")
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check_verify(self, name: str, seed: int, result) -> None:
        """Operations are (seed, check) verdicts; a FAIL verdict is a failed
        operation.  The output is wrong when verify's overall flag
        disagrees with its lines, a line does not parse, or the audited
        replay differs from the reference."""
        t = self.tally
        ok, lines = result
        verdicts = []
        for line in lines:
            m = _CHECK_LINE.match(line)
            if m is None or int(m.group(1)) != seed:
                t.wrong(f"{name} seed {seed}: unexpected verify line {line!r}")
                continue
            verdicts.append((m.group(3), m.group(2) == "ok "))
        t.attempted += max(len(verdicts), 1)
        if not verdicts:
            t.failed += 1
            t.wrong(f"{name} seed {seed}: verify produced no check lines")
        for check, passed in verdicts:
            if not passed:
                t.failed += 1
                key = f"{name}:{check}"
                t.failed_checks[key] = t.failed_checks.get(key, 0) + 1
        if ok != all(p for _, p in verdicts):
            t.wrong(f"{name} seed {seed}: verify returned ok={ok} against its own lines")
        trace = self._stash.pop((name, seed), None)
        if trace is None:
            t.wrong(f"{name} seed {seed}: no audited trace")
            return
        series = self.metrics.regret_and_ccv(trace)
        horizon = trace.horizon
        regret = float(series.regret_static_cum[-1]) / horizon
        ccv = float(series.ccv_cum[-1]) / horizon
        if not t.compare(self.reference, name, seed, regret, ccv):
            t.failed += sum(1 for _, p in verdicts if p)
