"""Experiment orchestration: JSON configs, per-seed runs, CSV traces,
aggregate summaries, and the verification entry points.

One config drives many seeds; every seed's pipeline (instance, learner,
metrics, files) is fully isolated, so seeds can run in parallel processes
and results are byte-identical across reruns of the same config.
"""

from __future__ import annotations

import itertools
import json
import os
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Literal

import numpy as np

from .core import json_rows, strict_json
from .environments import (
    RNG_NAME,
    AppendixAInstance,
    NoisyPredictor,
    PerfectPredictor,
    SeparableLinearInstance,
    ZeroPredictor,
    check_fields,
)
from .metrics import (
    BoundReport,
    MetricSeries,
    RunTrace,
    check_benchmark_dim,
    invariant_suite,
    regret_and_ccv,
    theorem_bound_report,
)
from .penalty import PenaltyKind
from .penalty_ogd import run_penalty_ogd

CSV_HEADER = (
    "t,x,f_mem,g_mem,g_plus_recorded,V_t,eta_or_mu,"
    "eps_f,eps_g,eps_Z,regret_static_cum,regret_perround_cum,ccv_cum"
)

ALGORITHMS = ("penalty_ogd", "odaf")
ENV_FAMILIES = {cls.kind: cls for cls in (AppendixAInstance, SeparableLinearInstance)}
PREDICTORS = {cls.kind: cls for cls in (PerfectPredictor, ZeroPredictor, NoisyPredictor)}
TRACEBACK_LINES = 10  # traceback tail kept per failed seed in the summary
CSV_BLOCK_ROWS = 512  # rows of a CSV formatted and written at a time


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """One experiment; its fields are the config file's top-level keys and
    their defaults, declared nowhere else."""

    algorithm: str
    environment: dict
    penalty: PenaltyKind = PenaltyKind.QUADRATIC
    lam: Literal["theorem", "sqrt_t", "doubling"] | float = "theorem"
    predictor: dict = field(default_factory=lambda: {"kind": "perfect"})
    error_estimate: float = 0.0
    seeds: list[int] = field(default_factory=lambda: [0])
    name: str = "experiment"

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        if isinstance(obj, dict) and "variant" in obj:
            raise ConfigError("the variant key is gone: the environment's constraint_memory "
                              "(true or false) says whether constraints have memory")
        try:  # the constructor rejects a key that is not a field
            cfg = cls(**obj)
        except TypeError as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        cfg.validate()
        unread = sorted(cfg._unread_keys() & obj.keys())
        if unread:
            raise ConfigError(f"{cfg.algorithm} at lam={cfg.lam!r} reads no {unread}")
        return cfg

    def _unread_keys(self) -> set[str]:
        """Keys the chosen learner never reads: a config that sets one is
        rejected rather than run as if it had not."""
        if self.algorithm == "penalty_ogd":
            return {"predictor", "error_estimate"}
        if not isinstance(self.lam, str):
            return {"error_estimate"}  # it only tunes lambda
        return set()

    def validate(self) -> None:
        """Type every field (`check_fields`; the enum by its constructor)
        and both nested parts, and check the values (ConfigError).  The CLI
        and the benchmark set `seeds` after loading, so a run validates again."""
        try:
            self.penalty = PenaltyKind(self.penalty)
            vars(self).update(check_fields(ExperimentConfig, vars(self)))
            env = self._check_part("environment", ENV_FAMILIES)
            self._check_part("predictor", PREDICTORS)
            check_benchmark_dim(env["dim"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        # the name prefixes the files written and names their directory under `runs/`
        if (self.name in ("", ".", "..") or os.path.basename(self.name) != self.name
                or "\0" in self.name):
            raise ConfigError(f"name must be a file name with no directory part or NUL, "
                              f"got {self.name!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if not isinstance(self.lam, str) and self.lam <= 0:
            raise ConfigError(f"lam must be positive, got {self.lam}")
        if self.error_estimate < 0:
            raise ConfigError(f"error_estimate must be >= 0, got {self.error_estimate}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {self.seeds}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {self.seeds}")
        if self.lam == "sqrt_t" and (self.algorithm != "penalty_ogd"
                                     or self.penalty is not PenaltyKind.QUADRATIC):
            raise ConfigError("the 1/sqrt(t) schedule is tied to penalty_ogd "
                              "with the quadratic penalty")
        if self.lam == "doubling" and self.algorithm != "odaf":
            raise ConfigError("the doubling trick tunes lambda for odaf only")
        if self.algorithm == "penalty_ogd":
            if self.penalty is PenaltyKind.EXPONENTIAL and env["constraint_memory"]:
                raise ConfigError("the exponential-penalty descent covers memory-less "
                                  "constraints only: set constraint_memory to false")
        else:
            if self.environment["kind"] != "separable_linear":
                raise ConfigError("the optimistic learners need separable linear slices")
            if self.penalty is not PenaltyKind.EXPONENTIAL:
                raise ConfigError("the optimistic learners use the exponential penalty")

    def _check_part(self, key: str, classes: dict) -> dict:
        """The typed field values of the nested part `key`, checked as its
        class's constructor checks them but without building it (ValueError).
        The part names the `kind` of one of `classes`; its other keys are
        fields of that class but `seed`, which the harness sets per run."""
        params = dict(getattr(self, key))
        kind = params.pop("kind", None)
        if not isinstance(kind, str) or kind not in classes:
            raise ValueError(f"unknown {key} kind {kind!r}")
        if "seed" in params:
            raise ValueError(f"the {key} takes no seed: the harness sets it per run")
        try:
            values = check_fields(classes[kind], params)
            classes[kind].check_params(**values)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad {key} parameters: {exc}") from exc
        return values


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def build_instance(cfg: ExperimentConfig, seed: int):
    env = dict(cfg.environment)
    return ENV_FAMILIES[env.pop("kind")](**env, seed=seed)


def build_predictor(cfg: ExperimentConfig, seed: int):
    params = dict(cfg.predictor)
    kind = PREDICTORS[params.pop("kind")]
    return kind(**params, seed=seed) if kind is NoisyPredictor else kind(**params)


def _lam(cfg: ExperimentConfig, instance):
    """The config's lambda as the runners take it: None (the learner's
    theorem lambda) for "theorem", 1/sqrt(t) over the instance's rounds for
    "sqrt_t", else the number."""
    if cfg.lam == "theorem":
        return None
    if cfg.lam == "sqrt_t":
        t = np.arange(instance.rounds.start, instance.rounds.stop)
        return 1.0 / np.sqrt(np.maximum(t, 1))
    return cfg.lam


def run_single(cfg: ExperimentConfig, seed: int) -> RunTrace:
    """One (config, seed) pipeline: instance generation plus the full run."""
    instance = build_instance(cfg, seed)
    if cfg.algorithm == "penalty_ogd":
        return run_penalty_ogd(instance, cfg.penalty, _lam(cfg, instance))

    # imported per call: a wrapper set on `optimistic` (perfbench's tracer) must be the one run
    from .optimistic import run_doubling, run_optimistic

    predictor = build_predictor(cfg, seed)
    if cfg.lam == "doubling":
        return run_doubling(instance, predictor, error_estimate=cfg.error_estimate)
    return run_optimistic(instance, predictor, lam=_lam(cfg, instance),
                          error_estimate=cfg.error_estimate)


# ---------------------------------------------------------------------------
# CSV / summary emission


def emit_csv(trace: RunTrace, series: MetricSeries, path: str | Path) -> None:
    """One row per round under the fixed header; floats as `repr` writes
    them (`core.json_rows`), coordinates semicolon-joined.  `V_t` and
    `ccv_cum` are the same column, the trace's cumulative violation.  Rows
    go out in blocks of `CSV_BLOCK_ROWS`, so the text held does not grow
    with the horizon; the file is complete and closed on return."""
    x = trace.col("x")
    cols = [x[:, 0]] if x.shape[1] == 1 else []  # at d = 1 a float column like the others
    cols += [trace.col(name) for name in ("f_mem", "g_mem", "g_plus_recorded", "ccv_cum",
                                          "eta_or_mu", "eps_f", "eps_g", "eps_z")]
    cols += [series.regret_static_cum, series.regret_perround_cum, trace.col("ccv_cum")]
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for lo in range(0, len(trace.records), CSV_BLOCK_ROWS):
            rows = slice(lo, lo + CSV_BLOCK_ROWS)
            fields = [json_rows(trace.col("t")[rows], repr)]
            if x.shape[1] > 1:  # each row's "a,b" as "a;b"
                fields.append("\n".join(json_rows(x[rows], repr)).replace(",", ";").split("\n"))
            fields.append(json_rows(np.column_stack([c[rows] for c in cols]), repr))
            # the fields of every row interleaved with their separators, one join
            k = 2 * len(fields)
            parts = [","] * (k * len(fields[0]))
            for j, field in enumerate(fields):
                parts[2 * j :: k] = field
            parts[k - 1 :: k] = ["\n"] * len(fields[0])
            fh.write("".join(parts))


def checkpoints(first_round: int, horizon: int) -> list[int]:
    """Summary rounds; round 0 is never one, since metrics are divided by t."""
    lo = max(first_round, 1)
    marks = {max(lo, horizon // 10), horizon // 4, horizon // 2, (3 * horizon) // 4, horizon}
    return sorted(t for t in marks if lo <= t <= horizon)


def _seed_metrics(trace: RunTrace, series: MetricSeries, marks: list[int]) -> dict:
    out = {}
    for t in marks:
        idx = t - trace.first_round
        out[str(t)] = {
            "regret_static_per_round": float(series.regret_static_cum[idx]) / t,
            "regret_perround_per_round": float(series.regret_perround_cum[idx]) / t,
            "ccv_per_round": float(series.ccv_cum[idx]) / t,
        }
    return out


def _run_one_seed(cfg: ExperimentConfig, seed: int, out_dir: str) -> dict:
    """Worker for one seed; returns checkpoint metrics (runs in a separate
    process under --parallel)."""
    trace = run_single(cfg, seed)
    trace.validate()
    series = regret_and_ccv(trace)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_csv(trace, series, out / f"{cfg.name}_seed{seed}.csv")
    (out / f"{cfg.name}_seed{seed}_instance.json").write_text(trace.instance.to_json())
    marks = checkpoints(trace.first_round, trace.horizon)
    return {"seed": seed, "checkpoints": _seed_metrics(trace, series, marks)}


def _seed_failure(seed: int, exc: BaseException, origin: BaseException | None = None) -> dict:
    """Summary record of a failed seed: the message, the exception type and
    the last lines of the traceback of `origin` (default `exc`)."""
    lines = "".join(traceback.format_exception(origin or exc)).splitlines()
    return {"seed": seed, "error": str(exc), "type": type(exc).__name__,
            "traceback": lines[-TRACEBACK_LINES:]}


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None,
                   parallel: int = 1) -> dict:
    """Run every seed, write one CSV (plus instance JSON) per seed and an
    aggregate summary with per-checkpoint means and standard deviations
    into `out_dir` (default `runs/<name>`).  Failed seeds are recorded and
    excluded from aggregates.  Seeds run in at most `parallel` worker
    processes, never more than there are seeds (a forked pool starts all
    its workers at the first task).  An output directory that cannot be
    made is a ConfigError, and no directory made on the way is left."""
    cfg.validate()
    out = Path(out_dir) if out_dir is not None else Path("runs", cfg.name)
    missing = list(itertools.filterfalse(os.path.exists, (out, *out.parents)))  # deepest first
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        for p in filter(os.path.isdir, missing):
            p.rmdir()
        raise ConfigError(f"cannot make output directory {str(out)!r}: {exc.strerror}") from exc
    results, failed = [], []
    workers = min(parallel, len(cfg.seeds))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [(seed, pool.submit(_run_one_seed, cfg, seed, str(out)))
                    for seed in cfg.seeds]
            for seed, fut in futs:
                try:
                    results.append(fut.result())
                except Exception as exc:  # noqa: BLE001 - seed isolation
                    # the worker's own traceback arrives as the cause; the
                    # local frames only show the future being read
                    failed.append(_seed_failure(seed, exc, exc.__cause__))
    else:
        for seed in cfg.seeds:
            try:
                results.append(_run_one_seed(cfg, seed, str(out)))
            except Exception as exc:  # noqa: BLE001 - seed isolation
                failed.append(_seed_failure(seed, exc))

    summary: dict = {
        "config": {**asdict(cfg), "penalty": cfg.penalty.value},
        "rng": RNG_NAME,
        "seeds_completed": [r["seed"] for r in results],
        "seeds_failed": failed,
        "checkpoints": {},
    }
    if results:
        marks = sorted(results[0]["checkpoints"], key=int)
        keys = ("regret_static_per_round", "regret_perround_per_round", "ccv_per_round")
        # row (mark, key), column seed: each row reduces as a 1-D call would, bit for bit;
        # a run with no played round has no mark and no row
        vals = np.array([[r["checkpoints"][t][k] for r in results] for t in marks for k in keys]
                        ).reshape(len(marks) * len(keys), len(results))
        means, stds = (f(vals, axis=1).reshape(-1, len(keys)).tolist() for f in (np.mean, np.std))
        for t, mean, std in zip(marks, means, stds):
            summary["checkpoints"][t] = {key: {"mean": m, "std": s}
                                         for key, m, s in zip(keys, mean, std)}
    (out / f"{cfg.name}_summary.json").write_text(strict_json(summary, indent=2))
    return summary


def _audit_seeds(cfg: ExperimentConfig, audit) -> list[tuple[int, object]]:
    """(seed, audit(trace)) of every config seed, in order.  A seed that
    fails stops the audit with a RuntimeError that names it."""
    out = []
    for seed in cfg.seeds:
        try:
            out.append((seed, audit(run_single(cfg, seed))))
        except Exception as exc:  # noqa: BLE001 - named and raised again
            raise RuntimeError(f"seed {seed}: {exc}") from exc
    return out


def verify_experiment(cfg: ExperimentConfig) -> tuple[bool, list[str]]:
    """Run the invariant suite on every seed; returns (all passed, lines)."""
    lines, ok = [], True
    for seed, results in _audit_seeds(cfg, invariant_suite):
        for res in results:
            lines.append(f"seed {seed}: {res}")
            ok = ok and res.passed
    return ok, lines


def bounds_reports(cfg: ExperimentConfig) -> list[tuple[int, BoundReport]]:
    return _audit_seeds(cfg, theorem_bound_report)
