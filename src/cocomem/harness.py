"""Experiment orchestration: JSON configs, per-seed runs, CSV traces,
aggregate summaries, and the verification entry points.

One config drives many seeds; every seed's pipeline (instance, learner,
metrics, files) is fully isolated, so seeds can run in parallel processes
and results are byte-identical across reruns of the same config.
"""

from __future__ import annotations

import inspect
import json
import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .core import Variant
from .environments import (
    RNG_NAME,
    AppendixAInstance,
    NoisyPredictor,
    PerfectPredictor,
    SeparableLinearInstance,
    ZeroPredictor,
    is_number,
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
from .penalty import (
    LambdaSchedule,
    PenaltyKind,
    lambda_exponential_short_memory,
    lambda_quadratic,
)
from .penalty_ogd import run_penalty_ogd

CSV_HEADER = (
    "t,x,f_mem,g_mem,g_plus_recorded,V_t,eta_or_mu,"
    "eps_f,eps_g,eps_Z,regret_static_cum,regret_perround_cum,ccv_cum"
)

ALGORITHMS = ("penalty_ogd", "odaf", "odaf_doubling")
ENV_FAMILIES = {cls.kind: cls for cls in (AppendixAInstance, SeparableLinearInstance)}
PREDICTORS = {cls.kind: cls for cls in (PerfectPredictor, ZeroPredictor, NoisyPredictor)}
LAMBDA_MODES = ("fixed_theorem", "sqrt_t_schedule", "explicit")
TRACEBACK_LINES = 10  # traceback tail kept per failed seed in the summary


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """One experiment; its fields are the config file's top-level keys and
    their defaults, declared nowhere else."""

    algorithm: str
    variant: Variant
    environment: dict
    penalty: PenaltyKind = PenaltyKind.QUADRATIC
    lambda_mode: str = "fixed_theorem"
    lambda_value: float | None = None
    predictor: dict = field(default_factory=lambda: {"kind": "perfect"})
    error_estimate: float = 0.0
    alpha: float | None = None
    seeds: list[int] = field(default_factory=lambda: [0])
    out_dir: str = "runs"
    name: str = "experiment"

    def __post_init__(self) -> None:
        self.variant = Variant(self.variant)
        self.penalty = PenaltyKind(self.penalty)
        for f in fields(self):  # annotations are strings (postponed evaluation)
            value = getattr(self, f.name)
            if f.type == "float" or (f.type == "float | None" and value is not None):
                if not is_number(value):  # float() would read "2" or true
                    raise TypeError(f"{f.name} must be a finite number, got {value!r}")
                setattr(self, f.name, float(value))
            if f.type == "dict":
                if not isinstance(value, dict):  # dict() would read [key, value] pairs
                    raise TypeError(f"{f.name} must be a JSON object, got {value!r}")
                setattr(self, f.name, dict(value))

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        try:  # the constructor rejects a key that is not a field
            cfg = cls(**obj)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        cfg.validate()
        unread = sorted(cfg._unread_keys() & obj.keys())
        if unread:
            raise ConfigError(f"{cfg.algorithm} in {cfg.lambda_mode} lambda mode reads no {unread}")
        return cfg

    def _unread_keys(self) -> set[str]:
        """Keys the chosen learner never reads: a config that sets one is
        rejected rather than run as if it had not."""
        if self.algorithm == "penalty_ogd":
            return {"predictor", "alpha", "error_estimate"}
        if self.algorithm == "odaf" and self.lambda_mode == "explicit":
            return {"error_estimate"}  # it only tunes lambda
        return set()

    def validate(self) -> None:
        # int(0.9) or int(True) would run a seed the config does not name
        if not (isinstance(self.seeds, list) and all(
                isinstance(s, int) and not isinstance(s, bool) for s in self.seeds)):
            raise ConfigError(f"seeds must be a list of integers, got {self.seeds!r}")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        # the name prefixes the files written into the output directory
        if not (isinstance(self.name, str) and self.name
                and os.path.basename(self.name) == self.name):
            raise ConfigError(f"name must be a file name with no directory part, "
                              f"got {self.name!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        for key in ("environment", "predictor"):
            if "seed" in getattr(self, key):
                raise ConfigError(f"the {key} takes no seed: the harness sets it per run")
        kind = self.environment.get("kind")
        if not isinstance(kind, str) or kind not in ENV_FAMILIES:
            raise ConfigError(f"unknown environment kind {kind!r}")
        self._check_environment(ENV_FAMILIES[kind])
        self._check_predictor()
        if self.lambda_mode not in LAMBDA_MODES:
            raise ConfigError(f"unknown lambda mode {self.lambda_mode!r}")
        # __post_init__ made every float field a finite float
        if self.lambda_value is not None and self.lambda_value <= 0:
            raise ConfigError(f"lambda_value must be positive, got {self.lambda_value}")
        if self.alpha is not None and self.alpha <= 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if self.error_estimate < 0:
            raise ConfigError(f"error_estimate must be >= 0, got {self.error_estimate}")
        if self.lambda_mode == "explicit" and self.lambda_value is None:
            raise ConfigError("explicit lambda mode needs a lambda_value")
        if self.lambda_mode != "explicit" and self.lambda_value is not None:
            raise ConfigError(f"lambda_value is read only in explicit lambda mode, "
                              f"not in {self.lambda_mode!r}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {self.seeds}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {self.seeds}")
        if self.algorithm == "penalty_ogd":
            if self.lambda_mode == "sqrt_t_schedule" and self.penalty is not PenaltyKind.QUADRATIC:
                raise ConfigError("the 1/sqrt(t) schedule is tied to the quadratic penalty")
            if self.penalty is PenaltyKind.EXPONENTIAL and self.variant is not Variant.COCO_M:
                raise ConfigError(
                    "the exponential-penalty descent covers memory-less constraints only"
                )
        else:
            if kind != "separable_linear":
                raise ConfigError("the optimistic learners need separable linear slices")
            if self.penalty is not PenaltyKind.EXPONENTIAL:
                raise ConfigError("the optimistic learners use the exponential penalty")
            if self.lambda_mode == "sqrt_t_schedule":
                raise ConfigError("the optimistic learners use a fixed lambda per epoch")
            if self.algorithm == "odaf_doubling" and self.lambda_mode == "explicit":
                raise ConfigError("odaf_doubling tunes lambda per epoch; it takes no lambda_value")
            cmem = self.environment.get("constraint_memory", True)
            if self.variant is Variant.COCO_M and cmem:
                raise ConfigError(
                    "memory-less-constraint runs need constraint_memory=false slices"
                )

    def _check_environment(self, family) -> None:
        """The checks the family's constructor makes, without generating an
        instance, plus the dimensions the benchmark solvers cover.  Private
        constructor arguments (a leading `_`, such as `_arrays`) are for
        the replay reader, not for configs."""
        env = {k: v for k, v in self.environment.items() if k != "kind"}
        private = sorted(k for k in env if k.startswith("_"))
        if private:
            raise ConfigError(f"bad environment parameters: private keys {private}")
        try:
            args = inspect.signature(family).bind(**env)
            args.apply_defaults()
            family.check_fields(**args.arguments)
            check_benchmark_dim(args.arguments["dim"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad environment parameters: {exc}") from exc

    def _check_predictor(self) -> None:
        """A predictor names its `kind`; its other keys are that class's
        constructor arguments, which the constructor checks."""
        kind = self.predictor.get("kind")
        if not isinstance(kind, str) or kind not in PREDICTORS:
            raise ConfigError(f"unknown predictor kind {kind!r}")
        try:
            build_predictor(self, 0)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad predictor parameters: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def build_instance(cfg: ExperimentConfig, seed: int):
    env = dict(cfg.environment)
    family = ENV_FAMILIES[env.pop("kind")]
    try:
        return family(**env, seed=seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad environment parameters: {exc}") from exc


def build_predictor(cfg: ExperimentConfig, seed: int):
    params = dict(cfg.predictor)
    kind = PREDICTORS[params.pop("kind")]
    return kind(**params, seed=seed) if kind is NoisyPredictor else kind(**params)


def _ogd_schedule(cfg: ExperimentConfig, instance) -> LambdaSchedule:
    if cfg.lambda_mode == "sqrt_t_schedule":
        return LambdaSchedule("sqrt_t")
    if cfg.lambda_mode == "explicit":
        return LambdaSchedule("fixed", cfg.lambda_value)
    if cfg.penalty is PenaltyKind.QUADRATIC:
        return LambdaSchedule("fixed", lambda_quadratic(instance.horizon))
    k = instance.constants()
    return LambdaSchedule(
        "fixed",
        lambda_exponential_short_memory(
            instance.horizon, instance.m, k.diameter, k.l_f, k.l_g
        ),
    )


def run_single(cfg: ExperimentConfig, seed: int) -> RunTrace:
    """One (config, seed) pipeline: instance generation plus the full run."""
    instance = build_instance(cfg, seed)
    if cfg.algorithm == "penalty_ogd":
        return run_penalty_ogd(instance, cfg.variant, cfg.penalty, _ogd_schedule(cfg, instance))

    from .optimistic import run_doubling, run_optimistic

    predictor = build_predictor(cfg, seed)
    if cfg.algorithm == "odaf":
        lam = cfg.lambda_value if cfg.lambda_mode == "explicit" else None
        return run_optimistic(
            instance, cfg.variant, predictor,
            lam=lam, error_estimate=cfg.error_estimate, alpha=cfg.alpha,
        )
    return run_doubling(instance, cfg.variant, predictor, alpha=cfg.alpha,
                        initial_error=cfg.error_estimate)


# ---------------------------------------------------------------------------
# CSV / summary emission


def emit_csv(trace: RunTrace, series: MetricSeries, path: str | Path) -> None:
    """One row per round under the fixed header; floats in shortest
    round-trip decimal, coordinates semicolon-joined.  `V_t` is the
    trace's cumulative violation `ccv_cum`."""
    floats = [trace.col(name) for name in ("f_mem", "g_mem", "g_plus_recorded", "ccv_cum",
                                           "eta_or_mu", "eps_f", "eps_g", "eps_z")]
    floats += [series.regret_static_cum, series.regret_perround_cum, series.ccv_cum]
    columns = [[str(t) for t in trace.col("t").tolist()],
               [";".join(map(repr, x)) for x in trace.col("x").tolist()]]
    columns += [list(map(repr, col.tolist())) for col in floats]
    lines = [CSV_HEADER, *map(",".join, zip(*columns))]
    Path(path).write_text("\n".join(lines) + "\n")


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
    """Run every seed, write one CSV (plus instance JSON) per seed, and an
    aggregate summary with per-checkpoint means and standard deviations.
    Failed seeds are recorded and excluded from aggregates.  Seeds run in
    at most `parallel` worker processes, never more than there are seeds
    (a forked pool starts all its workers at the first task)."""
    cfg.validate()
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results, failed = [], []
    workers = min(parallel, len(cfg.seeds))
    if workers > 1:
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
        "config": {**asdict(cfg), "variant": cfg.variant.value, "penalty": cfg.penalty.value},
        "rng": RNG_NAME,
        "seeds_completed": [r["seed"] for r in results],
        "seeds_failed": failed,
        "checkpoints": {},
    }
    if results:
        marks = sorted(results[0]["checkpoints"], key=int)
        for t in marks:
            block = {}
            for key in ("regret_static_per_round", "regret_perround_per_round",
                        "ccv_per_round"):
                vals = np.array([r["checkpoints"][t][key] for r in results])
                block[key] = {"mean": float(np.mean(vals)), "std": float(np.std(vals))}
            summary["checkpoints"][t] = block
    (out / f"{cfg.name}_summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    return summary


def verify_experiment(cfg: ExperimentConfig) -> tuple[bool, list[str]]:
    """Run the invariant suite on every seed; returns (all passed, lines)."""
    lines, ok = [], True
    for seed in cfg.seeds:
        trace = run_single(cfg, seed)
        for res in invariant_suite(trace):
            lines.append(f"seed {seed}: {res}")
            ok = ok and res.passed
    return ok, lines


def bounds_reports(cfg: ExperimentConfig) -> list[tuple[int, BoundReport]]:
    out = []
    for seed in cfg.seeds:
        trace = run_single(cfg, seed)
        out.append((seed, theorem_bound_report(trace)))
    return out

