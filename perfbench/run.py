"""cocomem benchmark: one workload per process, seeds in a closed loop.

    python3 perfbench/run.py --workload ogd_reference --seed 0 --seconds 16 --trace 0

The benchmark imports the `src/cocomem` and reads the `configs/` of the
checkout it sits in.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  With
`--trace 0` the metrics are the end-to-end ones listed in BENCHMARK.json;
with `--trace 1` they are the per-layer ones, from traced iterations that
alternate with untraced ones on the same seeds.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import MissingTarget, Tracer  # noqa: E402
from workloads import WORKLOADS, Session, iterations, seed_plan  # noqa: E402

SETUP_REPEATS = 9
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import cocomem; "
    "from cocomem.harness import load_config; [load_config(p) for p in sys.argv[2:]]"
)
ROOT_SPAN = "perfbench.glue"
# Machine-speed calibration of wall_s.  On a shared machine the CPU speed
# drifts by up to 1.8x over tens of seconds, which no in-run median
# removes.  Each config call is bracketed by a fixed pure-Python probe loop
# and its time is rescaled by PROBE_REF_S / (mean probe time around the
# call); PROBE_REF_S is the probe's time on a 2-core x86 machine in its
# fastest state, CPython 3.11.  Uncalibrated times are printed alongside.
PROBE_LOOPS = 200_000
PROBE_REF_S = 0.0120
# setup_s is calibrated the same way, by a fresh interpreter that imports
# only numpy (process start-up and imports do not track the Python loop);
# SETUP_REF_S is that baseline's time on the same reference machine.
SETUP_REF_S = 0.100


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def check_checkout(workload) -> list[Path]:
    """The benchmark runs against the checkout it sits in; refuse to run
    (and print no result) when the package or a config is missing."""
    if not (ROOT / "src" / "cocomem" / "__init__.py").is_file():
        fail(f"no src/cocomem package under {ROOT}")
    paths = [ROOT / "configs" / f"{c}.json" for c in workload.configs]
    for p in paths:
        if not p.is_file():
            fail(f"missing config {p.relative_to(ROOT)}")
    sys.path.insert(0, str(ROOT / "src"))
    import cocomem

    if Path(cocomem.__file__).resolve().parent != ROOT / "src" / "cocomem":
        fail(f"imported cocomem from {cocomem.__file__}, not from this checkout")
    return paths


def declared_metrics() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": doc["end_to_end"], "per_layer": doc["per_layer"]}


def probe_s() -> float:
    """Wall time of a fixed pure-Python loop."""
    t0 = perf_counter()
    acc = 0
    for k in range(PROBE_LOOPS):
        acc += k * k
    return perf_counter() - t0


def _spawn_s(cmd: list[str]) -> float:
    t0 = perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, timeout=120)
    return perf_counter() - t0


def measure_setup(config_paths: list[Path]) -> tuple[float, float]:
    """Median (calibrated, raw) time of a fresh interpreter importing
    cocomem and loading the workload's configs.  One untimed warm-up fills
    the bytecode cache, which users do not pay per call.  Each set-up is
    bracketed by a fresh interpreter that imports only numpy, and rescaled
    by SETUP_REF_S / (mean of those two times)."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), *map(str, config_paths)]
    baseline = [sys.executable, "-c", "import numpy"]
    _spawn_s(cmd)
    cal, raw = [], []
    before = _spawn_s(baseline)
    for _ in range(SETUP_REPEATS):
        dt = _spawn_s(cmd)
        after = _spawn_s(baseline)
        raw.append(dt)
        cal.append(dt * SETUP_REF_S / (0.5 * (before + after)))
        before = after
    return statistics.median(cal), statistics.median(raw)


def closed_loop(session: Session, plan, count: int,
                tracer: Tracer | None = None) -> tuple[list[float], list[float]]:
    """Run `count` iterations back to back, walking the seed plan.  Returns
    each iteration's (calibrated, raw) wall time.  Each config call is
    timed on its own, between two probes; outputs are checked after the
    iteration, outside the timed calls."""
    cal: list[float] = []
    raw: list[float] = []
    for i in range(count):
        seeds = plan[i % len(plan)]
        outputs = {}
        wall = scaled = 0.0
        before = probe_s()
        for name in session.cfgs:
            if tracer is None:
                t0 = perf_counter()
                outputs[name] = session.run(name, seeds[name])
            else:
                tracer.seed = None
                t0 = perf_counter()
                outputs[name] = tracer.root(ROOT_SPAN, session.run, name, seeds[name])
            dt = perf_counter() - t0
            after = probe_s()
            wall += dt
            scaled += dt * PROBE_REF_S / (0.5 * (before + after))
            before = after
        raw.append(wall)
        cal.append(scaled)
        for name, output in outputs.items():
            session.check(name, seeds[name], output)
    return cal, raw


# ---------------------------------------------------------------------------
# instrumentation


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def new_facts() -> dict:
    """Per-call facts the wrappers add up: rounds, epochs, fallbacks,
    bytes written, failed checks, grid builds."""
    return {"ogd_rounds": 0, "opt_rounds": 0, "epochs": 0, "fallbacks": 0,
            "csv_bytes": 0, "json_bytes": 0, "checks_failed": 0, "grid_calls": 0,
            "grid_size": 0}


def instrument(tr: Tracer, facts: dict) -> None:
    """Wrap cocomem's public functions at each module boundary; the
    wrappers record spans and counts in `tr` and add to `facts`."""
    from cocomem import environments, geometry, harness, metrics, optimistic, penalty, penalty_ogd

    learners: list = []

    def set_seed_from_cfg(args, kwargs):
        seeds = _arg(args, kwargs, 0, "cfg").seeds
        tr.seed = seeds[0] if len(seeds) == 1 else None

    def set_seed(args, kwargs):
        tr.seed = _arg(args, kwargs, 1, "seed")

    def ogd_done(args, kwargs, trace):
        facts["ogd_rounds"] += len(trace.records)

    def opt_done(args, kwargs, trace):
        facts["opt_rounds"] += len(trace.records)
        facts["epochs"] += int(trace.extras.get("epochs", 1))
        facts["fallbacks"] += sum(learner.fixed_point_fallbacks for learner in learners)
        learners.clear()

    def csv_done(args, kwargs, _):
        facts["csv_bytes"] += os.path.getsize(_arg(args, kwargs, 2, "path"))

    def json_done(args, kwargs, text):
        facts["json_bytes"] += len(text)

    def suite_done(args, kwargs, results):
        facts["checks_failed"] += sum(1 for r in results if not r.passed)

    def registering_init(init):
        def wrapper(self, *args, **kwargs):
            init(self, *args, **kwargs)
            learners.append(self)
        return wrapper

    def grid_counter(fn):
        def wrapper(*args, **kwargs):
            grid = fn(*args, **kwargs)
            facts["grid_calls"] += 1
            facts["grid_size"] = max(facts["grid_size"], len(grid))
            return grid
        return wrapper

    tr.span(harness, "run_experiment", "harness.run_experiment", before=set_seed_from_cfg)
    tr.span(harness, "verify_experiment", "harness.verify_experiment", before=set_seed_from_cfg)
    tr.span(harness, "build_instance", "environments.build_instance", before=set_seed)
    tr.span(harness, "run_penalty_ogd", "penalty_ogd.run", after=ogd_done)
    tr.span(optimistic, "run_optimistic", "optimistic.run", after=opt_done)
    tr.span(optimistic, "run_doubling", "optimistic.run", after=opt_done)
    tr.patch(optimistic.OdafLearner, "__init__", registering_init)
    tr.hot(penalty_ogd, "project", "geometry.project")
    tr.hot(geometry, "project", "geometry.project")
    tr.hot(optimistic, "ftrl_argmin", "geometry.ftrl")
    predictors = [cls for cls in environments.Predictor.__subclasses__()
                  if "predict_f" in vars(cls) or "predict_g" in vars(cls)]
    if not predictors:
        raise MissingTarget("predict_f/predict_g on a Predictor subclass")
    for cls in predictors:
        for attr in ("predict_f", "predict_g"):
            if attr in vars(cls):
                tr.hot(cls, attr, "environments.predict")
    tr.count(environments.AppendixAInstance, "loss", "environments.oracle")
    tr.count(environments.AppendixAInstance, "constraint", "environments.oracle")
    tr.count(penalty.Penalty, "prime", "penalty.prime")
    tr.span(harness, "regret_and_ccv", "metrics.regret_and_ccv")
    tr.span(harness, "invariant_suite", "metrics.invariant_suite", after=suite_done)
    for name in sorted(vars(metrics)):
        if name.startswith("check_") and callable(getattr(metrics, name)):
            tr.span(metrics, name, f"metrics.check.{name}")
    tr.patch(metrics, "grid_points", grid_counter)
    tr.span(harness, "emit_csv", "harness.emit_csv", after=csv_done)
    for cls in (environments.AppendixAInstance, environments.SeparableLinearInstance):
        tr.span(cls, "to_json", "harness.instance_json", after=json_done)
    tr.span(metrics.RunTrace, "validate", "harness.validate")


def check_targets(declared: list[dict]) -> None:
    """Refuse to trace (exit non-zero, print no result) when a function
    the tracer wraps, or a check that BENCHMARK.json names, is gone: its
    metric would read 0 and its time would move into its caller."""
    from cocomem import metrics

    probe = Tracer()
    try:
        instrument(probe, new_facts())
    except MissingTarget as exc:
        fail(f"cannot trace, wrapper target not found: {exc}")
    finally:
        probe.uninstall()
    prefix = "metrics.check_s."
    for d in declared:
        name = d["name"].removeprefix(prefix)
        if d["name"].startswith(prefix) and name != "other" and not hasattr(metrics, name):
            fail(f"cannot trace, metrics.{name} named in BENCHMARK.json not found")


def peak_learner_heap(session: Session, plan) -> float:
    """Largest tracemalloc peak (MB) of one optimistic learner call, over
    one iteration of the workload's optimistic configs.  Its own pass, so
    tracemalloc's cost stays out of every timing."""
    from cocomem import optimistic

    odaf = tuple(n for n, c in session.cfgs.items() if c.algorithm.startswith("odaf"))
    if not odaf:
        return 0.0
    peak = [0]
    tr = Tracer()

    def measured(fn):
        def wrapper(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            peak[0] = max(peak[0], tracemalloc.get_traced_memory()[1] - base)
            return result
        return wrapper

    tr.patch(optimistic, "run_optimistic", measured)
    tr.patch(optimistic, "run_doubling", measured)
    seeds = plan[0]
    tracemalloc.start()
    try:
        outputs = {name: session.run(name, seeds[name]) for name in odaf}
    finally:
        tracemalloc.stop()
        tr.uninstall()
    for name, output in outputs.items():
        session.check(name, seeds[name], output)
    return peak[0] / 2**20


def layer_metrics(tr: Tracer, facts: dict, iterations: int, declared: list[dict]) -> dict:
    """Per-iteration means of every per-layer metric in BENCHMARK.json."""
    selfs = tr.self_times()
    values: dict[str, float] = {}
    check_names = {d["name"] for d in declared if d["name"].startswith("metrics.check_s.")}
    for span, secs in selfs.items():
        if span.startswith("metrics.check."):
            metric = "metrics.check_s." + span.removeprefix("metrics.check.")
            if metric not in check_names:
                metric = "metrics.check_s.other"
        else:
            metric = span + "_s"
        values[metric] = values.get(metric, 0.0) + secs
    ogd_total, opt_total = tr.inclusive("penalty_ogd.run"), tr.inclusive("optimistic.run")
    ftrl_calls = tr.calls("geometry.ftrl")
    values.update({
        "environments.oracle_calls": tr.counts["environments.oracle"],
        "environments.predict_calls": tr.calls("environments.predict"),
        "penalty.prime_calls": tr.counts["penalty.prime"],
        "geometry.project_calls": tr.calls("geometry.project"),
        "geometry.ftrl_calls": ftrl_calls,
        "optimistic.fixed_point_fallbacks": facts["fallbacks"],
        "optimistic.epochs": facts["epochs"],
        "metrics.grid_points_calls": facts["grid_calls"],
        "metrics.checks_failed": facts["checks_failed"],
        "harness.csv_bytes": facts["csv_bytes"],
        "harness.instance_json_bytes": facts["json_bytes"],
    })
    per_iter = {k: v / iterations for k, v in values.items()}
    per_iter.update({
        "penalty_ogd.us_per_round": 1e6 * ogd_total / facts["ogd_rounds"]
        if facts["ogd_rounds"] else 0.0,
        "optimistic.us_per_round": 1e6 * opt_total / facts["opt_rounds"]
        if facts["opt_rounds"] else 0.0,
        "optimistic.pattern_hit_ratio": facts["opt_rounds"] / ftrl_calls if ftrl_calls else 0.0,
        "metrics.grid_size": facts["grid_size"],
    })
    return per_iter


# ---------------------------------------------------------------------------


def report(session: Session, metrics: dict[str, float], declared: list[dict]) -> None:
    t = session.tally
    for d in declared:
        print(f"{d['name']:<44} {metrics[d['name']]:>16.6g} {d['unit']}")
    for key, values in t.absolute.items():
        if values:
            print(f"mean {key} (absolute, {len(values)} seed runs): "
                  f"{statistics.fmean(values):.6g}")
    for key, n in sorted(t.failed_checks.items()):
        print(f"failed check {key}: {n}")
    for what in t.problems:
        print(f"problem: {what}")
    print(f"operations attempted {t.attempted}, failed {t.failed}, correct {t.correct}")
    print(json.dumps({
        "correct": t.correct,
        "attempted": t.attempted,
        "failed": t.failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                    for d in declared},
    }))


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description="cocomem benchmark (one workload per process)")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="base seed of the seed plan")
    p.add_argument("--seconds", type=float, required=True,
                   help="nominal measuring time per run; sets a fixed iteration count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    config_paths = check_checkout(workload)
    declared = declared_metrics()
    plan = seed_plan(args.seed, workload)
    count = iterations(workload, args.seconds)
    out_dir = ROOT / ".perfbench_out" / f"{workload.name}-{os.getpid()}"

    if not args.trace:
        setup_s, setup_raw = measure_setup(config_paths)
        with Session(ROOT, workload, out_dir) as session:
            walls, walls_raw = closed_loop(session, plan, count)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        dev = session.tally.deviation
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
            "regret_T": 1.0 + statistics.fmean(dev["regret_T"]) if dev["regret_T"] else 0.0,
            "ccv_T": 1.0 + statistics.fmean(dev["ccv_T"]) if dev["ccv_T"] else 0.0,
        }
        print(f"workload {workload.name}, base seed {args.seed}: {len(walls)} iterations; "
              f"uncalibrated medians: wall {statistics.median(walls_raw):.6f} s, "
              f"setup {setup_raw:.6f} s")
        report(session, metrics, declared["end_to_end"])
        return

    check_targets(declared["per_layer"])
    # untraced and traced iterations alternate on the same seeds, so that
    # speed drift hits both alike and their difference is the overhead; a
    # pair with tracing costs about three untraced iterations
    tr, facts = Tracer(), new_facts()
    untraced: list[float] = []
    traced: list[float] = []
    with Session(ROOT, workload, out_dir) as session:
        for i in range(max(1, count // 3)):
            seeds = [plan[i % len(plan)]]
            untraced += closed_loop(session, seeds, 1)[1]
            instrument(tr, facts)
            try:
                traced += closed_loop(session, seeds, 1, tracer=tr)[1]
            finally:
                tr.uninstall()
        heap_mb = peak_learner_heap(session, plan)
    n = len(traced)
    metrics = layer_metrics(tr, facts, n, declared["per_layer"])
    metrics["optimistic.peak_heap_mb"] = heap_mb
    metrics["tracing.wall_s"] = statistics.fmean(traced)
    metrics["tracing.overhead_s"] = statistics.fmean(traced) - statistics.fmean(untraced)
    for d in declared["per_layer"]:
        metrics.setdefault(d["name"], 0.0)
    self_sum = sum(tr.self_times().values()) / n
    trace_path = ROOT / ".perfbench_out" / f"trace-{workload.name}-seed{args.seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tr.write(trace_path, {"workload": workload.name, "base_seed": args.seed,
                          "iterations": n, "untraced_wall_s": untraced,
                          "traced_wall_s": traced, "facts": facts, "metrics": metrics})
    print(f"workload {workload.name}, base seed {args.seed}: {n} untraced and {n} traced "
          f"iterations; spans written to {trace_path.relative_to(ROOT)}")
    print(f"layer self times sum to {self_sum:.6f} s per iteration; "
          f"traced wall {metrics['tracing.wall_s']:.6f} s")
    report(session, metrics, declared["per_layer"])


if __name__ == "__main__":
    main()
