import argparse
import concurrent.futures
import enum
import inspect
import json
import math
import struct
import typing
import warnings
from concurrent.futures import Future
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocomem import harness, optimistic
from cocomem.cli import _parser
from cocomem.cli import main as cli_main
from cocomem.core import Variant, strict_json
from cocomem.environments import _FIELD_TYPES, NoisyPredictor, check_fields, is_number
from cocomem.harness import (
    CSV_HEADER,
    ENV_FAMILIES,
    PREDICTORS,
    ConfigError,
    ExperimentConfig,
    build_instance,
    build_predictor,
    checkpoints,
    emit_csv,
    load_config,
    run_experiment,
    run_single,
    verify_experiment,
)
from cocomem.metrics import regret_and_ccv
from cocomem.penalty import PenaltyKind
from helpers import FLOAT_TRAPS


BASE = {
    "algorithm": "penalty_ogd",
    "variant": "coco_m2",
    "environment": {"kind": "appendix_a", "m": 2, "horizon": 120},
    "penalty": "quadratic",
    "lam": "sqrt_t",
    "seeds": [0, 1, 2],
    "name": "t",
}


def _cfg(**over):
    obj = dict(BASE)
    obj.update(over)
    return ExperimentConfig.from_dict(obj)


def test_csv_header_is_exact():
    assert CSV_HEADER == (
        "t,x,f_mem,g_mem,g_plus_recorded,V_t,eta_or_mu,"
        "eps_f,eps_g,eps_Z,regret_static_cum,regret_perround_cum,ccv_cum"
    )


def test_csv_schema_and_replay(tmp_path):
    cfg = _cfg(seeds=[0])
    trace = run_single(cfg, 0)
    series = regret_and_ccv(trace)
    path = tmp_path / "run.csv"
    emit_csv(trace, series, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(trace.records)
    rows = [line.split(",") for line in lines[1:]]
    # V_t column replays as the cumulative sum of g_plus_recorded
    v = 0.0
    for row in rows:
        v += float(row[4])
        assert float(row[5]) == pytest.approx(v, rel=1e-12, abs=1e-12)
        assert float(row[12]) == pytest.approx(v, rel=1e-12, abs=1e-12)
    # eps columns are zero markers for the no-prediction learner
    assert all(float(r[7]) == float(r[8]) == float(r[9]) == 0.0 for r in rows)
    # monotone bookkeeping
    ccv = [float(r[12]) for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(ccv, ccv[1:]))


def test_run_experiment_is_deterministic(tmp_path):
    cfg = _cfg(seeds=[0, 1])
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    for name in ("t_seed0.csv", "t_seed1.csv", "t_summary.json", "t_seed0_instance.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_parallel_matches_serial(tmp_path):
    cfg = _cfg(seeds=[0, 1])
    run_experiment(cfg, tmp_path / "ser", parallel=1)
    run_experiment(cfg, tmp_path / "par", parallel=2)
    for name in ("t_seed0.csv", "t_seed1.csv", "t_summary.json"):
        assert (tmp_path / "ser" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()


def test_parallel_pool_never_exceeds_the_seed_count(tmp_path, monkeypatch):
    # a forked pool starts all its workers at the first task, so the pool
    # is sized to the seeds, and one seed takes the serial path
    sizes = []

    class InlinePool:
        """Runs each task at submit in this process; records the size."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    two, one = _cfg(seeds=[0, 1]), _cfg(seeds=[0])
    run_experiment(two, tmp_path / "two_ser")
    run_experiment(one, tmp_path / "one_ser")
    assert sizes == []
    run_experiment(two, tmp_path / "two_par", parallel=8)
    assert sizes == [2]
    run_experiment(one, tmp_path / "one_par", parallel=4)
    assert sizes == [2]
    for runs, names in (("two", ("t_seed0.csv", "t_seed1.csv", "t_summary.json")),
                        ("one", ("t_seed0.csv", "t_summary.json"))):
        for name in names:
            assert (tmp_path / f"{runs}_ser" / name).read_bytes() == \
                (tmp_path / f"{runs}_par" / name).read_bytes()


def test_summary_matches_external_average(tmp_path):
    cfg = _cfg()
    summary = run_experiment(cfg, tmp_path)
    marks = checkpoints(2, 120)
    per_seed = {t: [] for t in marks}
    for seed in cfg.seeds:
        rows = (tmp_path / f"t_seed{seed}.csv").read_text().strip().split("\n")[1:]
        by_t = {int(r.split(",")[0]): r.split(",") for r in rows}
        for t in marks:
            per_seed[t].append(float(by_t[t][10]) / t)
    for t in marks:
        got = summary["checkpoints"][str(t)]["regret_static_per_round"]["mean"]
        assert got == pytest.approx(float(np.mean(per_seed[t])), rel=1e-12)
    assert summary["seeds_failed"] == []
    assert summary["rng"] == "pcg64"


SUMMARY_KEYS = ("regret_static_per_round", "regret_perround_per_round", "ccv_per_round")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(cells=st.integers(1, 20).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.sampled_from(FLOAT_TRAPS), st.floats()), min_size=n, max_size=n),
    min_size=5 * len(SUMMARY_KEYS), max_size=5 * len(SUMMARY_KEYS))))
def test_summary_takes_each_cells_mean_and_std_bit_for_bit(tmp_path_factory, cells):
    """Over 1-20 seeds of any floats (nan and +-inf included), each summary
    cell's mean and std have the bits of `np.mean` / `np.std` of that cell's
    values alone, though the summary reduces every cell in one call."""
    marks, seeds = ["12", "30", "60", "90", "120"], len(cells[0])
    values = iter(cells)
    per_cell = {(t, key): next(values) for t in marks for key in SUMMARY_KEYS}

    def one_seed(cfg, seed, out_dir):
        return {"seed": seed, "checkpoints": {
            t: {key: per_cell[(t, key)][seed] for key in SUMMARY_KEYS} for t in marks}}

    def bits(v):  # nan payloads and -0.0 compared too
        return struct.pack("<d", v)

    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(harness, "_run_one_seed", one_seed)
        summary = run_experiment(_cfg(seeds=list(range(seeds))),
                                 tmp_path_factory.mktemp("summary"))
        want = {cell: (np.mean(v), np.std(v)) for cell, v in per_cell.items()}
    for (t, key), (mean, std) in want.items():
        got = summary["checkpoints"][t][key]
        assert (bits(got["mean"]), bits(got["std"])) == (bits(mean), bits(std)), (t, key)


def test_a_2d_run_summary_is_strict_json(tmp_path, capsys):
    """At d = 2 the per-round regret has no comparator and reads nan: the
    summary file and `run`'s stdout write it as null, in strict JSON."""
    config = Path(__file__).resolve().parents[1] / "configs" / "reference_stochastic.json"
    cfg = json.loads(config.read_text())
    cfg["environment"] = {**cfg["environment"], "dim": 2, "horizon": 200}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, "seeds": [0, 1]}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    for text in (capsys.readouterr().out, (out / "reference_stochastic_summary.json").read_text()):
        summary = json.loads(text, parse_constant=reject)
        assert summary["seeds_completed"] == [0, 1]
        cell = summary["checkpoints"]["200"]["regret_perround_per_round"]
        assert cell == {"mean": None, "std": None}


def test_failed_seed_does_not_poison_aggregate(tmp_path, monkeypatch):
    import cocomem.harness as hz

    real = hz.run_single

    def flaky(cfg, seed):
        if seed == 1:
            raise RuntimeError("boom")
        return real(cfg, seed)

    monkeypatch.setattr(hz, "run_single", flaky)
    summary = run_experiment(_cfg(), tmp_path)
    assert summary["seeds_completed"] == [0, 2]
    assert summary["seeds_failed"][0]["seed"] == 1


def test_failed_seed_records_type_and_traceback(tmp_path, monkeypatch):
    """A seed that fails with an empty message still says what failed and
    where, in the returned summary and in the summary file."""
    import cocomem.harness as hz

    def run_single_without_key(cfg, seed):
        raise KeyError

    monkeypatch.setattr(hz, "run_single", run_single_without_key)
    summary = run_experiment(_cfg(), tmp_path)
    assert summary["seeds_completed"] == []
    assert [rec["seed"] for rec in summary["seeds_failed"]] == [0, 1, 2]
    rec = summary["seeds_failed"][0]
    assert set(rec) == {"seed", "error", "type", "traceback"}
    assert rec["error"] == "" and rec["type"] == "KeyError"
    assert 0 < len(rec["traceback"]) <= hz.TRACEBACK_LINES
    assert rec["traceback"][-1] == "KeyError"
    assert any("run_single_without_key" in line for line in rec["traceback"])
    on_disk = json.loads((tmp_path / "t_summary.json").read_text())
    assert on_disk["seeds_failed"] == summary["seeds_failed"]


def test_invalid_combinations_rejected():
    with pytest.raises(ConfigError):
        _cfg(algorithm="odaf")  # optimistic needs separable slices
    with pytest.raises(ConfigError):
        _cfg(penalty="exponential")  # exponential descent needs coco_m
    with pytest.raises(ConfigError):
        _cfg(penalty="exponential", variant="coco_m",
             lam="sqrt_t")  # schedule is quadratic-only
    with pytest.raises(ConfigError):
        _cfg(algorithm="odaf",
             environment={"kind": "separable_linear", "m": 1, "horizon": 50},
             penalty="quadratic")
    with pytest.raises(ConfigError):
        _cfg(algorithm="odaf", variant="coco_m",
             environment={"kind": "separable_linear", "m": 1, "horizon": 50},
             penalty="exponential")  # memory-less variant needs delay-0 slices
    with pytest.raises(ConfigError):
        _cfg(lam=0.0)  # a number must be positive
    with pytest.raises(ConfigError):
        _cfg(environment={"kind": "nowhere"})
    with pytest.raises(ConfigError):
        _cfg(seeds=[])
    # the five supported problem rows all validate
    _cfg(variant="coco_m")
    _cfg()
    _cfg(algorithm="odaf", variant="coco_m2", penalty="exponential",
         lam="theorem",
         environment={"kind": "separable_linear", "m": 1, "horizon": 50})
    _cfg(algorithm="odaf", variant="coco_m", penalty="exponential",
         lam="theorem",
         environment={"kind": "separable_linear", "m": 1, "horizon": 50,
                      "constraint_memory": False})
    _cfg(algorithm="odaf", variant="coco_m2", penalty="exponential",
         lam="doubling",
         environment={"kind": "separable_linear", "m": 1, "horizon": 50})


def test_verify_experiment_passes(tmp_path):
    ok, lines = verify_experiment(_cfg(seeds=[0]))
    assert ok
    assert any("ogd_surrogate_regret" in line for line in lines)


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, "seeds": [0]}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "t_seed0.csv").exists() and not (tmp_path / "runs").exists()
    # without --out, runs/<name> under the working directory
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    assert sorted(p.name for p in (tmp_path / "runs" / "t").iterdir()) == [
        "t_seed0.csv", "t_seed0_instance.json", "t_summary.json"]
    # config errors
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**BASE, "algorithm": "sorcery"}))
    assert cli_main(["run", "--config", str(bad)]) == 1
    assert cli_main(["run", "--config", str(tmp_path / "missing.json")]) == 1
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b"\xff\xfe")
    capsys.readouterr()
    for command in ("run", "verify", "bounds"):
        assert cli_main([command, "--config", str(not_utf8)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
    # bounds subcommand
    assert cli_main(["bounds", "--config", str(cfg_path)]) == 0


def _appendix_a_verify_config(gamma, mode, horizon=400, seeds=(0, 1, 2, 3, 4), variant="coco_m2",
                              **environment):
    environment = {"kind": "appendix_a", "m": 3, "horizon": horizon, "radius": 15.0,
                   "sigma": 10.0, "delta": 1.0, "gamma": gamma, "mode": mode, **environment}
    return {"name": "gamma", "algorithm": "penalty_ogd", "variant": variant,
            "environment": environment, "penalty": "quadratic", "lam": "sqrt_t",
            "seeds": list(seeds)}


@pytest.mark.parametrize("cfg", [
    *(_appendix_a_verify_config(gamma, mode) for gamma in (0.1, 0.5, 0.9, 1.0)
      for mode in ("stochastic", "adversarial")),
    # lhs 5710 against rhs 607 at round 4 while l_g read gamma * sigma
    _appendix_a_verify_config(0.1, "adversarial", horizon=187, seeds=[0], variant="coco_m",
                              radius=18.15, sigma=18.29, delta=1.035),
], ids=lambda cfg: "{gamma}-{mode}-T{horizon}".format(**cfg["environment"]))
def test_verify_passes_appendix_a_below_gamma_one(cfg, tmp_path, capsys):
    """Below gamma = 1 the uniform draws on [-sigma, sigma] exceed gamma
    sigma, so the constants are built from max(gamma, 1) sigma and every
    check, `surrogate_gradient_bound` among them, passes."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["verify", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum("surrogate_gradient_bound" in line for line in lines) == len(cfg["seeds"])


OGD_SUITE = ["ccv_recurrence_replay", "memory_deviation_bound", "ogd_surrogate_regret",
             "penalty_decomposition", "surrogate_gradient_bound", "step_size_monotone"]

# the checks seed 0 of each shipped config prints, in order: a doubling run
# of several epochs gets the forward consistency but not the one-lambda
# regret chain, hint-error split and delayed-FTRL bound
SHIPPED_SUITES = {
    "reference_stochastic": OGD_SUITE,
    "reference_adversarial": OGD_SUITE,
    "reference_theorem": OGD_SUITE,
    "optimistic_perfect": ["ccv_recurrence_replay", "memory_deviation_bound",
                           "forward_vertical_consistency", "forward_chain", "hint_error_split",
                           "odaftrl_regret_bound", "ftrl_weight_monotone"],
    "doubling_noisy": ["ccv_recurrence_replay", "memory_deviation_bound",
                       "forward_vertical_consistency", "ftrl_weight_monotone"],
}


@pytest.mark.parametrize("name", sorted(SHIPPED_SUITES))
def test_verify_passes_on_every_shipped_config(name):
    # every seed of the config's own list; the 1/sqrt(t) schedule makes
    # Phi' peak early in the reference runs, so the gradient bound must
    # use each round's own multiplier
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.json")
    ok, lines = verify_experiment(cfg)
    assert ok, "\n".join(line for line in lines if "FAIL" in line)
    assert {line.split(":")[0] for line in lines} == {f"seed {s}" for s in cfg.seeds}
    if cfg.algorithm == "penalty_ogd":
        assert any("surrogate_gradient_bound" in line for line in lines)
    assert [line.split("] ")[1].split(":")[0] for line in lines
            if line.startswith("seed 0:")] == SHIPPED_SUITES[name]


@pytest.mark.parametrize("name", ["reference_stochastic", "reference_adversarial",
                                  "optimistic_perfect", "doubling_noisy"])
def test_a_trace_names_its_configs_algorithm(name):
    """A doubling run's trace is an `odaf` trace too, and every `odaf`
    trace lists the first round of each of its epochs."""
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.json")
    tr = run_single(cfg, 0)
    assert tr.algorithm == cfg.algorithm
    if cfg.algorithm == "odaf":
        assert tr.extras["epoch_starts"][0] == tr.first_round
        assert tr.extras["epochs"] == len(tr.extras["epoch_starts"])


@pytest.mark.parametrize("name, lo, hi, diameter", [
    ("reference_stochastic", "0000000000002ec0", "0000000000002e40", 30.0),
    ("reference_adversarial", "0000000000002ec0", "0000000000002e40", 30.0),
    ("optimistic_perfect", "00000000000000c0", "0000000000000040", 4.0),
    ("doubling_noisy", "00000000000000c0", "0000000000000040", 4.0),
])
def test_shipped_decision_sets_keep_their_bytes(name, lo, hi, diameter):
    # seed 0 plays on the interval [-r, r]: the ball of radius r at +0.0,
    # with the bytes of the lo, hi, center and diameter of the axis-aligned
    # box that represented it before
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.json")
    fset = build_instance(cfg, 0).fset
    assert (fset.lo.tobytes().hex(), fset.hi.tobytes().hex()) == (lo, hi)
    assert fset.center.tobytes().hex() == "0000000000000000"
    assert fset.diameter.hex() == diameter.hex()


def test_cli_rejects_seed_count_below_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, "seeds": [0]}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--seeds", "0"]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (out / "t_summary.json").exists()


def test_cli_rejects_parallel_below_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, "seeds": [0]}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out), "--parallel", "0"]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (out / "t_summary.json").exists()


@pytest.mark.parametrize("argv", [
    ["sorcery", "--config", "{cfg}"],
    ["run", "--out", "{out}"],
    ["verify", "--config", "{cfg}", "--seeds", "3"],
    ["run", "--config", "{cfg}", "--out", "{out}", "--parallel", "abc"],
], ids=["unknown-command", "missing-config", "verify-seeds", "parallel-not-int"])
def test_cli_usage_errors_exit_1(tmp_path, capsys, monkeypatch, argv):
    """A usage error is a config error: exit 1, a usage message on stderr,
    and nothing written."""
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, "seeds": [0]}))
    args = [a.format(cfg=cfg_path, out=tmp_path / "out") for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli_main(args)
    assert exc.value.code == 1
    assert "usage: cocomem" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_cli_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 0
    assert "usage: cocomem" in capsys.readouterr().out


def test_verify_and_bounds_name_the_seed_that_failed(tmp_path, capsys):
    """At lambda = 8e3 on the optimistic_perfect environment seed 3
    completes and seed 4's decision overflows: `verify` and `bounds` print
    seed 3's lines, then exit 2 with seed 4 in the message."""
    config = Path(__file__).resolve().parents[1] / "configs" / "optimistic_perfect.json"
    cfg = json.loads(config.read_text())
    del cfg["error_estimate"]  # a given lambda reads no estimate
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cfg, "lam": 8e3, "seeds": [3, 4]}))
    seed3 = ExperimentConfig.from_dict({**cfg, "lam": 8e3, "seeds": [3]})
    _, verdicts = verify_experiment(seed3)
    [(_, report)] = harness.bounds_reports(seed3)
    assert len(verdicts) == 7
    for command, lines in (("verify", verdicts), ("bounds", [f"seed 3: {strict_json(asdict(report))}"])):
        assert cli_main([command, "--config", str(cfg_path)]) == 2
        out, err = capsys.readouterr()
        assert out.splitlines() == lines
        assert err == "runtime failure: seed 4: decision has non-finite entries\n"


def test_cli_verify_exit_code(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, "seeds": [0],
                                    "environment": {"kind": "appendix_a", "m": 1,
                                                    "horizon": 60}}))
    assert cli_main(["verify", "--config", str(cfg_path)]) == 0


@pytest.mark.parametrize("environment, algorithm", [
    ({"kind": "appendix_a", "m": 1, "horizon": 60, "dim": 2, "radius": 5.0, "sigma": 2.0},
     {"algorithm": "penalty_ogd"}),
    ({"kind": "separable_linear", "m": 1, "horizon": 60, "dim": 2},
     {"algorithm": "odaf", "penalty": "exponential", "lam": "theorem"}),
], ids=["appendix_a", "separable_linear"])
def test_cli_verify_2d_at_default_resolution(tmp_path, environment, algorithm):
    # the 2-D grid step is fixed by the set: its diameter / 500
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, "seeds": [0], "environment": environment,
                                    **algorithm}))
    assert cli_main(["verify", "--config", str(cfg_path)]) == 0


def test_checkpoint_marks():
    assert checkpoints(3, 4000) == [400, 1000, 2000, 3000, 4000]
    assert checkpoints(3, 20) == [3, 5, 10, 15, 20]
    # m = 0 plays from round 0, but per-round metrics divide by t
    assert checkpoints(0, 8) == [1, 2, 4, 6, 8]


@pytest.mark.parametrize("command", ["run", "verify", "bounds"])
@pytest.mark.parametrize("env", [
    {"kind": "appendix_a", "m": 2, "horizon": 120, "sigmaa": 3},
    {"kind": "appendix_a", "m": 5, "horizon": 3},
    # lambda = 1/sqrt(T) needs T >= 1: each family failed at run time
    {"kind": "appendix_a", "m": 0, "horizon": 0},
    {"kind": "separable_linear", "m": 0, "horizon": 0},
    {"kind": "appendix_a", "m": 2, "horizon": 120, "dim": 3},
    {"kind": "separable_linear", "m": 2, "horizon": 120, "g_mag": [0.2, 0.05]},
    {"kind": "separable_linear", "m": 2, "horizon": 120, "g_root": [0.9, 0.4]},
    {"kind": "separable_linear", "m": 2, "horizon": 120, "g_root": [0.4, 1.0]},
    {"kind": "separable_linear", "m": 2, "horizon": 120, "g_round_density": 1.5},
    {"kind": "separable_linear", "m": 2, "horizon": 120, "g_active_fraction": -1},
    {"kind": "separable_linear", "m": 2, "horizon": 120, "blocks": 0},
    {"kind": "separable_linear", "m": 2, "horizon": 120, "blocks": 2.5},
    {"kind": "separable_linear", "m": 2, "horizon": 120, "noise": -0.5},
    {"kind": "separable_linear", "m": 2, "horizon": 120, "drift": float("inf")},
    # a float field takes a finite number: each of these failed or ran at
    # run time (an infinite delta made every constraint value -inf)
    {"kind": "appendix_a", "m": 2, "horizon": 120, "radius": float("inf")},
    {"kind": "appendix_a", "m": 2, "horizon": 120, "radius": float("nan")},
    {"kind": "appendix_a", "m": 2, "horizon": 120, "sigma": float("nan")},
    {"kind": "appendix_a", "m": 2, "horizon": 120, "delta": float("inf")},
    {"kind": "appendix_a", "m": 2, "horizon": 120, "gamma": float("nan")},
    {"kind": "separable_linear", "m": 2, "horizon": 120, "g_mag": [0.01, float("inf")]},
    # finite, but the constants overflow (f_bound = inf): each failed its seeds (exit 2)
    {"kind": "appendix_a", "m": 2, "horizon": 120, "sigma": 1e300},
    {"kind": "appendix_a", "m": 2, "horizon": 120, "radius": 1e300},
], ids=["unknown_key", "horizon_below_m", "appendix_a_horizon_0",
        "separable_linear_horizon_0", "dim_3", "g_mag_reversed", "g_root_reversed",
        "g_root_reaches_1", "g_round_density_above_1", "g_active_fraction_negative",
        "blocks_0", "blocks_fractional", "noise_negative", "drift_infinite",
        "radius_infinite", "radius_nan", "sigma_nan", "delta_infinite", "gamma_nan",
        "g_mag_infinite", "sigma_1e300", "radius_1e300"])
def test_cli_rejects_bad_environment_parameters(tmp_path, capsys, monkeypatch, command, env):
    # checked when the config loads, before any instance is generated
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, "seeds": [0], "environment": env}))
    monkeypatch.chdir(tmp_path)
    assert cli_main([command, "--config", str(cfg_path)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


ZERO_ROUNDS = {
    "penalty_ogd": {"penalty": "quadratic", "lam": "theorem"},
    "odaf": {"penalty": "exponential", "lam": "theorem", "predictor": {"kind": "perfect"},
             "error_estimate": 0.0},
}


@pytest.mark.parametrize("parallel", ["1", "2"])
@pytest.mark.parametrize("algorithm", sorted(ZERO_ROUNDS))
def test_run_with_no_played_round_writes_an_empty_summary(tmp_path, capsys, algorithm,
                                                          parallel):
    # horizon == m: the first round is m + 1, so no round is played and no
    # checkpoint exists; the summary still lists both seeds as completed
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        **BASE, **ZERO_ROUNDS[algorithm], "algorithm": algorithm, "seeds": [0, 1],
        "environment": {"kind": "separable_linear", "m": 2, "horizon": 2}}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--parallel", parallel]) == 0
    summary = json.loads((out / "t_summary.json").read_text())
    assert summary["seeds_completed"] == [0, 1] and summary["seeds_failed"] == []
    assert summary["checkpoints"] == {}
    assert json.loads(capsys.readouterr().out) == summary
    assert sorted(p.name for p in out.iterdir()) == [
        "t_seed0.csv", "t_seed0_instance.json", "t_seed1.csv", "t_seed1_instance.json",
        "t_summary.json"]


@pytest.mark.parametrize("parallel", ["1", "2"])
def test_cli_rejects_duplicate_seeds(tmp_path, capsys, parallel):
    # run serially the seed would be played twice; under --parallel two
    # workers would write the same files at once
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, "seeds": [3, 3]}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--parallel", parallel]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_cli_rejects_negative_seeds(tmp_path, capsys, monkeypatch, command):
    # a negative seed cannot seed an instance; it is a config error before
    # anything is written
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, "seeds": [0, -1]}))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg_path)] + (["--out", str(out)] if command == "run" else [])
    assert cli_main(argv) == 1
    assert "config error: seeds must be non-negative" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("seeds", [[0.9, 1.5], [True], ["3"]], ids=["floats", "bool", "string"])
def test_cli_rejects_non_integer_seeds(tmp_path, capsys, monkeypatch, command, seeds):
    # int() would truncate 0.9 and 1.5 to seeds 0 and 1, and True to 1
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, "seeds": seeds}))
    assert cli_main([command, "--config", str(cfg_path)]) == 1
    assert "config error: seeds must be a list of integers" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("parallel", [1, 2])
def test_run_experiment_rejects_duplicate_seeds(tmp_path, parallel):
    cfg = _cfg(seeds=[0])
    cfg.seeds = [0, 0]
    with pytest.raises(ConfigError, match="distinct"):
        run_experiment(cfg, tmp_path / "out", parallel=parallel)
    assert not (tmp_path / "out").exists()


def test_lambda_schedule_modes():
    """The config's lambda as `run_single` hands it to the runner: the
    number, None for the learner's theorem lambda, or 1/sqrt(t) per
    round, guarded at t = 0 and bit for bit 1.0 / math.sqrt(max(t, 1))
    up to t = 2e6."""
    inst = SimpleNamespace(rounds=range(0, 2 * 10**6 + 1))
    assert harness._lam(_cfg(lam=0.25), inst) == 0.25
    assert harness._lam(_cfg(lam="theorem"), inst) is None
    got = harness._lam(_cfg(), inst)
    assert got.tolist() == [1.0 / math.sqrt(max(t, 1)) for t in inst.rounds]


def test_lam_number_is_parsed_as_a_float():
    cfg = _cfg(lam=1)
    assert type(cfg.lam) is float and cfg.lam == 1.0
    assert _cfg().lam == "sqrt_t"


ODAF_BASE = {
    "algorithm": "odaf",
    "variant": "coco_m2",
    "environment": {"kind": "separable_linear", "m": 1, "horizon": 40},
    "penalty": "exponential",
    "seeds": [0],
    "name": "t",
}


@pytest.mark.parametrize("over", [
    {"error_estimate": -1.0},
    {"predictor": {"kind": "noisy", "scale": -0.5}},
])
def test_cli_rejects_bad_learner_parameters(tmp_path, capsys, over):
    # each of these used to pass validation and then fail every seed
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**ODAF_BASE, **over}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_a_non_finite_trace_fails_run_and_verify(tmp_path, capsys):
    """At sigma = 6e153 the problem constants are finite, but a window of
    16 slots sums squares past the largest double, so some rounds' f_mem
    (and grad_norm) is infinite.  Such a trace is no result: `run` records
    the seed as failed and exits 2, and `verify` prints one verdict,
    ccv_recurrence_replay's failure on the first non-finite column, and
    runs no other check.  (A sigma whose constants overflow is a config
    error.)"""
    env = {"kind": "appendix_a", "m": 15, "horizon": 50, "radius": 1.0, "sigma": 6e153}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, "environment": env, "seeds": [0]}))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no check computes on the infinite columns
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        [failed] = json.loads(capsys.readouterr().out)["seeds_failed"]
        assert failed["error"] == "f_mem has non-finite entries"
        assert cli_main(["verify", "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().out.splitlines() == [
        "seed 0: [FAIL] ccv_recurrence_replay: lhs=nan rhs=nan f_mem has non-finite entries"]


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("key", ["_coeffs", "_arrays"])
def test_cli_rejects_private_environment_keys(tmp_path, capsys, monkeypatch, command, key):
    # private constructor arguments belong to the replay reader; from a
    # config they would reach the constructor as raw lists and fail every
    # seed at run time.  They are no fields, so they are unknown keys.
    monkeypatch.chdir(tmp_path)
    env = {**BASE["environment"], key: [[[0.0]], [[0.0]]]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, "environment": env}))
    assert cli_main([command, "--config", str(cfg_path)]) == 1
    assert f"config error: bad environment parameters: unknown keys ['{key}']" in \
        capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def _rejected_by_both_commands(tmp_path, capsys, monkeypatch, obj):
    """`run` and `verify` each exit 1 with a config error and write nothing."""
    monkeypatch.chdir(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(obj))
    for command in ("run", "verify"):
        assert cli_main([command, "--config", str(cfg_path)]) == 1
        assert "config error:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


NOISY_BASE = {**ODAF_BASE, "predictor": {"kind": "noisy", "scale": 0.3}}


@pytest.mark.parametrize("obj", [
    {**BASE, "lamda_value": 0.5},
    {**ODAF_BASE, "predictor": {"kind": "noisy", "scal": 0.3}},
    {**ODAF_BASE, "predictor": {"kind": "perfect", "scale": 0.3}},
    {**ODAF_BASE, "predictor": {"scale": 0.3}},
    {**ODAF_BASE, "predictor": {"kind": "noisy", "scale": float("nan")}},
    {**ODAF_BASE, "predictor": {"kind": "noisy", "scale": float("inf")}},
    {**ODAF_BASE, "predictor": {"kind": "noisy", "scale": -1}},
    {**ODAF_BASE, "predictor": {"kind": "noisy"}},
    # the harness seeds every instance and predictor from the run seed
    {**BASE, "environment": {**BASE["environment"], "seed": 5}},
    {**NOISY_BASE, "predictor": {**NOISY_BASE["predictor"], "seed": 5}},
    {**ODAF_BASE, "predictor": {"kind": "perfect", "seed": 5}},
    # a number is a finite real that is not a bool: float() read these
    {**ODAF_BASE, "predictor": {"kind": "noisy", "scale": "0.3"}},
    {**ODAF_BASE, "predictor": {"kind": "noisy", "scale": True}},
    {**BASE, "lam": "0.5"},
    {**ODAF_BASE, "error_estimate": None},
    # dict() read a list of [key, value] pairs
    {**BASE, "environment": [["kind", "appendix_a"], ["m", 2], ["horizon", 120]]},
    {**ODAF_BASE, "predictor": [["kind", "perfect"]]},
    # the DUB scale alpha is the decision set's squared diameter, for
    # every learner: no config sets it
    {**ODAF_BASE, "alpha": 0.5},
    {**NOISY_BASE, "lam": "doubling", "alpha": 0.5},
    {**BASE, "alpha": 0.5},
    # the output directory is --out, else runs/<name>: no config sets it
    {**BASE, "out_dir": "runs/t"},
    {**BASE, "out_dir": 5},
], ids=["top_level_typo", "scale_typo", "perfect_with_scale", "no_kind", "scale_nan",
        "scale_infinite", "scale_negative", "noisy_without_scale", "environment_seed",
        "noisy_seed", "perfect_seed", "scale_string", "scale_true", "lam_string",
        "error_estimate_null", "environment_pairs", "predictor_pairs", "odaf_alpha",
        "doubling_alpha", "ogd_alpha", "out_dir", "out_dir_int"])
def test_cli_rejects_keys_outside_the_schema(tmp_path, capsys, monkeypatch, obj):
    _rejected_by_both_commands(tmp_path, capsys, monkeypatch, obj)


@pytest.mark.parametrize("obj", [
    # penalty OGD plays without forecasts and tunes no optimistic lambda;
    # a key is rejected even when it holds its default
    {**BASE, "predictor": {"kind": "perfect"}},
    {**BASE, "error_estimate": 0.0},
    # at a given lambda the error estimate would only have tuned lambda
    {**ODAF_BASE, "lam": 0.5, "error_estimate": 0.0},
], ids=["ogd_predictor", "ogd_error_estimate", "odaf_number_error_estimate"])
def test_cli_rejects_a_key_the_learner_does_not_read(tmp_path, capsys, monkeypatch, obj):
    _rejected_by_both_commands(tmp_path, capsys, monkeypatch, obj)


# The configs' lambda vocabulary before `lam`: an algorithm, a lambda mode
# and a value.  Each accepted combination, its `lam` spelling, and the
# runner call and lambda that both make.
LAM_SPELLINGS = [
    (("penalty_ogd", "fixed_theorem", None), {"lam": "theorem"}, "run_penalty_ogd", None),
    (("penalty_ogd", "sqrt_t_schedule", None), {"lam": "sqrt_t"}, "run_penalty_ogd", "sqrt_t"),
    (("penalty_ogd", "explicit", 0.25), {"lam": 0.25}, "run_penalty_ogd", 0.25),
    (("odaf", "fixed_theorem", None), {"lam": "theorem"}, "run_optimistic", None),
    (("odaf", "explicit", 0.25), {"lam": 0.25}, "run_optimistic", 0.25),
    (("odaf_doubling", "fixed_theorem", None), {"lam": "doubling"}, "run_doubling", "no lambda"),
]


@pytest.mark.parametrize("before, new, runner, lam", LAM_SPELLINGS,
                         ids=["-".join(map(str, before)) for before, *_ in LAM_SPELLINGS])
def test_lam_makes_the_runner_call_of_the_lambda_it_replaces(monkeypatch, before, new,
                                                             runner, lam):
    base = BASE if before[0] == "penalty_ogd" else ODAF_BASE
    cfg = ExperimentConfig.from_dict({**base, **new})
    calls = []

    def record(module, name):
        sig = inspect.signature(getattr(module, name))
        monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(
            (name, sig.bind(*args, **kwargs).arguments)))

    record(harness, "run_penalty_ogd")
    record(optimistic, "run_optimistic")
    record(optimistic, "run_doubling")
    run_single(cfg, 0)
    [(name, arguments)] = calls
    assert name == runner
    if lam == "no lambda":
        assert "lam" not in arguments
    elif lam == "sqrt_t":
        rounds = arguments["instance"].rounds
        assert np.array_equal(arguments["lam"], [1.0 / math.sqrt(max(t, 1)) for t in rounds])
    else:
        assert arguments["lam"] == lam and type(arguments["lam"]) is type(lam)


@pytest.mark.parametrize("obj", [
    # a number is finite and positive (1e400 parses as infinity)
    {**BASE, "lam": 0}, {**BASE, "lam": -1}, {**BASE, "lam": 1e400}, {**BASE, "lam": "abc"},
    # the 1/sqrt(t) schedule is penalty OGD's, with the quadratic penalty
    {**BASE, "penalty": "exponential", "variant": "coco_m"},
    {**ODAF_BASE, "lam": "sqrt_t"},
    # the doubling trick tunes odaf's lambda
    {**BASE, "lam": "doubling"},
    # the lambda modes of before are no rule names, and odaf_doubling no algorithm
    {**BASE, "lam": "explicit"}, {**BASE, "lam": "fixed_theorem"},
    {**BASE, "lam": "sqrt_t_schedule"},
    {**ODAF_BASE, "algorithm": "odaf_doubling"},
], ids=["zero", "negative", "infinite", "not_a_rule", "sqrt_t_exponential", "sqrt_t_odaf",
        "doubling_ogd", "explicit", "fixed_theorem", "sqrt_t_schedule", "odaf_doubling"])
def test_cli_rejects_a_lam_outside_the_rules(tmp_path, capsys, monkeypatch, obj):
    _rejected_by_both_commands(tmp_path, capsys, monkeypatch, obj)


def test_keys_are_accepted_where_the_learner_reads_them():
    ExperimentConfig.from_dict({**NOISY_BASE, "error_estimate": 0.1})
    ExperimentConfig.from_dict({**NOISY_BASE, "lam": "doubling", "error_estimate": 0.1})


def test_config_fields_are_typed_once():
    cfg = ExperimentConfig.from_dict({**ODAF_BASE, "error_estimate": 1})
    assert (cfg.variant, cfg.penalty) == (Variant.COCO_M2, PenaltyKind.EXPONENTIAL)
    assert type(cfg.error_estimate) is float and cfg.error_estimate == 1.0
    assert cfg.lam == "theorem" and cfg.predictor == {"kind": "perfect"}
    obj = {**ODAF_BASE}
    cfg = ExperimentConfig.from_dict(obj)
    cfg.environment["m"] = 3
    assert obj["environment"]["m"] == 1


def test_build_predictor_dispatch():
    assert sorted(PREDICTORS) == ["noisy", "perfect", "zero"]
    for kind, params in (("perfect", {}), ("zero", {}), ("noisy", {"scale": 0.3})):
        cfg = ExperimentConfig.from_dict({**ODAF_BASE, "predictor": {"kind": kind, **params}})
        assert type(build_predictor(cfg, 7)) is PREDICTORS[kind]
    # the noisy predictor draws from the run seed
    assert build_predictor(ExperimentConfig.from_dict(NOISY_BASE), 7).seed == 7


@pytest.mark.parametrize("obj", [
    {**BASE, "name": None},
    {**BASE, "name": "a/b"},
    {**BASE, "name": ""},
    {**BASE, "name": "."},
    {**BASE, "name": ".."},
    {**BASE, "lam": True},
    {**ODAF_BASE, "error_estimate": False},
], ids=["name_null", "name_with_directory", "name_empty", "name_dot", "name_dot_dot",
        "lam_true", "error_estimate_false"])
def test_cli_rejects_mistyped_top_level_fields(tmp_path, capsys, monkeypatch, obj):
    # a null name wrote None_seed0.csv, a bool ran as 1.0 or 0.0, a name
    # with a directory part failed every seed, and ".." wrote its files
    # into the working directory
    _rejected_by_both_commands(tmp_path, capsys, monkeypatch, obj)


@pytest.mark.parametrize("env", [
    {**BASE["environment"], "horizon": 50.5},
    {**BASE["environment"], "dim": True},
    {**BASE["environment"], "m": True},
    {**BASE["environment"], "radius": True},
    {**BASE["environment"], "mode": 1},
    {**ODAF_BASE["environment"], "constraint_memory": 0},
    {**ODAF_BASE["environment"], "noise": "0.5"},
    {**ODAF_BASE["environment"], "g_mag": [0.01, True]},
    {**ODAF_BASE["environment"], "g_root": [0.4, 0.5, 0.9]},
], ids=["horizon_float", "dim_true", "m_true", "radius_true", "mode_int",
        "constraint_memory_0", "noise_string", "g_mag_bool", "g_root_triple"])
def test_cli_rejects_mistyped_environment_fields(tmp_path, capsys, monkeypatch, env):
    # each field is checked against its dataclass annotation when the
    # config loads: True ran as 1, and 0 was written into the replay JSON
    base = ODAF_BASE if env["kind"] == "separable_linear" else BASE
    _rejected_by_both_commands(tmp_path, capsys, monkeypatch, {**base, "environment": env})


def test_environment_fields_take_their_annotated_types():
    cfg = ExperimentConfig.from_dict({**ODAF_BASE, "environment": {
        **ODAF_BASE["environment"], "radius": 2, "g_mag": [0.01, 1], "constraint_memory": False}})
    inst = build_instance(cfg, 0)
    assert type(inst.radius) is float and inst.constraint_memory is False


NOT_NUMBERS = [math.inf, -math.inf, math.nan, True, False, "0.5", None, 10**400]


# every class whose fields a config sets: the top level and the classes
# the environment and the predictor name
SCHEMA_CLASSES = [ExperimentConfig, *ENV_FAMILIES.values(), *PREDICTORS.values()]


def test_every_float_value_follows_the_number_rule():
    # check_fields reads the type table by annotation and leaves only enum
    # fields to their constructors: a field type the table lacks would go
    # unchecked
    for cls in SCHEMA_CLASSES:
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            enum_field = isinstance(hints[f.name], type) and issubclass(hints[f.name], enum.Enum)
            assert f.type in _FIELD_TYPES or enum_field, (cls.__name__, f.name, f.type)
    assert all(map(is_number, (0, -2, 0.5, 1e308, np.float64(0.3), np.int64(3))))
    assert not any(map(is_number, NOT_NUMBERS))
    # every float-typed value goes through it: each float field of the six
    # classes and both halves of a pair, none of which takes a null
    valid = {ExperimentConfig: vars(ExperimentConfig.from_dict(ODAF_BASE)),
             NoisyPredictor: {"scale": 0.3, "seed": 0}}
    checked = set()
    for cls in SCHEMA_CLASSES:
        base = valid.get(cls, {f.name: f.default for f in fields(cls)})
        check_fields(cls, base)
        for f in fields(cls):
            if "float" not in f.type:
                continue
            for bad in NOT_NUMBERS:
                for value in ([(bad, 0.5), (0.5, bad)] if f.type.startswith("tuple") else [bad]):
                    with pytest.raises(TypeError, match=f"{f.name} must be a"):
                        check_fields(cls, {**base, f.name: value})
            checked.add(cls)
    assert checked == {ExperimentConfig, *ENV_FAMILIES.values(), NoisyPredictor}
    # and where the values arrive: the config load and the constructor
    for name in ("lam", "error_estimate"):
        for bad in NOT_NUMBERS:
            with pytest.raises(ConfigError, match=f"{name} must be a finite number"):
                ExperimentConfig.from_dict({**ODAF_BASE, name: bad})
    for bad in NOT_NUMBERS:
        with pytest.raises(TypeError, match="scale must be a finite number"):
            NoisyPredictor(bad)


def test_readme_cli_block_names_the_parser_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    documented = {}
    for line in block.strip().splitlines():
        words = line.split("#", 1)[0].split()
        assert words[0] == "cocomem"
        documented[words[1]] = {w.strip("[]") for w in words[2:] if w.strip("[]").startswith("--")}
    subparsers = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {name: {flag for action in sub._actions for flag in action.option_strings
                     if flag not in ("-h", "--help")}
              for name, sub in subparsers.choices.items()}
    assert documented == parsed
    assert parsed["run"] == {"--config", "--out", "--seeds", "--parallel"}
    assert parsed["verify"] == parsed["bounds"] == {"--config"}
