"""Tests of the benchmark itself (not of cocomem).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _session(tmp_path: Path, name: str) -> workloads.Session:
    return workloads.Session(ROOT, workloads.WORKLOADS[name], tmp_path / "out")


@pytest.mark.parametrize("tamper", ["none", "summary", "reference"])
def test_correctness_gate_rejects_tampered_values(tmp_path, tamper):
    with _session(tmp_path, "ogd_reference") as s:
        config = "reference_stochastic"
        seed = workloads.seed_plan(0, s.workload)[0][config]
        summary = s.run(config, seed)
        horizon = str(s.cfgs[config].environment["horizon"])
        if tamper == "summary":
            block = summary["checkpoints"][horizon]["regret_static_per_round"]
            block["mean"] *= 1.0 + 1e-6
        elif tamper == "reference":
            s.reference["configs"][config]["ccv_T"][seed] *= 1.0 + 1e-6
        s.check(config, seed, summary)
    t = s.tally
    assert t.attempted == 1
    if tamper == "none":
        assert (t.correct, t.failed) == (True, 0)
    else:
        assert (t.correct, t.failed) == (False, 1)
        assert t.problems


def test_a_call_that_raises_is_a_failed_operation(tmp_path, monkeypatch):
    with _session(tmp_path, "verify_audit") as s:
        def broken(cfg, *args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(s.harness, "verify_experiment", broken)
        output = s.run("optimistic_perfect", 3)
        s.check("optimistic_perfect", 3, output)
    assert (s.tally.attempted, s.tally.failed, s.tally.correct) == (1, 1, False)
    assert "boom" in s.tally.problems[0]


def test_traced_self_times_add_up_to_wall_time(tmp_path):
    with _session(tmp_path, "odaf_perfect") as s:
        plan = workloads.seed_plan(5, s.workload)
        tr, facts = Tracer(), run.new_facts()
        run.instrument(tr, facts)
        try:
            _, walls = run.closed_loop(s, plan, 1, tracer=tr)
        finally:
            tr.uninstall()
    selfs = tr.self_times()
    roots = sum(end - start for _, start, end, parent, _, _ in tr.spans if parent == -1)
    assert min(selfs.values()) >= -1e-9
    assert sum(selfs.values()) == pytest.approx(roots, rel=1e-9)
    assert roots == pytest.approx(walls[0], rel=1e-3, abs=1e-4)
    # the layers that do the work here were reached through the wrappers
    assert {"optimistic.run", "geometry.ftrl", "environments.predict",
            "harness.emit_csv"} <= set(selfs)
    assert facts["opt_rounds"] > 0 and s.tally.correct
    # every self time lands on a metric that BENCHMARK.json declares
    metrics = run.layer_metrics(tr, facts, 1, DECLARED["per_layer"])
    assert set(metrics) <= {m["name"] for m in DECLARED["per_layer"]}
    assert sum(v for k, v in metrics.items() if k.endswith("_s") or ".check_s." in k) \
        == pytest.approx(walls[0], rel=1e-3, abs=1e-4)
    # wrappers are gone afterwards
    from cocomem import harness, optimistic

    assert harness.run_experiment.__module__ == "cocomem.harness"
    assert optimistic.ftrl_argmin.__module__ == "cocomem.geometry"


@pytest.mark.parametrize("module, attr", [("harness", "run_penalty_ogd"),
                                          ("optimistic", "ftrl_argmin"),
                                          ("metrics", "check_gradient_bound")])
def test_traced_run_refuses_when_a_wrapper_target_is_gone(monkeypatch, capsys, module, attr):
    import importlib

    monkeypatch.delattr(importlib.import_module(f"cocomem.{module}"), attr)
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "ogd_reference", "--seed", "0", "--seconds", "1",
                  "--trace", "1"])
    assert exc.value.code != 0
    out, err = capsys.readouterr()
    assert out.strip() == ""
    assert attr in err


def test_base_seed_changes_the_seeds_run(tmp_path):
    w = workloads.WORKLOADS["ogd_reference"]
    plans = {b: workloads.seed_plan(b, w) for b in (0, 1)}
    assert plans[0] == workloads.seed_plan(0, w)
    assert plans[0] != plans[1]
    i = next(i for i, (a, b) in enumerate(zip(plans[0], plans[1])) if a != b)
    config = next(c for c in w.configs if plans[0][i][c] != plans[1][i][c])
    ran = {}
    for base, plan in plans.items():
        with _session(tmp_path / str(base), w.name) as s:
            ran[base] = s.run(config, plan[i][config])["seeds_completed"]
    assert ran == {b: [plans[b][i][config]] for b in plans}


def test_operation_count_does_not_depend_on_the_clock():
    class Stub:
        cfgs = {"a": None}

        def __init__(self):
            self.ran = []

        def run(self, name, seed):
            self.ran.append(seed)
            return seed

        def check(self, name, seed, output):
            assert output == seed

    w = workloads.WORKLOADS["verify_audit"]
    count = workloads.iterations(w, 16)
    assert count == workloads.iterations(w, 16) >= 1
    assert workloads.iterations(w, 64) > count
    plan = [{"a": k} for k in range(3)]
    stub = Stub()
    cal, raw = run.closed_loop(stub, plan, 5)
    assert stub.ran == [0, 1, 2, 0, 1] and len(cal) == len(raw) == 5


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    assert [e["metric"] for e in layer_map["per_layer"]] == \
        [m["name"] for m in DECLARED["per_layer"]]
    assert set(layer_map["end_to_end"]) == {m["name"] for m in DECLARED["end_to_end"]}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ogd_reference", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
