"""The audit and run output of the shipped configs, pinned byte for
byte: the sha256 of `cocomem verify` and `cocomem bounds` stdout on
seed 0 of each config, and of the three files `cocomem run` writes for
seed 0 of each config.  A change that moves any of these digests changes
a printed check value, bound or run output and must say why."""

import hashlib
import json
from pathlib import Path

import pytest

from cocomem.cli import main as cli_main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

PINNED_STDOUT = {
    ("verify", "optimistic_perfect"):
        "0a5640ad6d8d1714a0b5951ab47d1c61ce6b07cdbb13880d5389f40a6540549d",
    # several epochs: the two bookkeeping checks, forward_vertical_consistency
    # (each round weighed by its own lambda) and the per-epoch
    # ftrl_weight_monotone line
    ("verify", "doubling_noisy"):
        "d02d00fea98e4ba3a980eb57675d9af100a393d1512626a4ce8f8ea941ad377d",
    ("verify", "reference_stochastic"):
        "1e3202dcacd9594a436972f585eb48100fc1db45367dd1c3f0f7660558e571bb",
    ("verify", "reference_adversarial"):
        "39466220bdde691ba82950e5fa6c7ee2fbdce2936b3e0bd0b49982008f5b057f",
    # both run the 1/sqrt(t) schedule, so the theorem's lambda precondition
    # fails and no theorem bound is printed
    ("bounds", "reference_stochastic"):
        "acbd980ea74b6e4eec26785058074fbb0537e340e332c02f2a99977fbdc1ecb3",
    ("bounds", "reference_adversarial"):
        "f335a9b42490aebe46a62dbf030ee8f629077b2e994088a9bbdcd98565507089",
    # the forward-regret bound reads the DUB scale alpha = |X|^2
    ("bounds", "optimistic_perfect"):
        "b84b6a2d3430e0566e0ca34d952dfd634bb2b344b1bd2c127215665f4d3d7c56",
    # several epochs: no forward-regret bound, only the lambda precondition
    ("bounds", "doubling_noisy"):
        "98afd9e0cf359dea778ffc7454ad34af317cb8eac6c3aeb5e0be2b8d3e4bd3fc",
    ("verify", "reference_theorem"):
        "7ac5c49cc7c731eada43b8e5a653cbe645c5a3124b4f5426e0e2bd71d91f7bb4",
    # lambda = 1/sqrt(T) in every round: the quadratic penalty's theorem
    # bounds on regret and CCV
    ("bounds", "reference_theorem"):
        "e61b1a1469a3be78c3268e1f77dff88d3890fbe74203c532d852c46ade9c8105",
}


# `cocomem run` on seed 0 of each config: (config, file name suffix) -> sha256
PINNED_RUN_FILES = {
    ("doubling_noisy", "_seed0.csv"):
        "96f987f87bbdbcc87839f2f991ceda11f2140c7bde9297f4505f883382e3b401",
    ("doubling_noisy", "_seed0_instance.json"):
        "e10da15c5bfce05c7bff5b1d543d7403e6ec643446feb9ac713e141e303d17f8",
    ("doubling_noisy", "_summary.json"):
        "a90f65f80d6dea9657b9490bfea89b65854e77c68264ac5fd4fa4160d9574cb3",
    ("optimistic_perfect", "_seed0.csv"):
        "613e63868e06951d18fa846f63b64d0f9aacb4f9650146b194ae9e131ba69986",
    ("optimistic_perfect", "_seed0_instance.json"):
        "ea99eea51ebb8250fa2b71ab4b736f5340b40d5e9dd37f952a5ffb98101dcb8f",
    ("optimistic_perfect", "_summary.json"):
        "cbd70efafafd356ea38089d10c53876599e69a4f78a38408c449a1578011eb99",
    ("reference_adversarial", "_seed0.csv"):
        "56abc57d844838166e0e091b42cef3ffad34bae56d3d557cfe57ed7ad6e79d33",
    ("reference_adversarial", "_seed0_instance.json"):
        "1ab09a709a86a38362d00c7e6846f0b3e7aa81c6956e657a99bbae429fc3f2a6",
    ("reference_adversarial", "_summary.json"):
        "c4499343c2465a4b1ac0059304d8bcbf2c4d202a62b49b4ab6d2124fbfb8c4e4",
    ("reference_stochastic", "_seed0.csv"):
        "ad469cf2193bb1b0efaa792a8ddb44f93685ba0ba70b4e50766649648d105fa6",
    ("reference_stochastic", "_seed0_instance.json"):
        "c189efe26644d3d1a533f50b3936189524d800260d8e2abf37d20aaffe5eb4b9",
    ("reference_stochastic", "_summary.json"):
        "bbc5dd6800452fcda12be4f94e3a07fb90f2780f60b8bdced71a985a573be2b9",
    ("reference_theorem", "_seed0.csv"):
        "458d8c85de3da65901f993b01cefa43c83eff732ae2e3cd9e71afcba08b23c2a",
    # reference_stochastic's instance
    ("reference_theorem", "_seed0_instance.json"):
        "c189efe26644d3d1a533f50b3936189524d800260d8e2abf37d20aaffe5eb4b9",
    ("reference_theorem", "_summary.json"):
        "a09f1fa2610a98e04749c7daa263f0ef49627d039029146cd75174d0fa48bf2d",
}


@pytest.mark.parametrize("command, name", sorted(PINNED_STDOUT))
def test_audit_stdout_is_pinned(command, name, tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**cfg, "seeds": [0]}))
    assert cli_main([command, "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[(command, name)]


def test_bounds_stdout_is_strict_json(tmp_path, capsys):
    """`cocomem bounds` prints strict JSON: on seed 0 of optimistic_perfect
    the measured forward regret is <= 0, and its infinite slack reads null."""
    cfg = json.loads((CONFIG_DIR / "optimistic_perfect.json").read_text())
    path = tmp_path / "optimistic_perfect.json"
    path.write_text(json.dumps({**cfg, "seeds": [0]}))
    assert cli_main(["bounds", "--config", str(path)]) == 0
    prefix, _, doc = capsys.readouterr().out.strip().partition(": ")
    assert prefix == "seed 0"

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    report = json.loads(doc, parse_constant=reject)
    assert report["measured"]["forward_regret"] <= 0.0
    assert report["slack"]["forward_regret"] is None


@pytest.mark.parametrize("name", sorted({name for name, _ in PINNED_RUN_FILES}))
def test_run_outputs_are_pinned(name, tmp_path, capsys):
    """`run` writes exactly seed 0's CSV, instance JSON and summary JSON,
    each byte-identical to its pinned digest."""
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**cfg, "seeds": [0]}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    want = {f"{key}{suffix}": digest
            for (key, suffix), digest in PINNED_RUN_FILES.items() if key == name}
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == want
