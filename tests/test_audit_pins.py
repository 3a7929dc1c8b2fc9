"""The audit and run output of the shipped configs, pinned byte for
byte: the sha256 of `cocomem verify` and `cocomem bounds` stdout on
seed 0 of each config, of the three files `cocomem run` writes for
seed 0 of each config, and of two configs' summaries over many seeds.
A change that moves any of these digests changes a printed check value,
bound or run output and must say why."""

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
    # the exponential penalty without constraint memory at the theorem's
    # short-memory lambda (m = 1 <= T^(1/6) / (log T)^(1/3) at T = 4000)
    ("verify", "reference_exponential"):
        "854e4960edcb7add1c9a4b3418bc7f51a75e64e27f60c3cdd24462d12a1b1ae8",
    # every precondition holds: both exponential-penalty bounds
    ("bounds", "reference_exponential"):
        "71505b55cd2bef5ffb89c8c07e1cb7a467b7de407f01c21511c8e306a3f01788",
}


# `cocomem run` on seed 0 of each config: (config, file name suffix) -> sha256
PINNED_RUN_FILES = {
    ("doubling_noisy", "_seed0.csv"):
        "96f987f87bbdbcc87839f2f991ceda11f2140c7bde9297f4505f883382e3b401",
    ("doubling_noisy", "_seed0_instance.json"):
        "e10da15c5bfce05c7bff5b1d543d7403e6ec643446feb9ac713e141e303d17f8",
    ("doubling_noisy", "_summary.json"):
        "c6b8753d3f9ed194d3a6f6b01ed8b783388a5b3769af458487d06b5db743ac9c",
    ("optimistic_perfect", "_seed0.csv"):
        "613e63868e06951d18fa846f63b64d0f9aacb4f9650146b194ae9e131ba69986",
    ("optimistic_perfect", "_seed0_instance.json"):
        "ea99eea51ebb8250fa2b71ab4b736f5340b40d5e9dd37f952a5ffb98101dcb8f",
    ("optimistic_perfect", "_summary.json"):
        "76b812c35a3ba666f8dfb5c7578941cf2024079e69e1775f45e943e41e7e0d48",
    ("reference_exponential", "_seed0.csv"):
        "435af4f792096037d0eb576dbc960b48b557ea6399776903311a2b5f90c2670c",
    ("reference_exponential", "_seed0_instance.json"):
        "2bc6db65d94c7388286c923b07936ec1cf738a7894c709d8cbeabcf25d6caec2",
    ("reference_exponential", "_summary.json"):
        "defd02362aaf208231c88c76adc78de9a3796bc8481cc6a104af37ee31d6f457",
    ("reference_adversarial", "_seed0.csv"):
        "56abc57d844838166e0e091b42cef3ffad34bae56d3d557cfe57ed7ad6e79d33",
    ("reference_adversarial", "_seed0_instance.json"):
        "c293d0bd8e465ed40466dd3866cc48c348b8a47385f59068d7aaf30e135d776e",
    ("reference_adversarial", "_summary.json"):
        "485a45e2b78cba6f475ee08613323736795cb2d1698c3cadcbeb650632c473a9",
    ("reference_stochastic", "_seed0.csv"):
        "ad469cf2193bb1b0efaa792a8ddb44f93685ba0ba70b4e50766649648d105fa6",
    ("reference_stochastic", "_seed0_instance.json"):
        "a8f96e932c31a4fb18b8a8e1e27f88b8115decee12246573f03de17ef75e6ce1",
    ("reference_stochastic", "_summary.json"):
        "c18559fd974bc5ffea5d2fe520a828c53874065f243486f1da2e7eb0cae61641",
    ("reference_theorem", "_seed0.csv"):
        "458d8c85de3da65901f993b01cefa43c83eff732ae2e3cd9e71afcba08b23c2a",
    # reference_stochastic's instance
    ("reference_theorem", "_seed0_instance.json"):
        "a8f96e932c31a4fb18b8a8e1e27f88b8115decee12246573f03de17ef75e6ce1",
    ("reference_theorem", "_summary.json"):
        "ce93997a3cd73e84492d4421a109588fb74db112b111e15821c9880022547961",
}

# `cocomem run`'s summary over seeds 0 .. n - 1: (config, n) -> sha256.  From
# 8 seeds on, numpy's pairwise sum groups a mean or std otherwise than a
# running sum does.
PINNED_SUMMARIES = {
    ("reference_stochastic", 10):
        "972a60bb7f961b580a645c575b5f8543133cc3125a9ab76585b2616ecef7828a",
    ("doubling_noisy", 5):
        "2884e497f1151696976730cf106f7df263b9294264d2e1116475bdb898f7ffaa",
}


def test_every_shipped_config_is_pinned():
    """Each `configs/*.json` has its `verify`, `bounds` and `run` pins, so a
    shipped config cannot go unpinned."""
    names = sorted(path.stem for path in CONFIG_DIR.glob("*.json"))
    for command in ("verify", "bounds"):
        assert sorted(name for cmd, name in PINNED_STDOUT if cmd == command) == names
    for suffix in ("_seed0.csv", "_seed0_instance.json", "_summary.json"):
        assert sorted(name for name, sfx in PINNED_RUN_FILES if sfx == suffix) == names


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


@pytest.mark.parametrize("name, seeds", sorted(PINNED_SUMMARIES))
def test_multi_seed_summaries_are_pinned(name, seeds, tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**cfg, "seeds": list(range(seeds))}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256((out / f"{name}_summary.json").read_bytes()).hexdigest()
    assert digest == PINNED_SUMMARIES[(name, seeds)]
