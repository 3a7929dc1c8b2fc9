"""The audit output of the shipped configs, pinned byte for byte: the
sha256 of `cocomem verify` stdout on seed 0 of each config, and of
`cocomem bounds` stdout on seed 0 of the two penalty-OGD configs.  A
change that moves any of these digests changes a printed check value or
bound and must say why."""

import hashlib
import json
from pathlib import Path

import pytest

from cocomem.cli import main as cli_main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

PINNED_STDOUT = {
    ("verify", "optimistic_perfect"):
        "0a5640ad6d8d1714a0b5951ab47d1c61ce6b07cdbb13880d5389f40a6540549d",
    # the per-epoch ftrl_weight_monotone line follows the two bookkeeping checks
    ("verify", "doubling_noisy"):
        "852d8aad552eca256c9279267635ce3f0b8b5912ee4bdcd370fa53bda0c55a02",
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
