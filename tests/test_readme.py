"""The README's library quickstart runs as written, and its config schema
names the config's fields."""

import json
import re
from dataclasses import fields
from pathlib import Path

from cocomem.harness import ExperimentConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs(tmp_path, monkeypatch):
    text = README.read_text()
    section = text.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {"__name__": "quickstart"})


def test_readme_schema_names_every_config_field():
    section = README.read_text().split("### Config schema", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    assert set(json.loads(block)) == {f.name for f in fields(ExperimentConfig)}
