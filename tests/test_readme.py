"""The README's library quickstart runs as written, its config schema
names the config's fields, and its trace table the trace's columns."""

import json
import re
from dataclasses import fields
from pathlib import Path

from cocomem.core import ROUND_FIELDS
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


def test_readme_trace_table_names_every_round_field():
    section = README.read_text().split("## Run traces", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    names = [name for cell in rows for name in re.findall(r"`(\w+)`", cell)]
    assert names == list(ROUND_FIELDS)
