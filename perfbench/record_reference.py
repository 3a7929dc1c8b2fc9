"""Record the reference outcome of every pool seed of every benchmark
config: CSV row count, R_T/T and V_T/T, as `harness.run_experiment`
writes them.  The benchmark's correctness gate compares against this file.

    python3 perfbench/record_reference.py [--configs a,b]

Re-record only when a change is meant to alter what a learner plays, and
say so in that change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import POOL, REFERENCE, WORKLOADS, read_csv_outcome  # noqa: E402


def record(name: str, out: Path) -> dict:
    from cocomem import harness

    cfg = harness.load_config(ROOT / "configs" / f"{name}.json")
    horizon = int(cfg.environment["horizon"])
    entry: dict = {"rows": None, "regret_T": [], "ccv_T": []}
    for seed in range(POOL):
        cfg.seeds = [seed]
        summary = harness.run_experiment(cfg, out, parallel=1)
        if summary["seeds_failed"]:
            raise SystemExit(f"{name} seed {seed} failed: {summary['seeds_failed']}")
        rows, _, reg_cum, ccv_cum = read_csv_outcome(out / f"{cfg.name}_seed{seed}.csv",
                                                     harness.CSV_HEADER)
        entry["rows"] = rows
        entry["regret_T"].append(reg_cum / horizon)
        entry["ccv_T"].append(ccv_cum / horizon)
        shutil.rmtree(out)
    return entry


def main() -> None:
    names = sorted({c for w in WORKLOADS.values() for c in w.configs})
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--configs", default=",".join(names),
                   help="comma-separated subset to re-record")
    args = p.parse_args()
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"pool": POOL,
                                                                       "configs": {}}
    out = ROOT / ".perfbench_out" / f"reference-{os.getpid()}"
    for name in args.configs.split(","):
        doc["configs"][name] = record(name, out)
        print(f"recorded {name}", flush=True)
    doc["configs"] = dict(sorted(doc["configs"].items()))
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
