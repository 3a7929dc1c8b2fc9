"""Run the benchmark over many seeds and summarise, or compare two summaries.

    python3 perfbench/collect.py --seeds 0-9 --out-dir .perfbench_out
    python3 perfbench/collect.py --roots ../parent . --seeds 0-9 --out-dir .perfbench_out
    python3 perfbench/collect.py --compare BENCH_before.json BENCH_after.json

Each run is `python3 perfbench/run.py --workload W --seed S --seconds N
--trace T` in the checkout given by --roots (default: this one), one
process at a time, with N the `run_seconds` of BENCHMARK.json.  With two roots, the order alternates from seed to
seed so that neither side always runs first.  A summary holds every raw
value plus, per workload and metric, the median, the quartiles and the
spread (interquartile distance over the median).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def summarise(runs: list[dict]) -> dict:
    out: dict = {}
    for w in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == w]
        block: dict = {
            "runs": len(mine),
            "correct": all(r["result"]["correct"] for r in mine),
            "attempted": sum(r["result"]["attempted"] for r in mine),
            "failed": sum(r["result"]["failed"] for r in mine),
            "metrics": {},
        }
        for name, first in mine[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, 0, med)
            block["metrics"][name] = {
                "unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values,
            }
        out[w] = block
    return out


def declared() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in doc["end_to_end"] + doc["per_layer"]}


def print_summary(summary: dict) -> None:
    decl = declared()
    for w, block in summary.items():
        print(f"== {w}: {block['runs']} runs, attempted {block['attempted']}, "
              f"failed {block['failed']}, correct {block['correct']}")
        for name, s in block["metrics"].items():
            bound = decl.get(name, {}).get("bound")
            flag = "" if bound is None else (" over bound/3" if s["spread"] > bound / 3 else "")
            print(f"  {name:<42} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}"
                  f"{'' if bound is None else f' (bound {bound})'}{flag}")


def compare(before: dict, after: dict) -> None:
    """Median change per workload and metric.  End-to-end metrics are
    judged against their bound; a metric whose spread at either side is
    wider than its bound is reported as unresolved."""
    decl = declared()
    for w in sorted(set(before) & set(after)):
        print(f"== {w}: failed {before[w]['failed']} -> {after[w]['failed']}")
        for name, b in before[w]["metrics"].items():
            a = after[w]["metrics"].get(name)
            if a is None:
                continue
            d = decl.get(name, {})
            sign = 1.0 if d.get("better", "lower") == "lower" else -1.0
            change = sign * (a["median"] - b["median"]) / abs(b["median"]) if b["median"] else 0.0
            verdict = ""
            if "bound" in d:
                if max(a["spread"], b["spread"]) > d["bound"]:
                    verdict = "unresolved"
                else:
                    verdict = "REGRESSION" if change > d["bound"] else "ok"
            print(f"  {name:<42} {b['median']:<12.6g} -> {a['median']:<12.6g} "
                  f"worse by {100 * change:+.2f}% {verdict}")


def main() -> None:
    p = argparse.ArgumentParser(description="collect or compare cocomem benchmark runs")
    p.add_argument("--roots", nargs="+", type=Path, default=[ROOT],
                   help="checkouts to run (alternating order with two)")
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out-dir", type=Path, help="one BENCH_<root name>.json per root")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    args = p.parse_args()

    if args.compare:
        before, after = (json.loads(f.read_text())["summary"] for f in args.compare)
        compare(before, after)
        return

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    runs: dict[Path, list[dict]] = {root: [] for root in args.roots}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = args.roots if i % 2 == 0 else args.roots[::-1]
        for w in workloads:
            for root in order:
                result = run_once(root, w, seed, seconds, args.trace)
                runs[root].append({"workload": w, "seed": seed, "result": result})
                print(f"{root.name or root} {w} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.6g}"
                                  for k, v in list(result["metrics"].items())[:6]),
                      flush=True)
    for root, mine in runs.items():
        summary = summarise(mine)
        print(f"### {root}")
        print_summary(summary)
        doc = {"root": str(root), "seconds": seconds, "trace": args.trace,
               "summary": summary, "runs": mine}
        if args.out_dir:
            target = args.out_dir / f"BENCH_{root.resolve().name}.json"
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
