"""Command-line entry points.

    cocomem run    --config cfg.json [--out DIR] [--seeds N] [--parallel K]
    cocomem verify --config cfg.json
    cocomem bounds --config cfg.json

Exit codes: 0 success, 1 config error, 2 runtime failure, 3 verification
failure.  COCO_MEM_OUT overrides the output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import (
    ConfigError,
    bounds_reports,
    load_config,
    run_experiment,
    verify_experiment,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cocomem",
                                description="constrained online learning with memory")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config across seeds")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--seeds", type=int, default=None,
                       help="use seeds 0..N-1 instead of the config's list")
    run_p.add_argument("--parallel", type=int, default=1)

    ver_p = sub.add_parser("verify", help="run the invariant suite on a config")
    ver_p.add_argument("--config", required=True)

    b_p = sub.add_parser("bounds", help="print measured-vs-theoretical bound reports")
    b_p.add_argument("--config", required=True)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "run":
            if args.seeds is not None:
                if args.seeds < 1:
                    raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
                cfg.seeds = list(range(args.seeds))
            if args.parallel < 1:
                raise ConfigError(f"--parallel must be at least 1, got {args.parallel}")
            out_dir = args.out or os.environ.get("COCO_MEM_OUT") or cfg.out_dir
            summary = run_experiment(cfg, out_dir, parallel=args.parallel)
            print(json.dumps(summary, indent=2, sort_keys=True))
            return EXIT_RUNTIME if summary["seeds_failed"] else EXIT_OK
        if args.command == "verify":
            ok, lines = verify_experiment(cfg)
            print("\n".join(lines))
            return EXIT_OK if ok else EXIT_VERIFY
        reports = bounds_reports(cfg)
        for seed, report in reports:
            print(f"seed {seed}: {report.to_json()}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
