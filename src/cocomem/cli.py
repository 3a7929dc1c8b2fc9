"""Command-line entry points.

    cocomem run    --config cfg.json [--out DIR] [--seeds N] [--parallel K]
    cocomem verify --config cfg.json
    cocomem bounds --config cfg.json

Exit codes: 0 success, 1 config or usage error, 2 runtime failure, 3
verification failure.  `verify` and `bounds` print each seed's lines as
it finishes; a seed that fails stops them with exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """A usage error exits 1, as a config error does, not argparse's 2."""
        self.exit(EXIT_CONFIG, f"{self.format_usage()}{self.prog}: error: {message}\n")


def _parser() -> argparse.ArgumentParser:
    p = _Parser(prog="cocomem", description="constrained online learning with memory")
    sub = p.add_subparsers(dest="command", required=True)
    config = _Parser(add_help=False)  # the option every command takes
    config.add_argument("--config", required=True)

    run_p = sub.add_parser("run", parents=[config], help="run an experiment config across seeds")
    run_p.add_argument("--out", default=None, help="output directory (default runs/<name>)")
    run_p.add_argument("--seeds", type=int, default=None,
                       help="use seeds 0..N-1 instead of the config's list")
    run_p.add_argument("--parallel", type=int, default=1)
    sub.add_parser("verify", parents=[config], help="run the invariant suite on a config")
    sub.add_parser("bounds", parents=[config], help="print measured-vs-theoretical bound reports")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
            summary = run_experiment(cfg, args.out, parallel=args.parallel)
            print(json.dumps(summary, indent=2, sort_keys=True))
            return EXIT_RUNTIME if summary["seeds_failed"] else EXIT_OK
        ok = True
        for seed in cfg.seeds:  # a seed's lines print before a later seed can fail
            one = replace(cfg, seeds=[seed])
            if args.command == "verify":
                seed_ok, lines = verify_experiment(one)
                ok = ok and seed_ok
            else:
                lines = [f"seed {seed}: {report.to_json()}" for _, report in bounds_reports(one)]
            print("\n".join(lines))
        return EXIT_OK if ok else EXIT_VERIFY
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
