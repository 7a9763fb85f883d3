"""Benchmark command line: run one experiment family from a JSON config and
write the records as CSV."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

from .bench import EXPERIMENTS, emit_csv
from .config import ConfigError, load_config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinchslp",
        description="Symbol-level precoding + pinching-antenna placement benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment and emit CSV records")
    run.add_argument("--config", required=True, help="JSON config path")
    run.add_argument(
        "--experiment",
        required=True,
        choices=sorted(EXPERIMENTS),
        help="which experiment family to run",
    )
    run.add_argument("--trials", type=int, help="override the config trial count")
    run.add_argument("--seed", type=int, help="override the config master seed")
    run.add_argument("--out", default="results.csv", help="output CSV path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.trials is not None:
            cfg = replace(cfg, trials=args.trials)
        if args.seed is not None:
            cfg = replace(cfg, master_seed=args.seed)
        records = EXPERIMENTS[args.experiment](cfg)
        emit_csv(records, args.out)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not any(math.isfinite(r.power_w) for r in records):
        print("error: every trial was infeasible", file=sys.stderr)
        return 1
    print(f"wrote {len(records)} records to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
