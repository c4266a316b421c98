"""Command-line interface for the experiment harness."""

from __future__ import annotations

import argparse
import sys

from . import runner
from .config import ALGORITHMS, ConfigError, build_config, read_config_file
from .dataio import write_csv

_RUNNERS = {
    "sysid": runner.run_sysid,
    "tracking": runner.run_tracking,
    "aec": runner.run_aec,
    "theory": runner.run_theory_compare,
    "sweep": runner.run_sweep,
}

_HELP = {
    "sysid": "stationary system identification (benchmark cases 1-5)",
    "tracking": "identification with a mid-run shift of the true system",
    "aec": "echo cancellation against a 512-tap path",
    "theory": "steady-state predictions next to simulation",
    "sweep": "Monte-Carlo mean cost over a two-tap weight grid",
}


def _add_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="INI config file")
    p.add_argument("--out", metavar="PATH", help="write curves as CSV here")
    p.add_argument("--runs", type=int, metavar="N", help="Monte-Carlo trials")
    p.add_argument("--samples", type=int, metavar="N", help="stream length")
    p.add_argument("--seed", type=int, metavar="N", help="base seed (trial r adds r)")
    p.add_argument("--case", type=int, choices=(1, 2, 3, 4, 5), help="noise case")
    p.add_argument("--algo", choices=ALGORITHMS, help="algorithm preset")
    p.add_argument("--mu", type=float, help="step-size override")
    p.add_argument("--pce", type=float, metavar="RATIO", help="target censoring ratio")
    p.add_argument("--reuse", type=int, metavar="N", help="reused samples per iteration")
    p.add_argument("--window", type=int, metavar="N", help="reuse window cap")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rtga",
        description="Robust total-least-squares adaptive filtering experiments",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, text in _HELP.items():
        _add_flags(sub.add_parser(mode, help=text))
    args = parser.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("mode", "config")}
    try:
        file_values = read_config_file(args.config) if args.config else None
        cfg = build_config(args.mode, file_values, overrides)
        result = _RUNNERS[args.mode](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError, LookupError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if cfg.out_path:
        try:
            write_csv(result.csv_columns, cfg.out_path)
        except OSError as exc:
            print(f"error: cannot write {cfg.out_path}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {cfg.out_path}")
    print(result.summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
