"""Command-line interface for the experiment harness."""

from __future__ import annotations

import argparse
import sys

from . import runner
from .config import SETTINGS, ConfigError, build_config, read_config_file
from .dataio import write_csv

# mode -> (runner, subcommand help)
_SUBCOMMANDS = {
    "sysid": (runner.run_sysid, "stationary system identification (benchmark cases 1-5)"),
    "tracking": (runner.run_tracking, "identification with a mid-run shift of the true system"),
    "aec": (runner.run_aec, "echo cancellation against a 512-tap path"),
    "theory": (runner.run_theory_compare, "steady-state predictions next to simulation"),
    "sweep": (runner.run_sweep, "Monte-Carlo mean cost over a two-tap weight grid"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rtga",
        description="Robust total-least-squares adaptive filtering experiments",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (_, text) in _SUBCOMMANDS.items():
        p = sub.add_parser(mode, help=text)
        p.add_argument("--config", metavar="PATH", help="INI config file")
        p.add_argument("--out", metavar="PATH", help="write curves as CSV here")
        for (section, key), s in SETTINGS.items():
            if s.flag:
                p.add_argument(f"--{s.flag}", type=s.conv, choices=s.choices,
                               metavar=s.metavar, help=f"{s.help} ([{section}] {key})")
    args = parser.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("mode", "config")}
    try:
        file_values = read_config_file(args.config) if args.config else None
        cfg = build_config(args.mode, file_values, overrides)
        result = _SUBCOMMANDS[args.mode][0](cfg)
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
