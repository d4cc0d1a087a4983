"""Command line front end: one subcommand per experiment type.

Usage:
    asymx <subcommand> --config FILE [--seed U64] [--out DIR] [--trials N]

Subcommands map one-to-one onto experiment types.  The config file is a
flat key=value recipe; when the path does not exist on disk the name is
resolved against the recipes bundled with the package, so
``asymx transfer-nmse --config transfer_nmse.cfg`` works from anywhere.
Without --config the experiment runs with library defaults.  Exit status
is 0 on success, 2 for config problems and 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .config import (
    EXPERIMENTS,
    ConfigError,
    config_from_values,
    load_config_values,
)
from .harness import run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asymx",
        description="Link level experiments for asymmetrical transceiver "
                    "massive MIMO basestations.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", metavar="FILE", default=None,
                       help="recipe file (flat key=value; bundled recipe "
                            "names also resolve)")
        p.add_argument("--seed", metavar="U64", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--out", metavar="DIR", default=".",
                       help="directory for the CSV output (default: cwd)")
        p.add_argument("--trials", metavar="N", type=int, default=None,
                       help="override the Monte Carlo trial count")
    return parser


def resolve_config(name: str) -> Path:
    path = Path(name)
    if path.is_file():
        return path
    bundled = resources.files("asymx").joinpath("recipes", name)
    try:
        if bundled.is_file():
            with resources.as_file(bundled) as concrete:
                return Path(concrete)
    except (OSError, ValueError):
        pass
    raise ConfigError(f"config file not found: {name}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        values: dict[str, str] = {}
        if args.config is not None:
            values = load_config_values(resolve_config(args.config))
        configured = values.get("experiment")
        if configured is not None and configured != args.experiment:
            raise ConfigError(
                f"config.experiment: recipe is for {configured!r} but the "
                f"{args.experiment!r} subcommand was invoked")
        values["experiment"] = args.experiment
        if args.seed is not None:
            values["master_seed"] = str(args.seed)
        if args.trials is not None:
            values["trials"] = str(args.trials)
        result = run(config_from_values(values))
        out_path = result.write_csv(args.out)
    except ConfigError as exc:
        print(f"asymx: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"asymx: runtime failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"asymx: error: {exc}", file=sys.stderr)
        return 1

    print(f"wrote {out_path} ({len(result.rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
