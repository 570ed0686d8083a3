"""Command-line front end.

Exit codes: 0 success, 1 configuration/usage error (including unwritable
output paths), 2 numerical failure during the run.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import ConfigError, read_config
from .moments import DivergenceError, UnphysicalStateError
from .runner import SCENARIO_NAMES, run_config, scenario_config


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through exit code 1
    # with everything else that is the caller's fault.
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="springkick",
        description=(
            "Stroboscopic second-moment dynamics of a mechanical mode under"
            " periodic optical-spring kicks: trajectory CSVs, stationary-state"
            " metrics, kick-noise ensembles."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="PATH", help="INI run configuration file")
    source.add_argument(
        "--scenario",
        choices=SCENARIO_NAMES,
        help="named preset parameter set",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="output stem or .csv path (default: scenario name or 'run')",
    )
    parser.add_argument(
        "--seed", type=int, metavar="U64", help="override the ensemble base seed"
    )
    parser.add_argument(
        "--trajectories",
        type=int,
        metavar="N",
        help="override the ensemble trajectory count",
    )
    parser.add_argument("--kicks", type=int, metavar="N", help="override n_kicks")
    parser.add_argument("--stride", type=int, metavar="N", help="override the sample stride")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the summary echo on stdout"
    )
    return parser


# argparse keeps nothing of a parse on the parser, so every call shares one
_PARSER = build_parser()


def _apply_overrides(config, args):
    if args.kicks is not None:
        config = replace(config, schedule=replace(config.schedule, n_kicks=args.kicks))
    if args.stride is not None:
        config = replace(config, schedule=replace(config.schedule, stride=args.stride))
    if args.seed is not None or args.trajectories is not None:
        if config.ensemble is None:
            raise _UsageError(
                "--seed/--trajectories need an ensemble run; the configuration"
                " has no [ensemble] section"
            )
        ens = config.ensemble
        if args.seed is not None:
            ens = replace(ens, base_seed=args.seed)
        if args.trajectories is not None:
            ens = replace(ens, trajectories=args.trajectories)
        config = replace(config, ensemble=ens)
    return config


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.config is not None:
            config = read_config(args.config)
            default_out = "run"
        else:
            config = scenario_config(args.scenario)
            default_out = args.scenario
        config = _apply_overrides(config, args)
        out = args.out or config.output or default_out
        run_config(config, out, quiet=args.quiet)
        return 0
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DivergenceError, UnphysicalStateError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
