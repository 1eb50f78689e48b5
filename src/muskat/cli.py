"""Command-line entry point.

    simulate <scenario> [--config PATH] [--out DIR] [--modes N]
             [--cutoff K] [--dt DT] [--direction fwd|bwd]

The flags set the [run] keys of the same name in the loaded config and go
through the same parsing and checks as the file's values; --modes without
--cutoff lets the cutoff follow the new mode count.

Exit codes: 0 success, 2 configuration error, 3 numeric stop, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .config import ScenarioConfig, load_config, load_config_text
from .errors import ConfigError
from .scenarios import EXIT_CONFIG, EXIT_IO, SCENARIOS, run_scenario

_DIRECTIONS = {"fwd": "forward", "bwd": "backward", "forward": "forward", "backward": "backward"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Contour-dynamics scenarios for the periodic Muskat interface.",
    )
    parser.add_argument("scenario", choices=SCENARIOS, help="scenario to execute")
    parser.add_argument("--config", help="path to an INI config file (defaults apply if omitted)")
    parser.add_argument("--out", default=None, help="output directory (default out-<scenario>)")
    parser.add_argument("--modes", help="set [run] n_modes")
    parser.add_argument("--cutoff", help="set [run] galerkin_cutoff")
    parser.add_argument("--dt", help="set [run] dt")
    parser.add_argument("--direction", choices=sorted(_DIRECTIONS), help="set [run] direction")
    return parser


def _load(args) -> ScenarioConfig:
    flags = {"n_modes": args.modes, "galerkin_cutoff": args.cutoff, "dt": args.dt,
             "direction": _DIRECTIONS.get(args.direction)}
    run = {key: value for key, value in flags.items() if value is not None}
    if args.modes is not None and args.cutoff is None:
        # an empty cutoff is unset: the changed mode count derives its own
        run["galerkin_cutoff"] = ""
    if args.config is None:
        return load_config_text(f"[run]\nscenario = {args.scenario}\n", run)
    cfg = load_config(args.config, run)
    if cfg.scenario != args.scenario:
        raise ConfigError(
            f"config names scenario {cfg.scenario!r} but {args.scenario!r} was requested"
        )
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = args.out or f"out-{args.scenario}"
    try:
        status = run_scenario(_load(args), out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    if status == 0:
        print(f"{args.scenario}: ok, artifacts in {out_dir}")
    else:
        print(f"{args.scenario}: stopped (status {status}), artifacts in {out_dir}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
