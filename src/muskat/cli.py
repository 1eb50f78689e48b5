"""Command-line entry point.

    simulate <scenario> [--config PATH] [--out DIR] [--modes N]
             [--cutoff K] [--dt DT] [--direction fwd|bwd]

Exit codes: 0 success, 2 configuration error, 3 numeric stop, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import SCENARIOS, ScenarioConfig, load_config, load_config_text
from .errors import ConfigError
from .scenarios import EXIT_CONFIG, EXIT_IO, run_scenario

_DIRECTIONS = {"fwd": "forward", "bwd": "backward", "forward": "forward", "backward": "backward"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Contour-dynamics scenarios for the periodic Muskat interface.",
    )
    parser.add_argument("scenario", choices=SCENARIOS, help="scenario to execute")
    parser.add_argument("--config", help="path to an INI config file (defaults apply if omitted)")
    parser.add_argument("--out", default=None, help="output directory (default out-<scenario>)")
    parser.add_argument("--modes", type=int, default=None, help="override [run] n_modes")
    parser.add_argument("--cutoff", type=int, default=None, help="override [run] galerkin_cutoff")
    parser.add_argument("--dt", type=float, default=None, help="override [run] dt")
    parser.add_argument("--direction", choices=sorted(_DIRECTIONS), default=None,
                        help="override [run] direction")
    return parser


def _load(args) -> ScenarioConfig:
    if args.config is not None:
        cfg = load_config(args.config)
        if cfg.scenario != args.scenario:
            raise ConfigError(
                f"config names scenario {cfg.scenario!r} but {args.scenario!r} was requested"
            )
    else:
        cfg = load_config_text(f"[run]\nscenario = {args.scenario}\n")
    overrides = []
    if args.modes is not None:
        overrides.append(("n_modes", args.modes))
    if args.cutoff is not None:
        overrides.append(("galerkin_cutoff", args.cutoff))
    if args.dt is not None:
        overrides.append(("dt", args.dt))
    if args.direction is not None:
        overrides.append(("direction", _DIRECTIONS[args.direction]))
    if overrides:
        fields = dict(overrides)
        if args.modes is not None and args.cutoff is None:
            # let the changed mode count derive its own dealiasing cutoff
            fields["galerkin_cutoff"] = None
        try:
            run = replace(cfg.run, **fields)
        except ValueError as exc:
            raise ConfigError(f"command-line override: {exc}") from exc
        cfg = replace(cfg, run=run)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out or f"out-{args.scenario}"
    try:
        status = run_scenario(args.scenario, cfg, out_dir)
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
