"""Flat key-value configuration files with typed sections.

Format: INI-style text with sections [run], [schedule], [family],
[perturbation].  Only the scenario name is mandatory; every other key has a
documented default.  Unknown sections or keys are rejected so that typos
fail loudly, and validation errors always name the offending field.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import io
import math
import typing
from dataclasses import dataclass

from .errors import ConfigError
from .initial_data import GraphFamilyParams
from .integrator import STOP_CONDITIONS, RunConfig
from .schedules import HeightSchedule

SCENARIOS = (
    "flat",
    "linear_decay",
    "turnover",
    "perturbed_pair",
    "schedule_check",
    "operator_suite",
    "f_kappa_build",
)

# [run] keys mirror the RunConfig fields except the schedule, which has its
# own section; stop_on is a comma list in the file.
_RUN_FIELDS = {f.name: f.default for f in dataclasses.fields(RunConfig) if f.name != "schedule"}


def _key_type(hint):
    """int | None -> int; plain types pass through."""
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    return args[0] if args else hint


_RUN_HINTS = typing.get_type_hints(RunConfig)
# (type, default) per key
_RUN_KEYS = {
    "scenario": (str, None),
    **{name: (_key_type(_RUN_HINTS[name]), default) for name, default in _RUN_FIELDS.items()},
    "seed": (int, 0),
}
_RUN_KEYS["stop_on"] = (str, "")
_SCHEDULE_KEYS = {"a": (float, 10.0), "tau": (float, 0.005), "kappa": (float, 1e-6)}
_FAMILY_KEYS = {
    "slope_amplitude": (float, None),
    "steepening_rate": (float, -0.3),
    "mode_count": (int, 2),
    "vertical_amplitudes": (str, "-0.5, 1.0"),
}
_PERTURBATION_KEYS = {"lambda": (float, 1e-5), "kappa": (float, 0.2)}
_SECTIONS = {
    "run": _RUN_KEYS,
    "schedule": _SCHEDULE_KEYS,
    "family": _FAMILY_KEYS,
    "perturbation": _PERTURBATION_KEYS,
}

# per-scenario fallbacks for keys the user left unset, where they differ
# from the RunConfig defaults
_SCENARIO_RUN_DEFAULTS = {
    "flat": dict(dt=1e-2),
    "linear_decay": dict(t_end=0.5),
    "turnover": dict(dt=5e-4, t_end=0.04, stop_on="chord_arc_floor,blowup_norm"),
    "perturbed_pair": dict(t_end=0.1),
}
_SCENARIO_FAMILY_SLOPE = {"turnover": 0.98}


@dataclass
class ScenarioConfig:
    scenario: str
    run: RunConfig
    schedule: HeightSchedule
    family: GraphFamilyParams
    perturbation_lambda: float
    perturbation_kappa: float
    seed: int

    def digest(self) -> str:
        return hashlib.sha256(serialize_config(self).encode()).hexdigest()[:16]


def _parse_value(section: str, key: str, raw: str):
    typ, _default = _SECTIONS[section][key]
    try:
        if typ is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "1", "on"):
                return True
            if lowered in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {typ.__name__}") from exc


def _read_ini(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    return parser


def load_config_text(text: str) -> ScenarioConfig:
    parser = _read_ini(text)
    values: dict[tuple[str, str], object] = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[(section, key)] = _parse_value(section, key, raw)

    def get(section: str, key: str):
        if (section, key) in values:
            return values[(section, key)]
        return _SECTIONS[section][key][1]

    scenario = get("run", "scenario")
    if scenario is None:
        raise ConfigError("[run] scenario: required")
    if scenario not in SCENARIOS:
        raise ConfigError(f"[run] scenario: unknown scenario {scenario!r}")

    fallbacks = _SCENARIO_RUN_DEFAULTS.get(scenario, {})

    def run_value(key: str):
        return values.get(("run", key), fallbacks.get(key, _RUN_KEYS[key][1]))

    run_values = {name: run_value(name) for name in _RUN_FIELDS}
    stop_on = frozenset(
        part.strip() for part in run_values["stop_on"].split(",") if part.strip()
    )
    unknown_stops = stop_on - STOP_CONDITIONS
    if unknown_stops:
        raise ConfigError(f"[run] stop_on: unknown conditions {sorted(unknown_stops)}")

    try:
        schedule = HeightSchedule(
            A=get("schedule", "a"), tau=get("schedule", "tau"), kappa=get("schedule", "kappa")
        )
    except ValueError as exc:
        raise ConfigError(f"[schedule]: {exc}") from exc

    # the generalized Rayleigh-Taylor monitor is driven by the schedule
    run_schedule = schedule if run_values["rt_convention"] == "generalized" else None
    try:
        run = RunConfig(**{**run_values, "stop_on": stop_on, "schedule": run_schedule})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[run]: {exc}") from exc

    slope = get("family", "slope_amplitude")
    if slope is None:
        slope = _SCENARIO_FAMILY_SLOPE.get(scenario, 1.0)
    raw_verticals = get("family", "vertical_amplitudes")
    try:
        verticals = tuple(float(part) for part in str(raw_verticals).split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"[family] vertical_amplitudes: {exc}") from exc
    try:
        family = GraphFamilyParams(
            slope_amplitude=slope,
            steepening_rate=get("family", "steepening_rate"),
            mode_count=get("family", "mode_count"),
            vertical_amplitudes=verticals,
        )
    except ValueError as exc:
        raise ConfigError(f"[family] {exc}") from exc

    # numpy's generators take only nonnegative seeds
    if get("run", "seed") < 0:
        raise ConfigError(f"[run] seed: must be nonnegative, got {get('run', 'seed')}")

    for key in ("lambda", "kappa"):
        value = get("perturbation", key)
        if not (math.isfinite(value) and value >= 0.0):
            raise ConfigError(f"[perturbation] {key}: must be finite and nonnegative, got {value}")

    return ScenarioConfig(
        scenario=scenario,
        run=run,
        schedule=schedule,
        family=family,
        perturbation_lambda=get("perturbation", "lambda"),
        perturbation_kappa=get("perturbation", "kappa"),
        seed=get("run", "seed"),
    )


def load_config(path: str) -> ScenarioConfig:
    """Parse and validate a config file; ConfigError carries the field name."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return load_config_text(text)


def _render(key: str, value) -> str:
    typ = _RUN_KEYS[key][0]
    if key == "stop_on":
        return ",".join(sorted(value))
    if typ is float:
        return repr(value)
    return str(value).lower() if typ is bool else str(value)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render a fully explicit config that round-trips through load."""
    parser = configparser.ConfigParser(interpolation=None)
    parser["run"] = {
        "scenario": cfg.scenario,
        **{name: _render(name, getattr(cfg.run, name)) for name in _RUN_FIELDS},
        "seed": str(cfg.seed),
    }
    parser["schedule"] = {
        "a": repr(cfg.schedule.A),
        "tau": repr(cfg.schedule.tau),
        "kappa": repr(cfg.schedule.kappa),
    }
    parser["family"] = {
        "slope_amplitude": repr(cfg.family.slope_amplitude),
        "steepening_rate": repr(cfg.family.steepening_rate),
        "mode_count": str(cfg.family.mode_count),
        "vertical_amplitudes": ", ".join(repr(v) for v in cfg.family.vertical_amplitudes),
    }
    parser["perturbation"] = {
        "lambda": repr(cfg.perturbation_lambda),
        "kappa": repr(cfg.perturbation_kappa),
    }
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
