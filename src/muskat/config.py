"""Flat key-value configuration files with typed sections.

Format: INI-style text with sections [run], [schedule], [family],
[perturbation].  Each key is a field, in lower case, of what its section
builds: [run] of RunConfig plus ScenarioConfig's scenario and seed,
[schedule] of HeightSchedule, [family] of GraphFamilyParams, [perturbation]
of ScenarioConfig's perturbation_* fields.  The field's type hint sets how a
value is parsed and written.  Only the scenario name is mandatory; an unset
key takes its scenario's fallback, held beside the scenario's function in
``scenarios.SCENARIOS``, else the field's default.  Unknown sections or
keys are rejected so that typos fail loudly, and validation errors always
name the offending field.  The command-line flags set [run] keys through
the same loader and checks.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import hashlib
import io
import math
import typing
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import ConfigError
from .initial_data import GraphFamilyParams
from .integrator import RunConfig
from .scenarios import SCENARIOS
from .schedules import HeightSchedule


@dataclass
class ScenarioConfig:
    scenario: str
    run: RunConfig
    schedule: HeightSchedule
    family: GraphFamilyParams
    perturbation_lambda: float = 1e-5
    perturbation_kappa: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"[run] scenario: unknown scenario {self.scenario!r}")
        # numpy's generators take only nonnegative seeds
        if self.seed < 0:
            raise ConfigError(f"[run] seed: must be nonnegative, got {self.seed}")
        for key in ("lambda", "kappa"):
            value = getattr(self, f"perturbation_{key}")
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(
                    f"[perturbation] {key}: must be finite and nonnegative, got {value}"
                )

    def digest(self) -> str:
        return hashlib.sha256(serialize_config(self).encode()).hexdigest()[:16]


def _items(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


# type hint -> (parse, render); the two comma lists keep their own
# separators, so the rendered defaults (and the digests snapshots store) hold
_CODECS = {
    float: (float, repr),
    int: (int, str),
    str: (str, str),
    bool: (lambda raw: configparser.ConfigParser.BOOLEAN_STATES[raw.lower()],
           lambda value: str(value).lower()),
    frozenset[str]: (lambda raw: frozenset(_items(raw)), lambda value: ",".join(sorted(value))),
    tuple[float, ...]: (
        lambda raw: tuple(float(part) for part in _items(raw)),
        lambda value: ", ".join(repr(v) for v in value),
    ),
}


def _codec(hint):
    """(parse, render) of a type hint; ``X | None`` reads an empty value as None."""
    args = typing.get_args(hint)
    if type(None) not in args:
        return _CODECS[hint]
    (inner,) = [arg for arg in args if arg is not type(None)]
    parse, render = _CODECS[inner]
    return (lambda raw: parse(raw) if raw.strip() else None,
            lambda value: "" if value is None else render(value))


def _build_table() -> dict[tuple[str, str], tuple]:
    """(section, key) -> (attribute path from ScenarioConfig, type hint,
    default) for every config key, in file order.

    A dataclass-typed field of ScenarioConfig is the section of its name; a
    scalar field perturbation_<key> is <key> of [perturbation], any other
    scalar field a [run] key.
    """
    table = {}
    hints = typing.get_type_hints(ScenarioConfig)
    for top in dataclasses.fields(ScenarioConfig):
        hint = hints[top.name]
        if not dataclasses.is_dataclass(hint):
            section, _, key = top.name.rpartition("_")
            table[(section or "run", key)] = ((top.name,), hint, top.default)
            continue
        sub_hints = typing.get_type_hints(hint)
        for sub in dataclasses.fields(hint):
            # RunConfig.schedule is the [schedule] section itself
            if (top.name, sub.name) != ("run", "schedule"):
                table[(top.name, sub.name.lower())] = (
                    (top.name, sub.name), sub_hints[sub.name], sub.default
                )
    return table


_TABLE = _build_table()
_SECTION_NAMES = {section for section, _ in _TABLE}


def _parse_value(section: str, key: str, raw: str):
    hint = _TABLE[(section, key)][1]
    try:
        return _codec(hint)[0](raw)
    except (KeyError, ValueError) as exc:
        name = getattr(hint, "__name__", hint)
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} as {name}") from exc


def _read_ini(text: str) -> configparser.ConfigParser:
    # no section header can be empty, so [DEFAULT] is an ordinary section,
    # reported as unknown instead of merged into every other section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    return parser


def load_config_text(text: str, run: Mapping[str, str] | None = None) -> ScenarioConfig:
    """Parse and validate config text; ``run`` holds raw [run] values that
    replace the text's, as the command-line flags do."""
    parser = _read_ini(text)
    if run:
        parser.read_dict({"run": run})
    values: dict[tuple[str, str], object] = {}
    for section in parser.sections():
        if section not in _SECTION_NAMES:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in _TABLE:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            values[(section, key)] = _parse_value(section, key, raw)

    scenario = SCENARIOS.get(values.get(("run", "scenario")))
    fallbacks = scenario.fallbacks if scenario else {}
    kwargs: dict[str, typing.Any] = {}
    for name, (path, _, default) in _TABLE.items():
        value = values.get(name, fallbacks.get(name, default))
        if value is dataclasses.MISSING:
            raise ConfigError(f"[{name[0]}] {name[1]}: required")
        if len(path) == 1:
            kwargs[path[0]] = value
        else:
            kwargs.setdefault(path[0], {})[path[1]] = value

    def build(section: str, cls, **extra):
        try:
            return cls(**kwargs[section], **extra)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from exc

    schedule = build("schedule", HeightSchedule)
    # the generalized Rayleigh-Taylor monitor is driven by the schedule
    generalized = kwargs["run"]["rt_convention"] == "generalized"
    kwargs["run"] = build("run", RunConfig, schedule=schedule if generalized else None)
    kwargs["family"] = build("family", GraphFamilyParams)
    kwargs["schedule"] = schedule
    return ScenarioConfig(**kwargs)


def load_config(path: str, run: Mapping[str, str] | None = None) -> ScenarioConfig:
    """Parse and validate a config file; ConfigError carries the field name."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return load_config_text(text, run)


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render a fully explicit config that round-trips through load."""
    parser = configparser.ConfigParser(interpolation=None)
    for (section, key), (path, hint, _) in _TABLE.items():
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, _codec(hint)[1](functools.reduce(getattr, path, cfg)))
    out = io.StringIO()
    parser.write(out)
    return out.getvalue()
