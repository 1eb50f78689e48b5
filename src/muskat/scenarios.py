"""Named scenarios and their artifact files.

``SCENARIOS`` is the one table of scenarios: it maps each name to its
function and to the fallbacks the config loader takes for keys a file
leaves unset; the loader and the command line read it.

Every scenario writes its artifacts into an output directory and returns
the fields of its report.  ``flat``, ``linear_decay`` and ``turnover``
write a trajectory CSV with one row per recorded step, initial/final
snapshots and a plot-data JSON with curve samples at selected times;
``perturbed_pair`` and ``f_kappa_build`` write their own CSV.
:func:`run_scenario` writes the report, ``report.json``, last and maps the
run's ending to the exit status.  Writes are atomic (temp file + rename).
A CSV row containing NaN is refused, while an infinite value is written as
``inf``; the JSON files write every non-finite number as null.  So a
consumer never sees NaN output.
"""

from __future__ import annotations

import dataclasses
import math
import os
from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import core, integrator
from .contour_ops import LiftedContour, garding_form, lambda_gamma, pairwise_cot, pv_cot_integral
from .core import InterfaceState
from .errors import (
    BlowupError,
    ConfigError,
    DegenerateGeometryError,
    DegenerateParametrizationError,
    UndefinedRadiusError,
)
from .grid import Block, SpectralGrid, difference, factor_tables
from .initial_data import f_kappa, log_datum, make_turnover_state, perturb
from .integrator import DiagnosticsRecord, Trajectory, run, two_solution_monitor
from .schedules import rt_coupled_margins, schedule_margins
from .snapshots import atomic_write_text, save_snapshot, write_json

if TYPE_CHECKING:  # config reads the registry below, so it is imported for hints only
    from .config import ScenarioConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _write_report(out_dir: str, cfg: ScenarioConfig, fields: dict) -> None:
    """report.json: the scenario name and config digest, then ``fields``."""
    write_json(os.path.join(out_dir, "report.json"),
               {"scenario": cfg.scenario, "config_digest": cfg.digest(), **fields})


def _write_csv(path: str, header: tuple[str, ...], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        if any(isinstance(v, float) and math.isnan(v) for v in row):
            raise BlowupError(f"refusing to write NaN row to {path}")
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _trajectory_rows(trajectory: Trajectory, constants: dict):
    """The trajectory CSV: one row per record, its diagnostics and then
    ``constants``, the run's per-run values (name -> value) on every row."""
    header = tuple(field.name for field in dataclasses.fields(DiagnosticsRecord))
    tail = tuple(constants.values())
    rows = [dataclasses.astuple(diag) + tail for _, _, diag in trajectory.records]
    return header + tuple(constants), rows


def _write_plot_data(path: str, trajectory: Trajectory, grid: SpectralGrid) -> None:
    """Curve samples at up to nine recorded times, spread evenly over the records."""
    count = len(trajectory.records)
    picks = sorted(set(np.linspace(0, count - 1, min(9, count)).astype(int)))
    curves = []
    for i in picks:
        t, state, _ = trajectory.records[i]
        z1, z2 = core.build_workspace(state, grid, None, 0).der[0]
        curves.append({"time": t, "x": grid.nodes.tolist(), "z1": z1.tolist(), "z2": z2.tolist()})
    write_json(path, {"curves": curves, "termination": trajectory.termination})


#: the ending fields that only a chord-arc stop sets
_CHORD_ARC_STOP = frozenset({"chord_arc_pair", "chord_arc_ratio", "chord_arc_contour"})


def _ending(outcome: Trajectory, records: int) -> dict:
    """The report fields of how a time-stepping run went: the fields of the
    driver's ``outcome``, as :class:`~muskat.integrator.Trajectory` declares
    them, with ``records`` the number of records.

    The chord-arc stop's three fields are written only when a chord-arc stop
    set them.  Read through ``vars``, which copies no recorded state; JSON
    writes the node-pair tuples as lists.
    """
    skipped = _CHORD_ARC_STOP if outcome.chord_arc_pair is None else frozenset()
    ending = {name: value for name, value in vars(outcome).items() if name not in skipped}
    return {**ending, "records": records}


def _emit_trajectory(out_dir: str, cfg: ScenarioConfig, trajectory: Trajectory,
                     grid: SpectralGrid, **constants) -> dict:
    """Write the trajectory's artifacts, with ``constants`` (name=value) as
    per-run CSV columns; returns the report fields of how the run went."""
    header, rows = _trajectory_rows(trajectory, constants)
    _write_csv(os.path.join(out_dir, "trajectory.csv"), header, rows)
    digest = cfg.digest()
    first = trajectory.records[0]
    last = trajectory.records[-1]
    save_snapshot(first[1], os.path.join(out_dir, "snapshot_initial.json"), digest,
                  dataclasses.asdict(first[2]))
    save_snapshot(last[1], os.path.join(out_dir, "snapshot_final.json"), digest,
                  dataclasses.asdict(last[2]))
    _write_plot_data(os.path.join(out_dir, "plot_data.json"), trajectory, grid)
    return _ending(trajectory, len(trajectory.records))


def _cosine_graph(grid: SpectralGrid, amplitude: float) -> InterfaceState:
    """The graph z2 = amplitude cos x over z1 = x."""
    return InterfaceState(np.zeros(grid.n_modes, dtype=complex),
                          grid.to_spectral(amplitude * np.cos(grid.nodes)))


def _scenario_flat(cfg: ScenarioConfig, out_dir: str) -> dict:
    grid = SpectralGrid(cfg.run.n_modes)
    trajectory = run(InterfaceState.flat(grid), cfg.run)
    return _emit_trajectory(out_dir, cfg, trajectory, grid)


def _scenario_linear_decay(cfg: ScenarioConfig, out_dir: str) -> dict:
    grid = SpectralGrid(cfg.run.n_modes)
    trajectory = run(_cosine_graph(grid, 0.01), cfg.run)
    # the linear rate of mode 1 around the flat interface
    expected = 2.0 * math.pi * cfg.run.density_jump_over_2pi
    report = {"fitted_decay_rate": None, "expected_rate": expected, "relative_error": None}
    constants = {}
    if len(trajectory.records) > 1:  # a run stopped at its first step leaves no decay to fit
        amplitudes = [np.abs(core.build_workspace(state, grid, None, 0).z2).max()
                      for _, state, _ in trajectory.records]
        fitted_rate = float(-np.polyfit(trajectory.times(), np.log(amplitudes), 1)[0])
        constants = {"fitted_decay_rate": fitted_rate}
        report["fitted_decay_rate"] = fitted_rate
        if expected:
            report["relative_error"] = abs(fitted_rate - expected) / abs(expected)
    return {**_emit_trajectory(out_dir, cfg, trajectory, grid, **constants), **report}


def _scenario_turnover(cfg: ScenarioConfig, out_dir: str) -> dict:
    grid = SpectralGrid(cfg.run.n_modes)
    initial = make_turnover_state(cfg.family, grid)
    trajectory = run(initial, cfg.run)
    minima = [diag.min_dz1 for diag in trajectory.diagnostics()]
    crossed = any(m < 0.0 for m in minima) and minima[0] > 0.0
    first_cross = next((t for t, m in zip(trajectory.times(), minima) if m < 0.0), None)
    return {
        **_emit_trajectory(out_dir, cfg, trajectory, grid),
        "turnover_detected": bool(crossed),
        "first_negative_time": first_cross,
        "min_over_run": min(minima),
        "family": dataclasses.asdict(cfg.family),
    }


def _scenario_perturbed_pair(cfg: ScenarioConfig, out_dir: str) -> dict:
    grid = SpectralGrid(cfg.run.n_modes)
    base = _cosine_graph(grid, 0.05)
    other = perturb(base, cfg.perturbation_lambda, f_kappa(cfg.perturbation_kappa, grid))
    initial_distance = integrator.initial_pair_distance(base, other, cfg.run)
    if initial_distance == 0.0:
        # lambda = 0, or a lambda or kappa that underflows the distance:
        # the pair is one solution, refused before a step
        raise ConfigError(
            f"[perturbation] lambda: the perturbation lambda * f_kappa has zero H4 norm "
            f"(lambda = {cfg.perturbation_lambda}, kappa = {cfg.perturbation_kappa}), "
            "so the distance ratios are undefined"
        )
    monitor = two_solution_monitor(base, other, cfg.run)
    rows = list(zip(monitor.times, monitor.distances))
    _write_csv(os.path.join(out_dir, "pair_distances.csv"), ("time", "h4_distance"), rows)
    return {
        **_ending(monitor.outcome, len(monitor.times)),
        "initial_distance": initial_distance,
        "max_ratio": max(monitor.distances) / initial_distance,
        "final_ratio": monitor.distances[-1] / initial_distance,
        "min_quotient_of_squared_distance": monitor.min_quotient,
        "lambda": cfg.perturbation_lambda,
        "kappa": cfg.perturbation_kappa,
    }


def _scenario_schedule_check(cfg: ScenarioConfig, out_dir: str) -> dict:
    grid = SpectralGrid(cfg.run.n_modes)
    margins = schedule_margins(cfg.schedule, grid)
    coupled = rt_coupled_margins(cfg.schedule, grid)
    return {
        "schedule": dataclasses.asdict(cfg.schedule),
        "margins": dataclasses.asdict(margins),
        "rt_coupled_margins": {"h_domain": coupled[0], "hbar_domain": coupled[1]},
        "all_nonnegative": margins.all_nonnegative(),
    }


def _scenario_operator_suite(cfg: ScenarioConfig, out_dir: str) -> dict:
    grid = SpectralGrid(512)
    rng = np.random.default_rng(cfg.seed)
    x = grid.nodes

    multiplier_err = 0.0
    for k in range(-128, 129):
        mode = np.exp(1j * k * x)
        got = grid.from_spectral(grid.lambda_op(grid.to_spectral(mode)))
        multiplier_err = max(multiplier_err, float(np.abs(got - abs(k) * mode).max()))

    c = np.zeros(grid.n_modes, dtype=complex)
    band = np.abs(grid.wavenumbers) <= 24
    c[band] = rng.normal(size=band.sum()) + 1j * rng.normal(size=band.sum())
    composition_err = float(
        np.abs(grid.lambda_op(c) - grid.hilbert(grid.derivative(c))).max()
    )

    pv_errs = {"torus": float(np.abs(pv_cot_integral(grid)).max())}
    for label, heights in {
        "constant": 0.5 + 0.0 * x,
        "cosine": 0.4 + 0.05 * np.cos(x),
        "two_mode": 0.3 + 0.1 * np.sin(2 * x),
    }.items():
        contour = LiftedContour.from_height(grid, heights)
        pv_errs[label] = float(np.abs(pv_cot_integral(grid, contour)).max())

    contour = LiftedContour.from_height(grid, np.full(grid.n_modes, 0.5))
    zeta = contour.complex_nodes(grid)
    mode = np.exp(4j * zeta)
    reduction_err = float(
        np.abs(lambda_gamma(mode, 4j * mode, contour, grid) - 4.0 * mode).max()
    )

    a_vals = 0.5 + 0.1 * np.cos(x)
    b_vals = 0.3 * np.sin(x)
    f_vals = grid.from_spectral(grid.project_modes(
        grid.to_spectral(rng.normal(size=grid.n_modes)), grid.n_modes // 3))
    f_vals = f_vals / grid.norm_l2(f_vals)
    garding_value = garding_form(a_vals, b_vals, f_vals, grid)

    # quadratic-form identity on cos x: both sides equal pi
    f = np.cos(x).astype(complex)
    lam_f = grid.from_spectral(grid.lambda_op(grid.to_spectral(f)))
    lhs = grid.quadrature(np.conj(f) * lam_f).real
    # |f(x) - f(u)|^2 / sin^2((x - u)/2), with 1/sin^2 = 1 + cot^2 and the
    # diagonal limit 4 |f'(x)|^2; symmetric, so its own mirror
    diag = 4.0 * np.sin(x) ** 2
    tables = factor_tables(difference(f.real), difference(f.imag), difference(0.5 * x))

    def sums(block: Block):
        re, im, a = block.product(*tables, out=block.buffers("integrands", 3))
        values = (re**2 + im**2) * (1.0 + pairwise_cot(a, None, block) ** 2)
        return [block.sums(values, values, diag[block.rows])]

    rhs_side = grid.pair_quadrature(sums, float)[0].sum() * grid.dx / (8.0 * np.pi)
    quadratic_form_err = abs(lhs - rhs_side) / abs(lhs)

    return {
        "lambda_multiplier_max_error": multiplier_err,
        "lambda_equals_hilbert_derivative_max_error": composition_err,
        "pv_cot_max_abs": pv_errs,
        "constant_height_reduction_max_error": reduction_err,
        "garding_sample_value": garding_value,
        "quadratic_form_relative_error": quadratic_form_err,
    }


#: coefficient band of the f_kappa analyticity-radius fit
_F_KAPPA_FIT_BAND = (8, 40)


def _scenario_f_kappa_build(cfg: ScenarioConfig, out_dir: str) -> dict:
    if cfg.run.n_modes // 2 < _F_KAPPA_FIT_BAND[1]:
        raise ConfigError(
            f"[run] n_modes: f_kappa_build fits wavenumbers {_F_KAPPA_FIT_BAND}, "
            f"which needs n_modes >= {2 * _F_KAPPA_FIT_BAND[1]}, got {cfg.run.n_modes}"
        )
    grid = SpectralGrid(cfg.run.n_modes)
    kappa = cfg.perturbation_kappa
    coeffs = f_kappa(kappa, grid)
    k = np.arange(1, grid.n_modes // 4 + 1)
    cosine = 2.0 * coeffs[k].real
    closed = -2.0 * np.exp(-kappa * k) / k.astype(float) ** 5
    deviation = np.abs(cosine - closed)
    rows = [(int(kk), float(cosine[i]), float(closed[i]), float(deviation[i]))
            for i, kk in enumerate(k)]
    _write_csv(os.path.join(out_dir, "coefficients.csv"),
               ("k", "cosine_coefficient", "closed_form", "abs_deviation"), rows)
    d4 = grid.from_spectral(grid.derivative(coeffs, 4)).real
    # at kappa = 0 the datum is -inf at the node x = 0: compare where it is finite
    with np.errstate(divide="ignore"):
        datum = log_datum(kappa, grid)
    finite = np.isfinite(datum)
    datum_err = float(np.abs(d4[finite] - datum[finite]).max())
    return {
        "kappa": kappa,
        "max_coefficient_deviation": float(deviation.max()),
        "fourth_derivative_vs_log_datum_max_error": datum_err,
        "analyticity_radius": grid.analyticity_radius(coeffs, _F_KAPPA_FIT_BAND),
    }


class Scenario(NamedTuple):
    """A scenario's function, and the fallbacks (section, key) -> value that
    the config loader takes for keys a file leaves unset, where they differ
    from the field defaults."""

    run: Callable[[ScenarioConfig, str], dict]
    fallbacks: Mapping[tuple[str, str], object]


#: the one table of scenarios, in the order the command line lists them
SCENARIOS = {
    "flat": Scenario(_scenario_flat, {("run", "dt"): 1e-2}),
    "linear_decay": Scenario(_scenario_linear_decay, {("run", "t_end"): 0.5}),
    "turnover": Scenario(_scenario_turnover, {
        ("run", "dt"): 5e-4,
        ("run", "t_end"): 0.04,
        ("run", "stop_on"): frozenset({"chord_arc_floor", "blowup_norm"}),
        ("family", "slope_amplitude"): 0.98,
    }),
    "perturbed_pair": Scenario(_scenario_perturbed_pair, {("run", "t_end"): 0.1}),
    "schedule_check": Scenario(_scenario_schedule_check, {}),
    "operator_suite": Scenario(_scenario_operator_suite, {}),
    "f_kappa_build": Scenario(_scenario_f_kappa_build, {}),
}


def run_scenario(cfg: ScenarioConfig, out_dir: str) -> int:
    """Execute ``cfg``'s scenario and write its ``report.json`` last; returns the exit status.

    The one exit rule: a numeric error, or a ``termination`` other than
    ``reached_t_end``, is exit 3; a scenario that does not step in time
    reports no termination and exits 0.  A ``ConfigError`` raised by the
    scenario is reported in the output directory and re-raised.
    """
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}") from exc
    try:
        report = SCENARIOS[cfg.scenario].run(cfg, out_dir)
    except ConfigError as exc:
        _write_report(out_dir, cfg, {"error": str(exc)})
        raise
    except (DegenerateGeometryError, DegenerateParametrizationError, BlowupError,
            UndefinedRadiusError) as exc:
        _write_report(out_dir, cfg, {"error": str(exc)})
        return EXIT_NUMERIC
    _write_report(out_dir, cfg, report)
    ended = report.get("termination", "reached_t_end")
    return EXIT_OK if ended == "reached_t_end" else EXIT_NUMERIC
