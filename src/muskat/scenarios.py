"""Named scenarios and their artifact files.

Every scenario writes into an output directory: a trajectory CSV with one
row per recorded step, initial/final snapshots, a plot-data JSON with curve
samples at selected times, and a report JSON with scenario-specific
summaries.  Writes are atomic (temp file + rename) and rows containing
non-finite values are refused, so a consumer never sees NaN output.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .config import ScenarioConfig
from .contour_ops import LiftedContour, garding_form, lambda_gamma, pv_cot_integral
from .core import InterfaceState
from .errors import (
    BlowupError,
    ConfigError,
    DegenerateGeometryError,
    DegenerateParametrizationError,
)
from .grid import SpectralGrid
from .initial_data import f_kappa, log_datum, make_turnover_state, perturb
from .integrator import RunConfig, Trajectory, run, two_solution_monitor
from .schedules import rt_coupled_margins, schedule_margins
from .snapshots import atomic_write_text, save_snapshot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

NUMERIC_STOPS = {"chord_arc_floor", "rt_sign", "blowup_norm"}


def _write_json(path: str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True))


def _write_csv(path: str, header: tuple[str, ...], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    for row in rows:
        if any(isinstance(v, float) and math.isnan(v) for v in row):
            raise BlowupError(f"refusing to write NaN row to {path}")
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _trajectory_rows(trajectory: Trajectory, extra: dict[str, list] | None = None):
    header = ("time", "min_dz1", "chord_arc", "rt_min", "h4_norm", "analyticity_radius")
    rows = [diag.row() for _, _, diag in trajectory.records]
    if extra:
        for name, column in extra.items():
            header = header + (name,)
            rows = [row + (column[i],) for i, row in enumerate(rows)]
    return header, rows


def _write_plot_data(path: str, trajectory: Trajectory, grid: SpectralGrid,
                     max_curves: int = 9) -> None:
    count = len(trajectory.records)
    picks = sorted(set(np.linspace(0, count - 1, min(max_curves, count)).astype(int)))
    curves = []
    for i in picks:
        t, state, _ = trajectory.records[i]
        z1, z2 = state.values(grid)
        curves.append({
            "time": t,
            "x": grid.nodes.tolist(),
            "z1": z1.real.tolist(),
            "z2": z2.real.tolist(),
        })
    _write_json(path, {"curves": curves, "termination": trajectory.termination})


def _emit_trajectory(out_dir: str, cfg: ScenarioConfig, trajectory: Trajectory,
                     grid: SpectralGrid, extra_columns: dict[str, list] | None = None,
                     report: dict | None = None) -> int:
    header, rows = _trajectory_rows(trajectory, extra_columns)
    _write_csv(os.path.join(out_dir, "trajectory.csv"), header, rows)
    digest = cfg.digest()
    first = trajectory.records[0]
    last = trajectory.records[-1]
    save_snapshot(first[1], os.path.join(out_dir, "snapshot_initial.json"), digest,
                  dict(zip(first[2].CSV_COLUMNS, first[2].row())))
    save_snapshot(last[1], os.path.join(out_dir, "snapshot_final.json"), digest,
                  dict(zip(last[2].CSV_COLUMNS, last[2].row())))
    _write_plot_data(os.path.join(out_dir, "plot_data.json"), trajectory, grid)
    payload = {"scenario": cfg.scenario, "termination": trajectory.termination,
               "config_digest": digest, "records": len(trajectory.records)}
    if report:
        payload.update(report)
    _write_json(os.path.join(out_dir, "report.json"), payload)
    return EXIT_OK if trajectory.termination == "reached_t_end" else EXIT_NUMERIC


def _scenario_flat(cfg: ScenarioConfig, out_dir: str) -> int:
    grid = SpectralGrid(cfg.run.n_modes)
    trajectory = run(InterfaceState.flat(grid), cfg.run)
    return _emit_trajectory(out_dir, cfg, trajectory, grid)


def _scenario_linear_decay(cfg: ScenarioConfig, out_dir: str) -> int:
    grid = SpectralGrid(cfg.run.n_modes)
    initial = InterfaceState(
        np.zeros(grid.n_modes, dtype=complex),
        grid.to_spectral(0.01 * np.cos(grid.nodes)),
    )
    trajectory = run(initial, cfg.run)
    times = np.array(trajectory.times())
    amplitudes = np.array(
        [np.abs(state.values(grid)[1].real).max() for _, state, _ in trajectory.records]
    )
    slope, _ = np.polyfit(times, np.log(amplitudes), 1)
    fitted_rate = float(-slope)
    extra = {"fitted_decay_rate": [fitted_rate] * len(trajectory.records)}
    report = {"fitted_decay_rate": fitted_rate, "expected_rate": 2.0 * math.pi,
              "relative_error": abs(fitted_rate - 2.0 * math.pi) / (2.0 * math.pi)}
    return _emit_trajectory(out_dir, cfg, trajectory, grid, extra, report)


def _scenario_turnover(cfg: ScenarioConfig, out_dir: str) -> int:
    grid = SpectralGrid(cfg.run.n_modes)
    initial = make_turnover_state(cfg.family, grid)
    trajectory = run(initial, cfg.run)
    minima = [diag.min_dz1 for diag in trajectory.diagnostics()]
    crossed = any(m < 0.0 for m in minima) and minima[0] > 0.0
    first_cross = next((t for t, m in zip(trajectory.times(), minima) if m < 0.0), None)
    report = {
        "turnover_detected": bool(crossed),
        "first_negative_time": first_cross,
        "min_over_run": min(minima),
        "family": {
            "slope_amplitude": cfg.family.slope_amplitude,
            "steepening_rate": cfg.family.steepening_rate,
            "mode_count": cfg.family.mode_count,
            "vertical_amplitudes": list(cfg.family.vertical_amplitudes),
        },
    }
    return _emit_trajectory(out_dir, cfg, trajectory, grid, report=report)


def _scenario_perturbed_pair(cfg: ScenarioConfig, out_dir: str) -> int:
    grid = SpectralGrid(cfg.run.n_modes)
    base = InterfaceState(
        np.zeros(grid.n_modes, dtype=complex),
        grid.to_spectral(0.05 * np.cos(grid.nodes)),
    )
    other = perturb(base, cfg.perturbation_lambda, f_kappa(cfg.perturbation_kappa, grid))
    monitor = two_solution_monitor(base, other, cfg.run)
    rows = list(zip(monitor.times, monitor.distances))
    _write_csv(os.path.join(out_dir, "pair_distances.csv"), ("time", "h4_distance"), rows)
    initial_distance = monitor.distances[0]
    report = {
        "scenario": cfg.scenario,
        "config_digest": cfg.digest(),
        "termination": monitor.termination,
        "initial_distance": initial_distance,
        "max_ratio": max(monitor.distances) / initial_distance,
        "final_ratio": monitor.distances[-1] / initial_distance,
        "min_quotient_of_squared_distance": monitor.min_quotient,
        "lambda": cfg.perturbation_lambda,
        "kappa": cfg.perturbation_kappa,
    }
    _write_json(os.path.join(out_dir, "report.json"), report)
    return EXIT_OK if monitor.termination == "reached_t_end" else EXIT_NUMERIC


def _scenario_schedule_check(cfg: ScenarioConfig, out_dir: str) -> int:
    grid = SpectralGrid(cfg.run.n_modes)
    margins = schedule_margins(cfg.schedule, grid, t_samples=64)
    coupled = rt_coupled_margins(cfg.schedule, grid, t_samples=64)
    report = {
        "scenario": cfg.scenario,
        "config_digest": cfg.digest(),
        "schedule": {"A": cfg.schedule.A, "tau": cfg.schedule.tau, "kappa": cfg.schedule.kappa},
        "margins": {
            "h_positive": margins.h_positive,
            "h_t_bound": margins.h_t_bound,
            "handover": margins.handover,
            "hbar_t_bound": margins.hbar_t_bound,
        },
        "rt_coupled_margins": {"h_domain": coupled[0], "hbar_domain": coupled[1]},
        "all_nonnegative": margins.all_nonnegative(),
    }
    _write_json(os.path.join(out_dir, "report.json"), report)
    return EXIT_OK


def _scenario_operator_suite(cfg: ScenarioConfig, out_dir: str) -> int:
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
    pair_diff = f[:, None] - f[None, :]
    half_sines = np.sin((x[:, None] - x[None, :]) / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.abs(pair_diff) ** 2 / half_sines**2
    idx = np.arange(grid.n_modes)
    integrand[idx, idx] = 4.0 * np.sin(x) ** 2
    rhs_side = integrand.sum() * grid.dx**2 / (8.0 * np.pi)
    quadratic_form_err = abs(lhs - rhs_side) / abs(lhs)

    report = {
        "scenario": cfg.scenario,
        "config_digest": cfg.digest(),
        "lambda_multiplier_max_error": multiplier_err,
        "lambda_equals_hilbert_derivative_max_error": composition_err,
        "pv_cot_max_abs": pv_errs,
        "constant_height_reduction_max_error": reduction_err,
        "garding_sample_value": garding_value,
        "quadratic_form_relative_error": quadratic_form_err,
    }
    _write_json(os.path.join(out_dir, "report.json"), report)
    return EXIT_OK


#: coefficient band of the f_kappa analyticity-radius fit
_F_KAPPA_FIT_BAND = (8, 40)


def _scenario_f_kappa_build(cfg: ScenarioConfig, out_dir: str) -> int:
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
    datum_err = float(np.abs(d4 - log_datum(kappa, grid)).max())
    report = {
        "scenario": cfg.scenario,
        "config_digest": cfg.digest(),
        "kappa": kappa,
        "max_coefficient_deviation": float(deviation.max()),
        "fourth_derivative_vs_log_datum_max_error": datum_err,
        "analyticity_radius": grid.analyticity_radius(coeffs, _F_KAPPA_FIT_BAND),
    }
    _write_json(os.path.join(out_dir, "report.json"), report)
    return EXIT_OK


_SCENARIO_TABLE = {
    "flat": _scenario_flat,
    "linear_decay": _scenario_linear_decay,
    "turnover": _scenario_turnover,
    "perturbed_pair": _scenario_perturbed_pair,
    "schedule_check": _scenario_schedule_check,
    "operator_suite": _scenario_operator_suite,
    "f_kappa_build": _scenario_f_kappa_build,
}


def run_scenario(name: str, cfg: ScenarioConfig, out_dir: str) -> int:
    """Execute a scenario, writing its artifacts; returns the exit status."""
    if name not in _SCENARIO_TABLE:
        raise ConfigError(f"unknown scenario {name!r}")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}") from exc
    try:
        return _SCENARIO_TABLE[name](cfg, out_dir)
    except (DegenerateGeometryError, DegenerateParametrizationError, BlowupError) as exc:
        _write_json(os.path.join(out_dir, "report.json"),
                    {"scenario": name, "error": str(exc), "config_digest": cfg.digest()})
        return EXIT_NUMERIC
