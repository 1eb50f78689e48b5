"""Galerkin-truncated time integration of the interface evolution.

The truncated system projects the right-hand side onto modes |k| <= cutoff,
which turns the evolution into a finite ODE system; classical RK4 steps it
in either time direction.  Every stage is re-projected (the quotient
nonlinearity aliases badly) and the result is reality-symmetrized, so
band-limitation and conjugate symmetry are preserved exactly along a run.

Runs carry the monitors the analysis is built on: the graph indicator
min z1', the chord-arc constant, Rayleigh-Taylor minima, H4 distance to a
reference state, and the analyticity-radius estimate.  Stop conditions are
normal outcomes recorded in the trajectory, not errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .contour_ops import LiftedContour
from .core import (
    DEFAULT_CHORD_ARC_FLOOR,
    InterfaceState,
    Tendency,
    chord_arc_constant,
    rhs,
)
from .errors import BlowupError, ConfigError, DegenerateGeometryError, UndefinedRadiusError
from .grid import SpectralGrid
from .schedules import HeightSchedule, h_of, h_t_of, hbar_of, hbar_t_of
from .stability import h4_distance, rt_generalized, rt_unperturbed, turnover_indicator

STOP_CONDITIONS = frozenset({"chord_arc_floor", "rt_sign", "blowup_norm"})


@dataclass
class RunConfig:
    """Scenario description for a time integration.

    direction selects the sign of the time step; t_end must lie on that
    side of t_start.  n_modes is a power of two of at least 8.
    galerkin_cutoff defaults to n_modes // 3 and must lie in 1..n_modes // 3
    (dealiasing margin).  rt_convention: "sigma" monitors the
    flat Rayleigh-Taylor function (forward runs require it negative
    everywhere, backward runs positive); "generalized" monitors the
    contour variant driven by the schedule.
    """

    n_modes: int = 256
    galerkin_cutoff: int | None = None
    dt: float = 1e-3
    adaptive: bool = False
    adaptive_tol: float = 1e-8
    direction: str = "forward"
    t_start: float = 0.0
    t_end: float = 1.0
    stop_on: frozenset[str] = frozenset()
    chord_arc_floor: float = DEFAULT_CHORD_ARC_FLOOR
    blowup_norm: float = 1e3
    record_every: int = 10
    schedule: HeightSchedule | None = None
    rt_convention: str = "sigma"
    density_jump_over_2pi: float = 1.0

    def __post_init__(self):
        if self.n_modes < 8 or self.n_modes & (self.n_modes - 1):
            raise ValueError(f"n_modes must be a power of two >= 8, got {self.n_modes}")
        if self.galerkin_cutoff is None:
            self.galerkin_cutoff = self.n_modes // 3
        if self.galerkin_cutoff < 1:
            raise ValueError(f"galerkin_cutoff must be at least 1, got {self.galerkin_cutoff}")
        if self.galerkin_cutoff > self.n_modes // 3:
            raise ValueError(
                f"galerkin_cutoff {self.galerkin_cutoff} exceeds the dealiasing "
                f"margin n_modes/3 = {self.n_modes // 3}"
            )
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"direction must be forward or backward, got {self.direction!r}")
        if self.t_end == self.t_start:
            raise ValueError("t_end must differ from t_start")
        if self.direction == "forward" and self.t_end < self.t_start:
            raise ValueError("forward runs need t_end > t_start")
        if self.direction == "backward" and self.t_end > self.t_start:
            raise ValueError("backward runs need t_end < t_start")
        if not math.isfinite(self.dt) or self.dt <= 0:
            raise ValueError(
                f"dt must be positive and finite (direction carries the sign), got {self.dt}"
            )
        unknown = set(self.stop_on) - STOP_CONDITIONS
        if unknown:
            raise ValueError(f"unknown stop conditions: {sorted(unknown)}")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        if self.rt_convention not in ("sigma", "generalized"):
            raise ValueError(f"unknown rt_convention {self.rt_convention!r}")

    @property
    def signed_dt(self) -> float:
        return self.dt if self.direction == "forward" else -self.dt


@dataclass
class DiagnosticsRecord:
    time: float
    min_dz1: float
    chord_arc: float
    rt_min: float
    h4_norm: float
    analyticity_radius: float

    CSV_COLUMNS = ("time", "min_dz1", "chord_arc", "rt_min", "h4_norm", "analyticity_radius")

    def row(self) -> tuple[float, ...]:
        return (self.time, self.min_dz1, self.chord_arc, self.rt_min,
                self.h4_norm, self.analyticity_radius)


@dataclass
class Trajectory:
    records: list[tuple[float, InterfaceState, DiagnosticsRecord]] = field(default_factory=list)
    termination: str = "unterminated"
    #: node pair and ratio of the chord-arc stop, None on other terminations
    chord_arc_pair: tuple[int, int] | None = None
    chord_arc_ratio: float | None = None

    def times(self) -> list[float]:
        return [t for t, _, _ in self.records]

    def diagnostics(self) -> list[DiagnosticsRecord]:
        return [d for _, _, d in self.records]

    def final_state(self) -> InterfaceState:
        return self.records[-1][1]


def galerkin_rhs(
    state: InterfaceState,
    grid: SpectralGrid,
    cutoff: int,
    floor: float = DEFAULT_CHORD_ARC_FLOOR,
    density_jump_over_2pi: float = 1.0,
) -> Tendency:
    """Projected right-hand side: Pi_N applied to the full tendency."""
    tendency = rhs(state, grid, floor=floor, density_jump_over_2pi=density_jump_over_2pi)
    return Tendency(
        grid.project_modes(tendency.d1, cutoff),
        grid.project_modes(tendency.d2, cutoff),
    )


def step(
    state: InterfaceState,
    grid: SpectralGrid,
    dt: float,
    cutoff: int,
    floor: float = DEFAULT_CHORD_ARC_FLOOR,
    density_jump_over_2pi: float = 1.0,
) -> InterfaceState:
    """One classical RK4 step of the Galerkin ODE (dt may be negative).

    Stages are projected to the cutoff; the result is projected and
    reality-symmetrized, so real band-limited states stay exactly so.
    """

    def f(s: InterfaceState) -> Tendency:
        return galerkin_rhs(s, grid, cutoff, floor, density_jump_over_2pi)

    def advance(s: InterfaceState, h: float, tend: Tendency) -> InterfaceState:
        return InterfaceState(s.p1 + h * tend.d1, s.p2 + h * tend.d2, s.time + h)

    k1 = f(state)
    k2 = f(advance(state, dt / 2.0, k1))
    k3 = f(advance(state, dt / 2.0, k2))
    k4 = f(advance(state, dt, k3))
    p1 = state.p1 + dt / 6.0 * (k1.d1 + 2.0 * k2.d1 + 2.0 * k3.d1 + k4.d1)
    p2 = state.p2 + dt / 6.0 * (k1.d2 + 2.0 * k2.d2 + 2.0 * k3.d2 + k4.d2)
    out = InterfaceState(grid.project_modes(p1, cutoff), grid.project_modes(p2, cutoff),
                         state.time + dt)
    return out.symmetrized()


def _radius_estimate(state: InterfaceState, grid: SpectralGrid) -> float:
    estimates = []
    for coeffs in (state.p1, state.p2):
        try:
            estimates.append(grid.analyticity_radius(coeffs))
        except UndefinedRadiusError:
            # spectrally empty band: indistinguishable from entire
            estimates.append(math.inf)
    return min(estimates)


def _schedule_at(config: RunConfig, t: float, grid: SpectralGrid):
    """The schedule's contour and height rate h_t at time t, or None.

    None when the run has no schedule, t lies outside the schedule's
    [-tau^2, tau] domain, or the height is not positive at t.
    """
    s = config.schedule
    if s is None:
        return None
    if s.tau**2 <= t <= s.tau:
        height, rate = h_of, h_t_of
    elif -s.tau**2 <= t <= s.tau**2:
        height, rate = hbar_of, hbar_t_of
    else:
        return None
    heights = height(grid.nodes, t, s)
    if heights.min() <= 0.0:
        return None
    return LiftedContour.from_height(grid, heights), rate(grid.nodes, t, s)


def diagnostics_for(
    state: InterfaceState,
    grid: SpectralGrid,
    config: RunConfig,
    reference: InterfaceState,
) -> DiagnosticsRecord:
    contour, _ = _schedule_at(config, state.time, grid) or (None, None)
    return DiagnosticsRecord(
        time=state.time,
        min_dz1=turnover_indicator(state, grid),
        chord_arc=chord_arc_constant(state, grid),
        rt_min=float(rt_unperturbed(state, grid).min()),
        h4_norm=h4_distance(state, reference, grid, contour),
        analyticity_radius=_radius_estimate(state, grid),
    )


def _rt_sign_violated(state: InterfaceState, grid: SpectralGrid, config: RunConfig) -> bool:
    """Sign bookkeeping of the rt_sign stop.

    Under the "sigma" convention forward runs need the flat Rayleigh-Taylor
    function negative everywhere (a graph) and backward runs the reverse.
    Under "generalized" the contour monitor must stay positive for backward
    runs on the shrinking strip (the direction the analysis solves) and
    negative for forward ones; it falls back to "sigma" off the schedule's
    time domain.
    """
    if config.rt_convention == "generalized":
        scheduled = _schedule_at(config, state.time, grid)
        if scheduled is not None:
            contour, h_t = scheduled
            monitor = rt_generalized(state, grid, contour, h_t,
                                     floor=config.chord_arc_floor)
            if config.direction == "backward":
                return bool(monitor.min() <= 0.0)
            return bool(monitor.max() >= 0.0)
    sigma = rt_unperturbed(state, grid)
    if config.direction == "forward":
        return bool(sigma.max() >= 0.0)
    return bool(sigma.min() <= 0.0)


def _check_stops(state: InterfaceState, grid: SpectralGrid, config: RunConfig) -> str | None:
    coeff_norm = max(np.abs(state.p1).sum(), np.abs(state.p2).sum())
    if not np.isfinite(coeff_norm):
        raise BlowupError(f"non-finite coefficients at t={state.time}")
    if "blowup_norm" in config.stop_on and coeff_norm > config.blowup_norm:
        return "blowup_norm"
    if "rt_sign" in config.stop_on and _rt_sign_violated(state, grid, config):
        return "rt_sign"
    return None


def run(initial: InterfaceState, config: RunConfig) -> Trajectory:
    """Integrate from t_start toward t_end, recording diagnostics.

    Termination reasons: "reached_t_end", or the name of the stop condition
    that fired.  Chord-arc failure terminates normally when
    "chord_arc_floor" is among the stop conditions and propagates as
    DegenerateGeometryError otherwise.  Non-finite coefficients always
    raise BlowupError.  The last accepted state is always recorded.
    """
    grid = SpectralGrid(config.n_modes)
    state = _projected(initial, grid, config)
    if "rt_sign" in config.stop_on and _check_stops(state, grid, config) == "rt_sign":
        raise ConfigError(
            "initial state violates the Rayleigh-Taylor sign for this run direction"
        )
    reference = state.copy()
    trajectory = Trajectory()

    def record(s: InterfaceState) -> None:
        trajectory.records.append(
            (s.time, s.copy(), diagnostics_for(s, grid, config, reference))
        )

    trajectory.termination, degenerate = _advance(
        state, _accepted_states(state, grid, config), config,
        lambda s: _check_stops(s, grid, config), record,
    )
    if degenerate is not None:
        trajectory.chord_arc_pair = degenerate.pair
        trajectory.chord_arc_ratio = degenerate.ratio
    return trajectory


def _projected(initial: InterfaceState, grid: SpectralGrid, config: RunConfig) -> InterfaceState:
    cutoff = config.galerkin_cutoff
    return InterfaceState(grid.project_modes(initial.p1, cutoff),
                          grid.project_modes(initial.p2, cutoff), config.t_start)


def _advance(
    first, states, config: RunConfig, check, record
) -> tuple[str, DegenerateGeometryError | None]:
    """Record ``first``, then step through ``states``.

    Records every record_every-th state and always the last accepted one.
    A run ends at the end of ``states`` ("reached_t_end"), when ``check``
    names a stop condition, or on a DegenerateGeometryError, which ends it
    as "chord_arc_floor" if that stop is requested and propagates otherwise.
    Returns the termination and the DegenerateGeometryError that ended the
    run, if one did.
    """
    record(first)
    last, recorded, reason, degenerate = first, True, None, None
    try:
        for count, last in enumerate(states, start=1):
            recorded = False
            reason = check(last)
            if reason is not None:
                break
            if count % config.record_every == 0:
                record(last)
                recorded = True
    except DegenerateGeometryError as exc:
        if "chord_arc_floor" not in config.stop_on:
            raise
        reason, degenerate = "chord_arc_floor", exc
    if not recorded:
        record(last)
    return reason or "reached_t_end", degenerate


def _step_plan(config: RunConfig) -> list[tuple[float, float]]:
    """(dt, time_after_step) pairs covering [t_start, t_end].

    Spans that are integer multiples of dt take only full-size steps, and
    times are assigned rather than accumulated, so splitting a fixed-step
    run at a snapshot reproduces the unbroken trajectory bit for bit (the
    system is autonomous; only the step sizes enter the update).
    """
    span = config.t_end - config.t_start
    dt = config.signed_dt
    n_full = int(abs(span) / config.dt + 1e-9)
    tail = span - n_full * dt
    plan = [(dt, config.t_start + (i + 1) * dt) for i in range(n_full)]
    if abs(tail) > 1e-9 * config.dt:
        plan.append((tail, config.t_end))
    return plan


def _accepted_states(state: InterfaceState, grid: SpectralGrid, config: RunConfig):
    """Each accepted state from t_start up to t_end.

    Fixed runs follow the step plan; adaptive runs use step-doubling control
    and shorten the last step to land on t_end.
    """
    cutoff = config.galerkin_cutoff
    if not config.adaptive:
        for step_dt, target_time in _step_plan(config):
            state = step(state, grid, step_dt, cutoff, config.chord_arc_floor,
                         config.density_jump_over_2pi)
            state.time = target_time
            yield state
        return
    dt = config.signed_dt
    while (config.t_end - state.time) * np.sign(config.signed_dt) > 1e-15:
        remaining = config.t_end - state.time
        this_dt = dt if abs(remaining) >= abs(dt) else remaining
        state, dt = _adaptive_step(state, grid, this_dt, cutoff, config)
        yield state


def _adaptive_step(state, grid, dt, cutoff, config):
    """Step-doubling control: compare one dt step against two dt/2 steps."""
    floor = config.chord_arc_floor
    tol = config.adaptive_tol
    density = config.density_jump_over_2pi
    while True:
        full = step(state, grid, dt, cutoff, floor, density)
        half = step(step(state, grid, dt / 2.0, cutoff, floor, density),
                    grid, dt / 2.0, cutoff, floor, density)
        err = max(
            np.abs(full.p1 - half.p1).max(),
            np.abs(full.p2 - half.p2).max(),
        )
        budget = tol * abs(dt)
        if err <= budget:
            grow = 2.0 if err < budget / 32.0 else 1.0
            return half, dt * grow
        dt = dt / 2.0
        if abs(dt) < 1e-12:
            raise BlowupError("adaptive step collapsed below 1e-12")


@dataclass
class PairMonitor:
    times: list[float]
    distances: list[float]
    min_quotient: float
    termination: str


def two_solution_monitor(
    a0: InterfaceState, b0: InterfaceState, config: RunConfig
) -> PairMonitor:
    """Co-evolve two states with identical steps, tracking their H4 distance.

    Both states step on run's loop and stop for the same reasons.  Reports
    the most negative one-sided difference quotient of the squared distance
    over the recorded times (the quantity the perturbation theory bounds
    from below).  Fixed steps only: two step controllers would pick
    different steps.
    """
    if config.adaptive:
        raise ConfigError("two_solution_monitor needs fixed steps (adaptive = false)")
    grid = SpectralGrid(config.n_modes)
    a = _projected(a0, grid, config)
    b = _projected(b0, grid, config)
    times: list[float] = []
    distances: list[float] = []

    def record(pair) -> None:
        sa, sb = pair
        contour, _ = _schedule_at(config, sa.time, grid) or (None, None)
        times.append(sa.time)
        distances.append(h4_distance(sa, sb, grid, contour))

    termination, _ = _advance(
        (a, b),
        zip(_accepted_states(a, grid, config), _accepted_states(b, grid, config)),
        config,
        lambda pair: _check_stops(pair[0], grid, config) or _check_stops(pair[1], grid, config),
        record,
    )
    quotients = [
        (distances[i + 1] ** 2 - distances[i] ** 2) / (times[i + 1] - times[i])
        for i in range(len(times) - 1)
    ]
    return PairMonitor(
        times=times,
        distances=distances,
        min_quotient=min(quotients) if quotients else 0.0,
        termination=termination,
    )
