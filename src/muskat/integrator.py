"""Galerkin-truncated time integration of the interface evolution.

The truncated system projects the right-hand side onto modes |k| <= cutoff,
which turns the evolution into a finite ODE system.  Every run steps it in
one loop of Lawson's integrating-factor RK4 with an embedded third-order
estimate, and the last stage evaluated at the new state is the next step's
first (FSAL), so a run costs one rhs call to start and 4 per attempted
step.  Fixed-step runs take L = 0, which is classical RK4 bit for bit,
follow a step plan in either time direction and accept every step; the
estimate is reported, not acted on.  Adaptive runs integrate the linear
part L = -2 pi density |k|, the exact decay rate around the flat interface,
exactly when e^{L dt} decays (L = 0 otherwise, so no step multiplies by a
growing factor), and the standard step-size controller sets each next dt
from the ratio of the estimate to its budget.  Every stage is re-projected
(the quotient nonlinearity aliases badly) and the result is made
conjugate-symmetric, so band-limitation and conjugate symmetry are
preserved exactly along a run.

Runs carry the monitors the analysis is built on: the graph indicator
min z1', the chord-arc constant, Rayleigh-Taylor minima, H4 distance to a
reference state, and the analyticity-radius estimate.  Stop conditions are
normal outcomes recorded in the trajectory, not errors.

One driver, ``_advance``, steps a single state (``run``) and a perturbed
pair (``two_solution_monitor``) alike: it projects the initial states,
draws the start and every attempted step from ``_attempts``, refuses a
start that violates a requested rt_sign stop once its first stage has run,
counts the rhs calls (one per stage that ran), accepted steps and rejected
attempts, keeps the least chord-arc constant over every stage (each
stage's field notes it to the driver as the stage ends) and the largest
step error estimate, checks the stop conditions on every accepted state,
keeps the record cadence and writes the termination.  The callers only say
what a record is.  Each state is sampled once: records and the sigma
rt_sign checks, the start's refusal included, read the workspace of the
stage that evaluated the rhs at that state (k1 at the start, k5 after each
accepted step).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from . import core
from .contour_ops import LiftedContour
from .core import DEFAULT_CHORD_ARC_FLOOR, InterfaceState, KernelWorkspace, rhs
from .errors import BlowupError, ConfigError, DegenerateGeometryError, UndefinedRadiusError
from .grid import SpectralGrid, conjugate_symmetrize
from .schedules import HeightSchedule
from .stability import h4_distance, rt_generalized, rt_sigma

STOP_CONDITIONS = frozenset({"chord_arc_floor", "rt_sign", "blowup_norm"})

#: a chord-arc constant with its node pair, as a sweep finds it
_Minimum = tuple[float, tuple[int, int]]

#: the adaptive step controller (Hairer, Norsett & Wanner, Solving ODEs I,
#: II.4): safety factor s, the bounds of one step's factor on dt, and the
#: exponent alpha = 1/3 of an O(|dt|^4) estimate against a budget per unit step
STEP_SAFETY = 0.9
STEP_FAC_MIN = 0.2
STEP_FAC_MAX = 5.0
STEP_ORDER_EXPONENT = 1.0 / 3.0


@dataclass
class RunConfig:
    """Scenario description for a time integration.

    direction selects the sign of the time step; t_end must lie on that
    side of t_start.  n_modes is a power of two of at least 8.  Times and
    density_jump_over_2pi are finite; dt, adaptive_tol, chord_arc_floor and
    blowup_norm are positive and finite.
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
        for name in ("t_start", "t_end", "density_jump_over_2pi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("dt", "adaptive_tol", "chord_arc_floor", "blowup_norm"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.t_end == self.t_start:
            raise ValueError("t_end must differ from t_start")
        if self.direction == "forward" and self.t_end < self.t_start:
            raise ValueError("forward runs need t_end > t_start")
        if self.direction == "backward" and self.t_end > self.t_start:
            raise ValueError("backward runs need t_end < t_start")
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


@dataclass
class Trajectory:
    """The outcome of a run: its records, termination and step counts.

    ``run`` records (time, state, diagnostics) triples.  For a pair,
    ``two_solution_monitor`` keeps its own records, and the counts add up
    the stages and attempts of both states.  Only ``_advance`` writes the
    ending and the counts.
    """

    records: list[tuple[float, InterfaceState, DiagnosticsRecord]] = field(default_factory=list)
    termination: str = "unterminated"
    #: node pair and ratio of the chord-arc stop, None on other terminations,
    #: and the contour whose sweep met the floor: "interface" for an rhs
    #: stage's, "monitor" for the generalized Rayleigh-Taylor monitor's
    #: lifted contour in a stop check or in the start's rt_sign check
    chord_arc_pair: tuple[int, int] | None = None
    chord_arc_ratio: float | None = None
    chord_arc_contour: str | None = None
    #: rhs evaluations, one per stage that ran (the stage that fails the
    #: floor included; a stop check's monitor evaluates none), accepted
    #: steps (a pair's step counts once) and adaptive attempts rejected by
    #: the error control; a run that ends at t_end or at a stop check has
    #: rhs_calls = n_states (1 + 4 accepted_steps) + 4 rejected_steps
    rhs_calls: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0
    #: the largest error estimate of an accepted step relative to its step
    #: and start, err/(|dt| max|u_n|), over every state; None when no step
    #: was accepted
    max_step_error: float | None = None
    #: the least chord-arc constant that any stage's sweep met, rejected
    #: attempts and the stage of a chord-arc stop included, with its node
    #: pair; None when no stage ran
    min_stage_chord_arc: float | None = None
    min_stage_chord_arc_pair: tuple[int, int] | None = None

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
    workspace: KernelWorkspace | None = None,
) -> np.ndarray:
    """Projected right-hand side Pi_N (density_jump_over_2pi * rhs), shape (2, N).

    The physical prefactor (rho2 - rho1)/(2 pi) enters here, where time is
    integrated; :func:`muskat.core.rhs` carries the unit normalization, and
    takes ``workspace``, the state's order-2 sample, when the caller keeps it.
    """
    return grid.project_modes(density_jump_over_2pi * rhs(state, grid, floor, workspace), cutoff)


def step(
    state: InterfaceState,
    grid: SpectralGrid,
    dt: float,
    cutoff: int,
    floor: float = DEFAULT_CHORD_ARC_FLOOR,
    density_jump_over_2pi: float = 1.0,
) -> InterfaceState:
    """One classical RK4 step of the Galerkin ODE (dt may be negative).

    Stages are projected to the cutoff; the result is projected and made
    conjugate-symmetric, so real band-limited states stay exactly so.  A
    fixed-step run takes the same step, with L = 0, in its attempt loop.
    """
    f = _GalerkinField(grid, cutoff, floor, density_jump_over_2pi, lambda minimum: None)
    u_next, _ = _lawson_rk4(state.coeffs, f(state.coeffs), dt, f, 1.0, 1.0)
    return _finished(u_next, grid, cutoff, state.time + dt)


def _finished(u: np.ndarray, grid: SpectralGrid, cutoff: int, time: float) -> InterfaceState:
    """The projected, conjugate-symmetric state of coefficients u."""
    return InterfaceState(*conjugate_symmetrize(grid.project_modes(u, cutoff)), time)


class _GalerkinField:
    """galerkin_rhs on coefficients u, shape (2, N), noting what each stage swept.

    A call samples the state once, as the order-2 workspace its rhs sweeps
    (built through ``core`` so that a wrapper of core.build_workspace sees
    it), and keeps it as ``last``, the sample of the state the field was
    last evaluated at; earlier workspaces are let go.  As the stage ends,
    passing or not, it hands ``note`` the chord-arc constant and node pair
    its sweep kept (None if it raised before its sweep): a stage that fails
    the floor is noted like any other.
    """

    def __init__(self, grid: SpectralGrid, cutoff: int, floor: float, density: float,
                 note: Callable[[_Minimum | None], None]):
        self.grid, self.cutoff, self.floor, self.density = grid, cutoff, floor, density
        self.note = note
        self.last: KernelWorkspace | None = None

    def __call__(self, u: np.ndarray) -> np.ndarray:
        state = InterfaceState(*u)
        self.last = core.build_workspace(state, self.grid, None, 2)
        try:
            return galerkin_rhs(state, self.grid, self.cutoff, self.floor, self.density, self.last)
        finally:
            self.note(self.last.chord_arc)


@dataclass
class _Step:
    """One record of the attempt stream: the start, or an attempted step.

    state: the start, the accepted state, or the state a rejected attempt
        retries from.
    accepted: False only for a rejected attempt.
    sample: the state's flat workspace, from the stage that evaluated the
        rhs there (k1 at the start, k5 after an accepted step); None after
        a rejected attempt, and for a start whose first stage has not run.
    error: the attempt's error estimate relative to its step and start,
        err/(|dt| max|u_n|); None at the start.
    """

    state: InterfaceState
    accepted: bool = True
    sample: KernelWorkspace | None = None
    error: float | None = None


def _lawson_rk4(u, k1, h, nonlinear, e_half, e_full):
    """Lawson's integrating-factor RK4 step of u' = L u + N(u).

    u holds the coefficients, k1 = N(u), and e_half, e_full are
    e^{Lh/2}, e^{Lh}.  Returns the unprojected new state and the last
    stage k4.  With both factors 1.0 this is classical RK4 bit for bit:
    multiplying by 1.0 is exact.
    """
    k2 = nonlinear(e_half * (u + h / 2.0 * k1))
    k3 = nonlinear(e_half * u + h / 2.0 * k2)
    k4 = nonlinear(e_full * u + h * (e_half * k3))
    u_next = e_full * u + h / 6.0 * (e_full * k1 + 2.0 * e_half * k2 + 2.0 * e_half * k3 + k4)
    return u_next, k4


def _radius_estimate(state: InterfaceState, grid: SpectralGrid) -> float:
    estimates = []
    for coeffs in state.coeffs:
        try:
            estimates.append(grid.analyticity_radius(coeffs))
        except UndefinedRadiusError:
            # spectrally empty band: indistinguishable from entire
            estimates.append(math.inf)
    return min(estimates)


def _schedule_at(config: RunConfig, t: float, grid: SpectralGrid):
    """The schedule's contour and height rate h_t at time t, or None.

    None when the run is not a "generalized" one with a schedule (sigma
    runs ignore it), when t lies outside the schedule's [-tau^2, tau]
    domain, or when the height is not positive at t.
    """
    scheduled = None
    if config.rt_convention == "generalized" and config.schedule is not None:
        scheduled = config.schedule.at(grid.nodes, t)
    if scheduled is None or scheduled[0].min() <= 0.0:
        return None
    heights, rate = scheduled
    return LiftedContour.from_height(grid, heights), rate


def diagnostics_for(
    state: InterfaceState,
    grid: SpectralGrid,
    config: RunConfig,
    reference: InterfaceState,
    sample: KernelWorkspace | None = None,
) -> DiagnosticsRecord:
    """The monitors of a state; the H4 distance is measured from ``reference``.

    min z1', min sigma and the chord-arc constant come from one flat
    sample of the state: ``sample``, a workspace of order 1 or more whose
    chord-arc constant its sweep kept (a stage's, in a run), or else one
    order-1 sample and one sweep, built through ``core`` so that a wrapper
    of core.build_workspace sees them.  Both give the same bits.
    """
    contour, _ = _schedule_at(config, state.time, grid) or (None, None)
    ws = core.build_workspace(state, grid, None, 1) if sample is None else sample
    chord_arc, _ = core.chord_arc_of(ws, grid)
    return DiagnosticsRecord(
        time=state.time,
        min_dz1=float(ws.der[1, 0].min()),
        chord_arc=chord_arc,
        rt_min=float(rt_sigma(ws).min()),
        h4_norm=h4_distance(state, reference, grid, contour),
        analyticity_radius=_radius_estimate(state, grid),
    )


def _rt_sign_violated(step: _Step, grid: SpectralGrid, config: RunConfig) -> bool:
    """Sign bookkeeping of the rt_sign stop on a record's state.

    The monitor is the generalized Rayleigh-Taylor function on the
    schedule's contour under the "generalized" convention, while the
    schedule covers the state's time, and the flat sigma of the record's
    sample otherwise, which every checked state carries: the start's from
    its first stage, an accepted state's from its k5 stage.  Backward runs
    need it positive everywhere (on the shrinking strip, the direction the
    analysis solves) and forward runs negative (a graph).  A non-finite
    monitor has no sign and raises BlowupError.
    """
    state = step.state
    scheduled = _schedule_at(config, state.time, grid)
    if scheduled is None:
        monitor = rt_sigma(step.sample)
    else:
        monitor = rt_generalized(state, grid, *scheduled, floor=config.chord_arc_floor)
    if not np.isfinite(monitor).all():
        raise BlowupError(f"non-finite Rayleigh-Taylor monitor at t={state.time}")
    if config.direction == "backward":
        return bool(monitor.min() <= 0.0)
    return bool(monitor.max() >= 0.0)


def _check_stops(step: _Step, grid: SpectralGrid, config: RunConfig) -> str | None:
    coeff_norm = np.abs(step.state.coeffs).sum(axis=1).max()
    if not np.isfinite(coeff_norm):
        raise BlowupError(f"non-finite coefficients at t={step.state.time}")
    if "blowup_norm" in config.stop_on and coeff_norm > config.blowup_norm:
        return "blowup_norm"
    if "rt_sign" in config.stop_on and _rt_sign_violated(step, grid, config):
        return "rt_sign"
    return None


def run(initial: InterfaceState, config: RunConfig) -> Trajectory:
    """Integrate from t_start toward t_end, recording diagnostics.

    Termination reasons: "reached_t_end", or the name of the stop condition
    that fired.  Chord-arc failure terminates normally when
    "chord_arc_floor" is among the stop conditions and propagates as
    DegenerateGeometryError otherwise.  Non-finite coefficients always
    raise BlowupError.  The last accepted state is always recorded, and the
    H4 distance is measured from the first recorded state.
    """
    grid = SpectralGrid(config.n_modes)
    trajectory = Trajectory()

    def record(steps) -> None:
        (step,) = steps
        state = step.state
        reference = trajectory.records[0][1] if trajectory.records else state
        diagnostics = diagnostics_for(state, grid, config, reference, step.sample)
        trajectory.records.append((state.time, state, diagnostics))

    _advance((initial,), grid, config, record, trajectory)
    return trajectory


def _advance(initials, grid: SpectralGrid, config: RunConfig, record, outcome: Trajectory) -> None:
    """Step ``initials`` together from t_start with identical steps: the one run loop.

    Projects each initial state to the cutoff at t_start.  Calls ``record``
    with the tuple of step records (:class:`_Step`, one per state) at the
    start, at every record_every-th accepted step and always at the last
    accepted one; a record's :attr:`_Step.sample` is the sample of the
    stage that evaluated the rhs at its state, which the rt_sign checks
    read too.  Once the start's first stage has run, a start that violates
    a requested rt_sign stop raises ConfigError, whatever the other stop
    conditions say; the stop checks run on accepted states only.  Every
    accepted state has a sample, as its k5 stage sweeps it before its stop
    checks run, so a state that fails both a stop check and the floor ends
    the run as "chord_arc_floor", and the state a run ends on is checked
    against the floor too.  The start is ordered the same way: one whose
    first stage fails the floor ends the run before its refusal is
    checked.  The run ends at t_end ("reached_t_end"), when a state meets
    a stop condition, or on a DegenerateGeometryError, which ends it as
    "chord_arc_floor" if that stop is requested and propagates otherwise;
    a stage's sweep raises it on the interface, the generalized monitor of
    a stop check or of the start's refusal on its lifted contour, and the
    error's ``lifted`` names which.  The only writer of
    ``outcome``'s ending, counts, stage minimum and step error: ``note``
    counts one rhs call per stage as the fields note them, so rhs_calls is
    the number of stages that ran.  The stage minimum is a running
    one over the stages' chord-arc constants, in the order the fields note
    them (state by state within an attempt), and the first stage wins a
    tie.  max_step_error is a running maximum over every state of every
    accepted step.
    """
    last = tuple(_Step(s) for s in _projected(initials, grid, config))

    def note(minimum: _Minimum | None) -> None:
        outcome.rhs_calls += 1
        if minimum is not None and (outcome.min_stage_chord_arc is None
                                    or minimum[0] < outcome.min_stage_chord_arc):
            outcome.min_stage_chord_arc, outcome.min_stage_chord_arc_pair = minimum

    attempts = zip(*(_attempts(s.state, grid, config, note) for s in last))
    recorded, reason = False, None
    try:
        last = next(attempts)  # the start, after its first stage
        if "rt_sign" in config.stop_on and any(_rt_sign_violated(s, grid, config) for s in last):
            raise ConfigError("initial state violates the Rayleigh-Taylor sign "
                              "for this run direction")
        record(last)
        recorded = True
        for attempt in attempts:
            rejected = sum(not s.accepted for s in attempt)
            if rejected:
                outcome.rejected_steps += rejected
                continue
            last, recorded = attempt, False
            outcome.accepted_steps += 1
            worst = max(s.error for s in last)
            if outcome.max_step_error is None or worst > outcome.max_step_error:
                outcome.max_step_error = worst
            reason = next(filter(None, (_check_stops(s, grid, config) for s in last)), None)
            if reason is not None:
                break
            if outcome.accepted_steps % config.record_every == 0:
                record(last)
                recorded = True
    except DegenerateGeometryError as exc:
        if "chord_arc_floor" not in config.stop_on:
            raise
        reason = "chord_arc_floor"
        outcome.chord_arc_pair, outcome.chord_arc_ratio = exc.pair, exc.ratio
        outcome.chord_arc_contour = "monitor" if exc.lifted else "interface"
    if not recorded:
        record(last)
    outcome.termination = reason or "reached_t_end"


def _projected(initials, grid: SpectralGrid, config: RunConfig) -> tuple[InterfaceState, ...]:
    """The initial states projected to the cutoff at t_start: what ``_advance`` steps."""
    return tuple(InterfaceState(*grid.project_modes(s.coeffs, config.galerkin_cutoff),
                                config.t_start) for s in initials)


def _step_plan(config: RunConfig) -> Iterator[tuple[float, float]]:
    """(dt, time_after_step) pairs covering [t_start, t_end], yielded one at a time.

    Spans that are integer multiples of dt take only full-size steps, and
    times are assigned rather than accumulated, so splitting a fixed-step
    run at a snapshot reproduces the unbroken trajectory bit for bit (the
    system is autonomous; only the step sizes enter the update).
    """
    span = config.t_end - config.t_start
    dt = config.signed_dt
    n_full = int(abs(span) / config.dt + 1e-9)
    tail = span - n_full * dt
    for i in range(n_full):
        yield dt, config.t_start + (i + 1) * dt
    if abs(tail) > 1e-9 * config.dt:
        yield tail, config.t_end


def _attempts(state: InterfaceState, grid: SpectralGrid, config: RunConfig,
              note: Callable[[_Minimum | None], None]) -> Iterator[_Step]:
    """The start, then one record (:class:`_Step`) per attempted step from t_start up to t_end.

    Fixed and adaptive runs take one loop, and evaluate every stage through
    one :class:`_GalerkinField`, which hands each stage's chord-arc
    constant and node pair to ``note`` as the stage ends, rejected attempts
    and a stage that fails the floor included.  The first stage
    k1 = N(state) gives the start its sample.  Each attempt takes a step of
    the embedded integrating-factor RK4 pair: the embedded third-order
    solution swaps k4 for k5 = N(new state), so the error estimate is
    err = |dt|/6 max|k4 - k5|, which the record carries relative to the
    step and its start, err/(|dt| max|u_n|).  An accepted attempt's k5 is
    the next step's k1 (FSAL), so its record carries k5's sample, the new
    state's.

    Fixed runs take L = 0, which is classical RK4 bit for bit, take their
    (dt, time) pairs from the step plan, and accept every attempt.
    Adaptive runs accept an attempt when err is within the budget
    adaptive_tol |dt|, and after every attempt the standard controller
    sets the next dt to

        dt min(fac_max, max(fac_min, s (budget/err)^alpha)),

    s = 0.9, fac_min = 0.2, fac_max = 5 (an estimate of 0 takes fac_max).
    The estimate is O(|dt|^4) and the budget an error per unit step, so
    err/budget is O(|dt|^3) and alpha = 1/3.  A rejected attempt yields the
    state it retries from, at the controller's smaller dt, and the step
    after a rejection does not grow (fac_max = 1 there).  A non-finite
    estimate is rejected at fac_min, so the collapse guard ends the run.
    The last step is shortened to land on t_end.  Counts nothing:
    ``_advance`` does.
    """
    f = _GalerkinField(grid, config.galerkin_cutoff, config.chord_arc_floor,
                       config.density_jump_over_2pi, note)
    lin, nonlinear = 0.0, f
    if config.adaptive and f.density * config.signed_dt > 0:
        # e^{L dt} decays: integrate the flat-interface linear part exactly
        lin = -2.0 * math.pi * f.density * np.abs(grid.wavenumbers)

        def nonlinear(u):
            return f(u) - lin * u
    k1 = nonlinear(state.coeffs)
    yield _Step(state, sample=f.last)
    dt, fac_max = config.signed_dt, STEP_FAC_MAX

    def controlled() -> Iterator[tuple[float, float]]:
        # the controller's dt from the current state, shortened to land on t_end
        while (config.t_end - state.time) * np.sign(config.signed_dt) > 1e-15:
            remaining = config.t_end - state.time
            this_dt = dt if abs(remaining) >= abs(dt) else remaining
            yield this_dt, state.time + this_dt

    for this_dt, time in controlled() if config.adaptive else _step_plan(config):
        e_half, e_full = np.exp(lin * (this_dt / 2.0)), np.exp(lin * this_dt)
        u_next, k4 = _lawson_rk4(state.coeffs, k1, this_dt, nonlinear, e_half, e_full)
        candidate = _finished(u_next, grid, f.cutoff, time)
        k5 = nonlinear(candidate.coeffs)
        # a Python float, so the controller's dt and every time stay Python floats
        err = abs(this_dt) / 6.0 * float(np.abs(k4 - k5).max())
        # a step from the flat state stays flat: its estimate is 0 over max|u_n| = 0
        error = 0.0 if err == 0.0 else err / (abs(this_dt) * float(np.abs(state.coeffs).max()))
        budget = config.adaptive_tol * abs(this_dt)
        # fixed runs accept every step, and their plan never reads the controller's dt
        accepted = not config.adaptive or err <= budget
        # a rejection's factor is below s < 1 whatever fac_max is
        dt = this_dt * _step_factor(err, budget, fac_max)
        fac_max = STEP_FAC_MAX if accepted else 1.0
        if accepted:
            state, k1 = candidate, k5
        elif abs(dt) < 1e-12:
            raise BlowupError("adaptive step collapsed below 1e-12")
        # f.last is k5's sample, of the candidate
        yield _Step(state, accepted, f.last if accepted else None, error)


def _step_factor(err: float, budget: float, fac_max: float) -> float:
    """The standard controller's factor on dt: min(fac_max, max(fac_min, s (budget/err)^alpha)).

    An estimate of 0 takes fac_max, and a non-finite one fac_min, so an
    attempt that produced NaN shrinks its step until the collapse guard.
    """
    if not math.isfinite(err):
        return STEP_FAC_MIN
    if err == 0.0:
        return fac_max
    return min(fac_max, max(STEP_FAC_MIN, STEP_SAFETY * (budget / err) ** STEP_ORDER_EXPONENT))


@dataclass
class PairMonitor:
    """The pair's recorded times and H4 distances, and the driver's ``outcome``.

    ``outcome`` is the ``Trajectory`` that ``_advance`` wrote: its
    termination, chord-arc stop and the counts of both states, with no
    records of its own.  ``min_quotient`` is None after a single record,
    which leaves no interval to take a quotient over.
    """

    times: list[float]
    distances: list[float]
    min_quotient: float | None
    outcome: Trajectory


def _pair_distance(pair, grid: SpectralGrid, config: RunConfig) -> float:
    """The H4 distance of a pair at its time, on the schedule's contour then, or on the torus."""
    sa, sb = pair
    contour, _ = _schedule_at(config, sa.time, grid) or (None, None)
    return h4_distance(sa, sb, grid, contour)


def initial_pair_distance(a0: InterfaceState, b0: InterfaceState, config: RunConfig) -> float:
    """The H4 distance that :func:`two_solution_monitor` records first, measured without a step.

    The pair projected to the cutoff at t_start, on the schedule's contour
    at t_start, as the run driver hands it to its first record.
    """
    grid = SpectralGrid(config.n_modes)
    return _pair_distance(_projected((a0, b0), grid, config), grid, config)


def two_solution_monitor(
    a0: InterfaceState, b0: InterfaceState, config: RunConfig
) -> PairMonitor:
    """Co-evolve two states with identical steps, tracking their H4 distance.

    Both states go through run's loop, so they are projected, refused and
    stopped by the same rules, and either state's stop ends the pair.
    Reports the most negative one-sided difference quotient of the squared
    distance over the recorded times (the quantity the perturbation theory
    bounds from below), None from a single record.  Fixed steps only: two
    step controllers would pick different steps.
    """
    if config.adaptive:
        raise ConfigError("two_solution_monitor needs fixed steps (adaptive = false)")
    grid = SpectralGrid(config.n_modes)
    times: list[float] = []
    distances: list[float] = []

    def record(steps) -> None:
        pair = tuple(s.state for s in steps)
        times.append(pair[0].time)
        distances.append(_pair_distance(pair, grid, config))

    outcome = Trajectory()
    _advance((a0, b0), grid, config, record, outcome)
    quotients = ((d1**2 - d0**2) / (t1 - t0)
                 for t0, t1, d0, d1 in zip(times, times[1:], distances, distances[1:]))
    return PairMonitor(times, distances, min(quotients, default=None), outcome)
