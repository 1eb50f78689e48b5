import tracemalloc

import numpy as np
import pytest

from muskat import (
    GraphFamilyParams,
    InterfaceState,
    RunConfig,
    SpectralGrid,
    f_kappa,
    galerkin_rhs,
    make_turnover_state,
    perturb,
    run,
    step,
    two_solution_monitor,
)
from muskat import integrator
from muskat.errors import ConfigError, DegenerateGeometryError


def decay_state(grid):
    """Modes 1-4 of z2 at the amplitudes of the decay benchmark, fixed phases."""
    x = grid.nodes
    z2 = (1e-2 * np.cos(x + 0.3) + 7.5e-3 * np.cos(2 * x + 1.1)
          + 5e-3 * np.cos(3 * x + 2.0) + 2e-3 * np.cos(4 * x + 4.0))
    return InterfaceState(np.zeros(grid.n_modes, dtype=complex), grid.to_spectral(z2))


def eps_mode_state(grid, k=1, eps=1e-6):
    c2 = np.zeros(grid.n_modes, dtype=complex)
    c2[k] = eps / 2.0
    c2[-k] = eps / 2.0
    return InterfaceState(np.zeros(grid.n_modes, dtype=complex), c2)


class TestGalerkinRhs:
    def test_flat_zero(self):
        grid = SpectralGrid(64)
        tendency = galerkin_rhs(InterfaceState.flat(grid), grid, 21)
        assert np.abs(tendency[0]).max() == 0.0
        assert np.abs(tendency[1]).max() == 0.0

    def test_band_limited_output(self):
        grid = SpectralGrid(128)
        x = grid.nodes
        state = InterfaceState(
            grid.to_spectral(-0.05 * np.sin(x)),
            grid.to_spectral(0.1 * np.sin(x) + 0.05 * np.sin(20 * x)),
        )
        cutoff = 16
        tendency = galerkin_rhs(state, grid, cutoff)
        outside = np.abs(grid.wavenumbers) > cutoff
        assert np.abs(tendency[0][outside]).max() == 0.0
        assert np.abs(tendency[1, outside]).max() == 0.0

    def test_matches_linearization_after_projection(self):
        grid = SpectralGrid(128)
        state = eps_mode_state(grid, k=2)
        tendency = galerkin_rhs(state, grid, 16)
        rate = -(tendency[1, 2] / state.p2[2]).real
        assert abs(rate - 4.0 * np.pi) < 1e-3 * 4.0 * np.pi


class TestStep:
    def test_flat_fixed_point(self):
        grid = SpectralGrid(64)
        state = InterfaceState.flat(grid)
        for _ in range(20):
            state = step(state, grid, 1e-2, 21)
        assert np.abs(state.p1).max() < 1e-14
        assert np.abs(state.p2).max() < 1e-14

    def test_eps_mode_decay_factor(self):
        grid = SpectralGrid(64)
        dt = 1e-3
        state = eps_mode_state(grid, k=1, eps=1e-6)
        before = state.p2[1]
        after = step(state, grid, dt, 21).p2[1]
        expected = before * np.exp(-2.0 * np.pi * dt)
        assert abs(after - expected) <= 1e-12 * abs(before) + 1e-18

    def test_forward_backward_reversibility(self):
        grid = SpectralGrid(128)
        x = grid.nodes
        state = InterfaceState(
            grid.to_spectral(-0.05 * np.sin(x)),
            grid.to_spectral(0.1 * np.sin(x)),
        )
        dt = 1e-3
        there = step(state, grid, dt, 42)
        back = step(there, grid, -dt, 42)
        assert np.abs(back.p1 - state.p1).max() <= 1e-9
        assert np.abs(back.p2 - state.p2).max() <= 1e-9

    def test_preserves_reality_and_band(self):
        grid = SpectralGrid(128)
        x = grid.nodes
        state = InterfaceState(
            grid.to_spectral(-0.05 * np.sin(x)),
            grid.to_spectral(0.1 * np.sin(x)),
        )
        cutoff = 20
        for _ in range(10):
            state = step(state, grid, 1e-3, cutoff)
        assert state.is_real(tol=1e-12)
        assert np.abs(state.p2[np.abs(grid.wavenumbers) > cutoff]).max() == 0.0


class TestStepPlan:
    def test_fixed_step_plan_is_yielded_lazily(self):
        config = RunConfig(n_modes=8, dt=1e-5, t_end=1.0)
        tracemalloc.start()
        try:
            count = sum(1 for _ in integrator._step_plan(config))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 100_000
        # a list of the plan would hold about 8 MiB
        assert peak < 64 * 2**10


class TestRunConfigValidation:
    def test_cutoff_above_third_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(n_modes=128, galerkin_cutoff=64, t_end=1.0)

    def test_equal_times_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(t_start=0.5, t_end=0.5)

    def test_direction_consistency(self):
        with pytest.raises(ValueError):
            RunConfig(direction="backward", t_start=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            RunConfig(direction="forward", t_start=1.0, t_end=0.0)

    def test_unknown_stop_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(stop_on=frozenset({"nonsense"}), t_end=1.0)


class TestRun:
    def test_flat_reaches_t_end(self):
        config = RunConfig(n_modes=64, dt=5e-2, t_end=1.0, record_every=5)
        grid = SpectralGrid(64)
        trajectory = run(InterfaceState.flat(grid), config)
        assert trajectory.termination == "reached_t_end"
        for diag in trajectory.diagnostics():
            assert diag.min_dz1 == pytest.approx(1.0)
            assert diag.h4_norm == pytest.approx(0.0, abs=1e-12)

    def test_linear_decay_rate_within_five_percent(self):
        grid = SpectralGrid(128)
        initial = InterfaceState(
            np.zeros(grid.n_modes, dtype=complex),
            grid.to_spectral(0.01 * np.cos(grid.nodes)),
        )
        config = RunConfig(n_modes=128, dt=1e-3, t_end=0.5, record_every=50)
        trajectory = run(initial, config)
        times = np.array(trajectory.times())
        amps = np.array(
            [np.abs(s.values(grid)[1].real).max() for _, s, _ in trajectory.records]
        )
        rate = -np.polyfit(times, np.log(amps), 1)[0]
        assert abs(rate - 2.0 * np.pi) <= 0.05 * 2.0 * np.pi

    def test_turnover_run_crosses_zero(self):
        config = RunConfig(
            n_modes=128, dt=5e-4, t_end=0.02, record_every=4,
            stop_on=frozenset({"blowup_norm"}),
        )
        grid = SpectralGrid(128)
        initial = make_turnover_state(GraphFamilyParams(slope_amplitude=0.98), grid)
        trajectory = run(initial, config)
        minima = [d.min_dz1 for d in trajectory.diagnostics()]
        assert minima[0] > 0.0
        assert min(minima) < 0.0
        assert all(d.chord_arc > 1e-4 for d in trajectory.diagnostics())

    def test_rt_sign_stop_fires_on_turnover(self):
        config = RunConfig(
            n_modes=128, dt=5e-4, t_end=0.05, record_every=100,
            stop_on=frozenset({"rt_sign"}),
        )
        grid = SpectralGrid(128)
        initial = make_turnover_state(GraphFamilyParams(slope_amplitude=0.98), grid)
        trajectory = run(initial, config)
        assert trajectory.termination == "rt_sign"
        assert trajectory.records[-1][0] < 0.05

    def test_rt_sign_precondition(self):
        config = RunConfig(
            n_modes=64, dt=1e-3, t_end=0.05, stop_on=frozenset({"rt_sign"}),
        )
        grid = SpectralGrid(64)
        overturned = InterfaceState(
            grid.to_spectral(1.2 * np.sin(grid.nodes)),
            grid.to_spectral(0.3 * np.sin(grid.nodes)),
        )
        with pytest.raises(ValueError):
            run(overturned, config)

    def test_backward_run_from_overturned_state_stays_finite(self):
        grid = SpectralGrid(128)
        x = grid.nodes
        frozen = InterfaceState(
            grid.to_spectral(-1.05 * np.sin(x) + 0.1 * np.sin(2 * x)),
            grid.to_spectral(0.8 * np.sin(x)),
        )
        config = RunConfig(
            n_modes=128, dt=1e-4, direction="backward", t_start=0.0, t_end=-0.01,
        )
        trajectory = run(frozen, config)
        assert trajectory.termination == "reached_t_end"
        final = trajectory.final_state()
        assert np.isfinite(final.p1).all() and np.isfinite(final.p2).all()

    def test_chord_arc_stop_is_normal_termination(self):
        grid = SpectralGrid(128)
        x = grid.nodes
        tight = InterfaceState(
            grid.to_spectral(-1.3 * np.sin(x) + 0.15 * np.sin(2 * x)),
            grid.to_spectral(-0.5 * np.sin(x) + np.sin(2 * x)),
        )
        config = RunConfig(
            n_modes=128, dt=5e-4, t_end=0.5, record_every=20,
            chord_arc_floor=5e-3, stop_on=frozenset({"chord_arc_floor"}),
        )
        trajectory = run(tight, config)
        assert trajectory.termination in ("chord_arc_floor", "reached_t_end")

    def test_chord_arc_stop_records_last_accepted_state(self):
        grid = SpectralGrid(128)
        x = grid.nodes
        tight = InterfaceState(
            grid.to_spectral(-1.3 * np.sin(x) + 0.15 * np.sin(2 * x)),
            grid.to_spectral(-0.5 * np.sin(x) + np.sin(2 * x)),
        )
        pinched = run(tight, RunConfig(n_modes=128, dt=5e-4, t_end=0.01)).final_state()
        pinched.time = 0.0
        config = RunConfig(
            n_modes=128, dt=5e-4, t_end=0.05, record_every=10,
            chord_arc_floor=1.9e-3, stop_on=frozenset({"chord_arc_floor"}),
        )
        trajectory = run(pinched, config)
        assert trajectory.termination == "chord_arc_floor"
        # three steps were accepted before the fourth hit the floor
        assert trajectory.times() == pytest.approx([0.0, 0.0015], abs=1e-15)
        i, j = trajectory.chord_arc_pair
        assert i != j and 0 <= min(i, j) and max(i, j) < grid.n_modes
        assert 0.0 <= trajectory.chord_arc_ratio < config.chord_arc_floor

    @pytest.mark.parametrize("adaptive, stepper", [(False, "step"), (True, "_adaptive_step")])
    def test_check_stops_runs_once_per_accepted_step(self, monkeypatch, adaptive, stepper):
        counts = {"checks": 0, "steps": 0}

        def counting(name, key):
            original = getattr(integrator, name)

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(integrator, name, wrapper)

        counting("_check_stops", "checks")
        counting(stepper, "steps")
        grid = SpectralGrid(64)
        initial = InterfaceState(
            np.zeros(grid.n_modes, dtype=complex),
            grid.to_spectral(0.01 * np.cos(grid.nodes)),
        )
        run(initial, RunConfig(n_modes=64, dt=1e-3, t_end=0.0105, adaptive=adaptive))
        assert counts["steps"] > 0
        assert counts["checks"] == counts["steps"]

    def test_blowup_norm_stop_fires(self):
        grid = SpectralGrid(64)
        initial = InterfaceState(
            np.zeros(64, dtype=complex),
            grid.to_spectral(0.02 * np.cos(grid.nodes)),
        )
        config = RunConfig(
            n_modes=64, dt=1e-3, t_end=0.1,
            stop_on=frozenset({"blowup_norm"}), blowup_norm=1e-9,
        )
        trajectory = run(initial, config)
        assert trajectory.termination == "blowup_norm"

    def test_adaptive_mode_tracks_fixed_step(self):
        grid = SpectralGrid(64)
        initial = InterfaceState(
            np.zeros(grid.n_modes, dtype=complex),
            grid.to_spectral(0.01 * np.cos(grid.nodes)),
        )
        fixed = run(initial, RunConfig(n_modes=64, dt=1e-3, t_end=0.05, record_every=1000))
        adaptive = run(
            initial,
            RunConfig(n_modes=64, dt=1e-3, t_end=0.05, adaptive=True, record_every=1000),
        )
        a = fixed.final_state()
        b = adaptive.final_state()
        assert abs(a.time - b.time) < 1e-12
        assert np.abs(a.p2 - b.p2).max() < 1e-8


def fixed_rk4(initial, grid, cutoff, dts, density=1.0):
    """Classical RK4 from the projected initial state; every state along the way."""
    state = InterfaceState(grid.project_modes(initial.p1, cutoff),
                           grid.project_modes(initial.p2, cutoff))
    states = [state]
    for dt in dts:
        state = step(state, grid, dt, cutoff, density_jump_over_2pi=density)
        states.append(state)
    return states


def max_gap(a, b):
    return max(np.abs(a.p1 - b.p1).max(), np.abs(a.p2 - b.p2).max())


class TestEmbeddedPair:
    def test_fsal_accounting_with_a_forced_rejection(self):
        grid = SpectralGrid(64)
        steep = InterfaceState(np.zeros(grid.n_modes, dtype=complex),
                               grid.to_spectral(0.3 * np.sin(grid.nodes)))
        # a first step of 0.05 is far outside the error budget on this slope
        config = RunConfig(n_modes=64, dt=0.05, t_end=0.1, adaptive=True, record_every=1)
        trajectory = run(steep, config)
        accepted = len(trajectory.records) - 1
        assert trajectory.termination == "reached_t_end"
        assert trajectory.rejected_steps >= 1
        assert trajectory.rhs_calls == 1 + 4 * (accepted + trajectory.rejected_steps)

    def test_fixed_runs_count_four_calls_per_step(self):
        grid = SpectralGrid(32)
        config = RunConfig(n_modes=32, dt=1e-3, t_end=0.0105, record_every=1)
        trajectory = run(decay_state(grid), config)
        assert len(trajectory.records) == 12
        assert trajectory.rhs_calls == 4 * 11
        assert trajectory.rejected_steps == 0

    @pytest.mark.parametrize("case", ["decay", "turnover"])
    def test_final_state_matches_fixed_rk4_at_an_eighth_of_dt(self, case):
        grid = SpectralGrid(128)
        if case == "decay":
            initial, dt, t_end = decay_state(grid), 8e-3, 0.5
        else:
            initial = make_turnover_state(GraphFamilyParams(slope_amplitude=0.98), grid)
            dt, t_end = 5e-4, 0.02
        config = RunConfig(n_modes=128, dt=dt, t_end=t_end, adaptive=True,
                           record_every=10**6)
        adaptive = run(initial, config).final_state()
        n_steps = round(8 * t_end / dt)
        reference = fixed_rk4(initial, grid, config.galerkin_cutoff, [dt / 8] * n_steps)[-1]
        assert adaptive.time == pytest.approx(t_end, abs=1e-15)
        assert max_gap(adaptive, reference) <= config.adaptive_tol * t_end

    def test_decay_state_reaches_half_in_few_rhs_calls(self):
        grid = SpectralGrid(128)
        config = RunConfig(n_modes=128, dt=1e-3, t_end=0.5, adaptive=True, record_every=1)
        trajectory = run(decay_state(grid), config)
        assert trajectory.termination == "reached_t_end"
        assert trajectory.rhs_calls <= 60

    @pytest.mark.parametrize("direction, density", [("backward", 1.0), ("forward", -0.5)])
    def test_no_growing_factor(self, direction, density):
        # e^{L dt} would grow here, so the pair must be classical RK4
        grid = SpectralGrid(64)
        t_end = -0.02 if direction == "backward" else 0.02
        config = RunConfig(n_modes=64, dt=1e-3, t_end=t_end, direction=direction,
                           adaptive=True, density_jump_over_2pi=density, record_every=1)
        trajectory = run(decay_state(grid), config)
        times = trajectory.times()
        assert len(times) > 2 and abs(times[-1] - t_end) < 1e-15
        states = fixed_rk4(decay_state(grid), grid, config.galerkin_cutoff,
                           np.diff(times), density)
        for (_, got, _), want in zip(trajectory.records, states):
            scale = max(np.abs(want.p1).max(), np.abs(want.p2).max())
            assert max_gap(got, want) <= 1e-14 * scale


class TestTwoSolutionMonitor:
    def test_identical_initials_stay_identical(self):
        grid = SpectralGrid(64)
        state = InterfaceState(
            np.zeros(grid.n_modes, dtype=complex),
            grid.to_spectral(0.05 * np.cos(grid.nodes)),
        )
        config = RunConfig(n_modes=64, dt=1e-3, t_end=0.02, record_every=5)
        monitor = two_solution_monitor(state, state.copy(), config)
        assert max(monitor.distances) == 0.0

    def test_perturbed_pair_band(self):
        grid = SpectralGrid(128)
        base = InterfaceState(
            np.zeros(grid.n_modes, dtype=complex),
            grid.to_spectral(0.05 * np.cos(grid.nodes)),
        )
        other = perturb(base, 1e-5, f_kappa(0.2, grid))
        config = RunConfig(n_modes=128, dt=1e-3, t_end=0.1, record_every=10)
        monitor = two_solution_monitor(base, other, config)
        ratios = np.array(monitor.distances) / monitor.distances[0]
        assert ratios.max() <= 10.0
        assert monitor.min_quotient <= 0.0  # contracting pair

    def test_linear_pair_rate(self):
        grid = SpectralGrid(128)
        a = InterfaceState(
            np.zeros(grid.n_modes, dtype=complex),
            grid.to_spectral(0.01 * np.cos(grid.nodes)),
        )
        b = a.copy()
        b.p2 = b.p2.copy()
        b.p2[2] += 1e-3
        b.p2[-2] += 1e-3
        config = RunConfig(n_modes=128, dt=1e-3, t_end=0.05, record_every=50)
        monitor = two_solution_monitor(a, b, config)
        rate = -np.log(monitor.distances[-1] / monitor.distances[0]) / (
            monitor.times[-1] - monitor.times[0]
        )
        assert abs(rate - 4.0 * np.pi) <= 0.05 * 4.0 * np.pi


    def test_blowup_norm_stop_fires(self):
        grid = SpectralGrid(64)
        state = InterfaceState(
            np.zeros(grid.n_modes, dtype=complex),
            grid.to_spectral(0.05 * np.cos(grid.nodes)),
        )
        config = RunConfig(
            n_modes=64, dt=1e-3, t_end=0.02, record_every=5,
            stop_on=frozenset({"blowup_norm"}), blowup_norm=1e-9,
        )
        monitor = two_solution_monitor(state, perturb(state, 1e-5, f_kappa(0.2, grid)), config)
        assert monitor.termination == "blowup_norm"
        assert monitor.times == [0.0, 1e-3]

    def test_adaptive_rejected(self):
        grid = SpectralGrid(64)
        state = InterfaceState.flat(grid)
        config = RunConfig(n_modes=64, dt=1e-3, t_end=0.02, adaptive=True)
        with pytest.raises(ConfigError, match="fixed steps"):
            two_solution_monitor(state, state.copy(), config)


class TestRtConventions:
    def test_generalized_requires_positive_rt_backward(self):
        from muskat import HeightSchedule

        schedule = HeightSchedule(A=10.0, tau=0.005, kappa=1e-6)
        config = RunConfig(
            n_modes=64, dt=1e-5, direction="backward",
            t_start=schedule.tau**2, t_end=-schedule.tau**2,
            stop_on=frozenset({"rt_sign"}), schedule=schedule,
            rt_convention="generalized",
        )
        grid = SpectralGrid(64)
        # flat data cannot satisfy RT > 0 near the strip's slow point
        with pytest.raises(ValueError):
            run(InterfaceState.flat(grid), config)

    def test_generalized_without_schedule_falls_back_to_sigma(self):
        config = RunConfig(
            n_modes=64, dt=1e-3, t_end=0.01, stop_on=frozenset({"rt_sign"}),
            rt_convention="generalized",
        )
        grid = SpectralGrid(64)
        initial = InterfaceState(
            np.zeros(64, dtype=complex),
            grid.to_spectral(0.02 * np.cos(grid.nodes)),
        )
        trajectory = run(initial, config)
        assert trajectory.termination == "reached_t_end"
