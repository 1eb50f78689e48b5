import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from muskat import (
    GraphFamilyParams,
    InterfaceState,
    RunConfig,
    SpectralGrid,
    chord_arc_constant,
    f_kappa,
    galerkin_rhs,
    make_turnover_state,
    perturb,
    rt_unperturbed,
    run,
    step,
    two_solution_monitor,
)
from muskat import core, integrator, stability
from muskat.config import load_config_text
from muskat.errors import BlowupError, ConfigError, DegenerateGeometryError

from conftest import nan_rt_generalized_after_start
from oracles import is_real, sampled, turnover_indicator


def decay_state(grid):
    """Modes 1-4 of z2 at the amplitudes of the decay benchmark, fixed phases."""
    x = grid.nodes
    z2 = (1e-2 * np.cos(x + 0.3) + 7.5e-3 * np.cos(2 * x + 1.1)
          + 5e-3 * np.cos(3 * x + 2.0) + 2e-3 * np.cos(4 * x + 4.0))
    return InterfaceState(np.zeros(grid.n_modes, dtype=complex), grid.to_spectral(z2))


def tight_state(grid):
    """An overturned curve with a tightening neck."""
    x = grid.nodes
    return InterfaceState(
        grid.to_spectral(-1.3 * np.sin(x) + 0.15 * np.sin(2 * x)),
        grid.to_spectral(-0.5 * np.sin(x) + np.sin(2 * x)),
    )


def pinched_state(grid):
    """A state 20 fixed steps into a tightening neck, set back to t = 0."""
    config = RunConfig(n_modes=grid.n_modes, dt=5e-4, t_end=0.01)
    pinched = run(tight_state(grid), config).final_state()
    pinched.time = 0.0
    return pinched


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
        assert is_real(state, tol=1e-12)
        assert np.abs(state.p2[np.abs(grid.wavenumbers) > cutoff]).max() == 0.0


    def test_fixed_run_states_equal_repeated_public_steps_bitwise(self):
        grid = SpectralGrid(64)
        config = RunConfig(n_modes=64, dt=1e-3, t_end=0.0105, record_every=1)
        initial = make_turnover_state(GraphFamilyParams(slope_amplitude=0.98), grid)
        trajectory = run(initial, config)
        plan = list(integrator._step_plan(config))
        assert len(trajectory.records) == len(plan) + 1 == 12
        states = fixed_rk4(initial, grid, config.galerkin_cutoff, [dt for dt, _ in plan])
        for (time, got, _), want in zip(trajectory.records, states):
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert time == pytest.approx(want.time, abs=1e-15)


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
            [np.abs(sampled(s, grid, 0)[1]).max() for _, s, _ in trajectory.records]
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

    def test_the_start_is_refused_whatever_its_other_stop_checks_say(self):
        # a backward graph violates rt_sign and is above blowup_norm at t = 0:
        # the start's refusal does not wait on the stop checks
        grid = SpectralGrid(32)
        config = RunConfig(n_modes=32, dt=1e-3, direction="backward", t_end=-0.01,
                           stop_on=frozenset({"rt_sign", "blowup_norm"}), blowup_norm=1e-6)
        with pytest.raises(ConfigError, match="Rayleigh-Taylor sign"):
            run(eps_mode_state(grid, eps=1e-2), config)

    def test_a_start_that_fails_the_floor_ends_before_its_refusal(self):
        # the same backward graph at N = 8 fails a floor of 0.5 at its first
        # stage, which runs before the start's rt_sign check, as each later
        # state's k5 stage runs before its stop checks
        grid = SpectralGrid(8)
        config = RunConfig(n_modes=8, dt=1e-3, direction="backward", t_end=-0.01,
                           stop_on=frozenset({"rt_sign", "chord_arc_floor"}),
                           chord_arc_floor=0.5)
        trajectory = run(eps_mode_state(grid, eps=1e-2), config)
        assert (trajectory.termination, trajectory.chord_arc_contour) == (
            "chord_arc_floor", "interface")
        assert (trajectory.rhs_calls, len(trajectory.records)) == (1, 1)

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
        pinched = pinched_state(grid)
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
        # without the stop requested, the same floor violation propagates
        with pytest.raises(DegenerateGeometryError) as raised:
            run(pinched, dataclasses.replace(config, stop_on=frozenset()))
        assert raised.value.pair == trajectory.chord_arc_pair
        assert raised.value.ratio == trajectory.chord_arc_ratio

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_check_stops_runs_once_per_accepted_step(self, monkeypatch, adaptive):
        counts = {"checks": 0, "steps": 0}
        check_stops, attempts = integrator._check_stops, integrator._attempts

        def checking(*args, **kwargs):
            counts["checks"] += 1
            return check_stops(*args, **kwargs)

        def attempting(*args, **kwargs):
            records = attempts(*args, **kwargs)
            yield next(records)  # the start, not an attempt
            for attempt in records:
                counts["steps"] += attempt.accepted
                yield attempt

        monkeypatch.setattr(integrator, "_check_stops", checking)
        monkeypatch.setattr(integrator, "_attempts", attempting)
        grid = SpectralGrid(64)
        initial = InterfaceState(
            np.zeros(grid.n_modes, dtype=complex),
            grid.to_spectral(0.01 * np.cos(grid.nodes)),
        )
        run(initial, RunConfig(n_modes=64, dt=1e-3, t_end=0.0105, adaptive=adaptive))
        assert counts["steps"] > 0
        assert counts["checks"] == counts["steps"]

    def test_diagnostics_sample_a_record_once(self, monkeypatch):
        # min z1', sigma and the chord-arc constant from one workspace and one sweep
        grid = SpectralGrid(64)
        state = make_turnover_state(GraphFamilyParams(), grid)
        expected = (turnover_indicator(state, grid), chord_arc_constant(state, grid),
                    float(rt_unperturbed(state, grid).min()))
        calls = {"build_workspace": 0, "pair_sweep": 0, "from_spectral": 0}

        def counted(owner, name):
            inner = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in ("build_workspace", "pair_sweep"):
            wrapper = counted(core, name)
            for module in (core, integrator, stability):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        monkeypatch.setattr(SpectralGrid, "from_spectral", counted(SpectralGrid, "from_spectral"))
        record = integrator.diagnostics_for(state, grid, RunConfig(n_modes=64), state)
        # one transform samples the state, the other the H4 distance's difference
        assert calls == {"build_workspace": 1, "pair_sweep": 1, "from_spectral": 2}
        assert (record.min_dz1, record.chord_arc, record.rt_min) == expected

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


def record_attempt_steps(monkeypatch):
    """The dt of every attempted integrating-factor step, appended as it is taken."""
    steps = []
    real = integrator._lawson_rk4

    def recording(u, k1, h, *rest):
        steps.append(h)
        return real(u, k1, h, *rest)

    monkeypatch.setattr(integrator, "_lawson_rk4", recording)
    return steps


def max_gap(a, b):
    return max(np.abs(a.p1 - b.p1).max(), np.abs(a.p2 - b.p2).max())


def counting_builds(monkeypatch) -> list[int]:
    """The max_order of every core.build_workspace call, appended as it is made."""
    orders = []
    build = core.build_workspace

    def building(*args, **kwargs):
        orders.append(args[3] if len(args) > 3 else kwargs.get("max_order", 2))
        return build(*args, **kwargs)

    monkeypatch.setattr(core, "build_workspace", building)
    return orders


def counting_sweeps(monkeypatch) -> list[tuple[float, tuple[int, int]]]:
    """The chord-arc constant and node pair of every core.pair_sweep that returns, in order."""
    minima = []
    sweep = core.pair_sweep

    def sweeping(*args, **kwargs):
        result = sweep(*args, **kwargs)
        minima.append(result[1])
        return result

    monkeypatch.setattr(core, "pair_sweep", sweeping)
    return minima


def least(minima):
    """The least chord-arc constant with its node pair, the first on a tie."""
    return min(minima, key=lambda minimum: minimum[0])


class TestStageSamples:
    def test_adaptive_records_read_their_stage_samples_bitwise(self, monkeypatch):
        grid = SpectralGrid(128)
        config = RunConfig(n_modes=128, dt=1e-3, t_end=0.5, adaptive=True, record_every=1)
        orders = counting_builds(monkeypatch)
        minima = counting_sweeps(monkeypatch)
        trajectory = run(decay_state(grid), config)
        monkeypatch.undo()
        # one sample and one sweep per rhs call, and none for the records
        assert len(orders) == len(minima) == trajectory.rhs_calls
        assert set(orders) == {2}
        reference = trajectory.records[0][1]
        for _, state, record in trajectory.records:
            fresh = integrator.diagnostics_for(state, grid, config, reference)
            assert (np.array(dataclasses.astuple(record)).tobytes()
                    == np.array(dataclasses.astuple(fresh)).tobytes())
        assert (trajectory.min_stage_chord_arc,
                trajectory.min_stage_chord_arc_pair) == least(minima)
        assert all(trajectory.min_stage_chord_arc <= d.chord_arc for d in trajectory.diagnostics())

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_rt_sign_checks_and_records_share_one_sample_per_state(self, monkeypatch, adaptive):
        grid = SpectralGrid(64)
        initial = InterfaceState(np.zeros(grid.n_modes, dtype=complex),
                                 grid.to_spectral(0.01 * np.cos(grid.nodes)))
        config = RunConfig(n_modes=64, dt=1e-3, t_end=0.01, adaptive=adaptive, record_every=1,
                           stop_on=frozenset({"rt_sign"}))
        orders = counting_builds(monkeypatch)
        trajectory = run(initial, config)
        assert trajectory.termination == "reached_t_end"
        assert orders.count(2) == trajectory.rhs_calls
        # every state's rt_sign check and record read its stage's sample,
        # the start's refusal k1's and each step's k5, fixed or adaptive
        assert orders.count(1) == 0
        if not adaptive:
            assert len(trajectory.records) == 11

    def test_fixed_steps_keep_the_least_chord_arc_of_every_stage(self, monkeypatch):
        grid = SpectralGrid(64)
        config = RunConfig(n_modes=64, dt=1e-3, t_end=0.01, record_every=5)
        minima = []
        real = integrator.rhs

        def sweeping(state, grid, floor, workspace):
            tendency = real(state, grid, floor, workspace)
            minima.append(workspace.chord_arc)
            return tendency

        monkeypatch.setattr(integrator, "rhs", sweeping)
        trajectory = run(make_turnover_state(GraphFamilyParams(slope_amplitude=0.98), grid),
                         config)
        # k1 of the start, then four stages per step, the last k5 included
        assert len(minima) == trajectory.rhs_calls == 41
        assert (trajectory.min_stage_chord_arc,
                trajectory.min_stage_chord_arc_pair) == least(minima)
        assert all(trajectory.min_stage_chord_arc <= d.chord_arc for d in trajectory.diagnostics())

    def test_a_fixed_run_evaluates_the_rhs_at_its_final_state(self, monkeypatch):
        # the last step's k5 is a stage at the final state, so its record
        # reads that stage's sample like every other state's
        grid = SpectralGrid(32)
        config = RunConfig(n_modes=32, dt=1e-3, t_end=0.005, record_every=10)
        inputs = []
        real = integrator.rhs

        def evaluating(state, grid, floor, workspace):
            inputs.append(state.coeffs.copy())
            return real(state, grid, floor, workspace)

        monkeypatch.setattr(integrator, "rhs", evaluating)
        trajectory = run(decay_state(grid), config)
        assert trajectory.times() == [0.0, 0.005]
        final = trajectory.final_state().coeffs
        assert any(np.array_equal(final, u) for u in inputs)

    @pytest.mark.parametrize("case", ["steep", "tight"])
    def test_rejected_attempts_keep_their_stages(self, monkeypatch, case):
        if case == "steep":
            # the state and dt of the forced-rejection accounting test
            grid = SpectralGrid(64)
            initial = InterfaceState(np.zeros(grid.n_modes, dtype=complex),
                                     grid.to_spectral(0.3 * np.sin(grid.nodes)))
            config = RunConfig(n_modes=64, dt=0.05, t_end=0.1, adaptive=True, record_every=1)
        else:
            # a rejected attempt's stage comes closer to contact than any accepted state
            grid = SpectralGrid(32)
            initial = tight_state(grid)
            config = RunConfig(n_modes=32, dt=0.05, t_end=0.05, adaptive=True,
                               adaptive_tol=1e-2, record_every=1)
        minima = counting_sweeps(monkeypatch)
        trajectory = run(initial, config)
        assert trajectory.rejected_steps >= 1
        # every sweep is a stage's, rejected attempts included
        assert len(minima) == trajectory.rhs_calls
        assert (trajectory.min_stage_chord_arc,
                trajectory.min_stage_chord_arc_pair) == least(minima)
        if case == "tight":
            assert trajectory.min_stage_chord_arc < min(
                d.chord_arc for d in trajectory.diagnostics())

    def test_a_pair_keeps_the_least_stage_of_both_states(self, monkeypatch):
        grid = SpectralGrid(64)
        base = make_turnover_state(GraphFamilyParams(slope_amplitude=0.98), grid)
        config = RunConfig(n_modes=64, dt=1e-3, t_end=0.01, record_every=5)
        minima = counting_sweeps(monkeypatch)
        outcome = two_solution_monitor(base, perturb(base, 1e-2, f_kappa(0.2, grid)),
                                       config).outcome
        # both states' stages, in the order they were evaluated
        assert len(minima) == outcome.rhs_calls == 2 * 41
        assert (outcome.min_stage_chord_arc, outcome.min_stage_chord_arc_pair) == least(minima)

    def test_a_chord_arc_stop_keeps_the_failing_stage(self):
        grid = SpectralGrid(8)
        initial = InterfaceState(np.zeros(grid.n_modes, dtype=complex),
                                 grid.to_spectral(0.01 * np.cos(grid.nodes)))
        config = RunConfig(n_modes=8, dt=1e-3, t_end=0.01, adaptive=True,
                           chord_arc_floor=0.5, stop_on=frozenset({"chord_arc_floor"}))
        trajectory = run(initial, config)
        assert trajectory.termination == "chord_arc_floor"
        assert trajectory.min_stage_chord_arc == trajectory.chord_arc_ratio
        assert trajectory.min_stage_chord_arc_pair == trajectory.chord_arc_pair


class TestEmbeddedPair:
    # every run that ends at t_end or at a stop check:
    # rhs_calls = n_states (1 + 4 accepted_steps) + 4 rejected_steps
    def test_fsal_accounting_with_a_forced_rejection(self):
        grid = SpectralGrid(64)
        steep = InterfaceState(np.zeros(grid.n_modes, dtype=complex),
                               grid.to_spectral(0.3 * np.sin(grid.nodes)))
        # a first step of 0.05 is far outside the error budget on this slope
        config = RunConfig(n_modes=64, dt=0.05, t_end=0.1, adaptive=True, record_every=1)
        trajectory = run(steep, config)
        assert trajectory.termination == "reached_t_end"
        assert trajectory.rejected_steps >= 1
        assert trajectory.accepted_steps == len(trajectory.records) - 1
        assert trajectory.rhs_calls == 1 + 4 * (trajectory.accepted_steps
                                                + trajectory.rejected_steps)

    def test_fixed_runs_count_four_calls_per_step(self):
        # and one more for the k1 of the initial state
        grid = SpectralGrid(32)
        config = RunConfig(n_modes=32, dt=1e-3, t_end=0.0105, record_every=1)
        trajectory = run(decay_state(grid), config)
        assert trajectory.termination == "reached_t_end"
        assert len(trajectory.records) == 12
        assert trajectory.accepted_steps == 11
        assert trajectory.rhs_calls == 1 + 4 * 11
        assert trajectory.rejected_steps == 0

    @pytest.mark.parametrize("case", ["pair", "rt_sign_stop", "monitor_floor"])
    def test_rhs_calls_are_one_start_and_four_per_attempt_per_state(self, case):
        # the same identity for a pair and for runs that end at a stop check
        n_states, termination = 1, "reached_t_end"
        if case == "pair":
            grid = SpectralGrid(32)
            base = make_turnover_state(GraphFamilyParams(slope_amplitude=0.98), grid)
            config = RunConfig(n_modes=32, dt=1e-3, t_end=0.005, record_every=2)
            outcome = two_solution_monitor(base, perturb(base, 1e-2, f_kappa(0.2, grid)),
                                           config).outcome
            n_states = 2
            assert outcome.accepted_steps == 5
        else:
            # the mid-run rt_sign graph: its generalized monitor turns at the
            # 20th step, and with a floor of 0.02 its lifted contour meets
            # the floor there first
            floor = "chord_arc_floor = 0.02\n" if case == "monitor_floor" else ""
            cfg = load_config_text(
                "[run]\nscenario = turnover\nn_modes = 32\ndt = 1e-5\nt_end = 0.004\n"
                "rt_convention = generalized\nstop_on = rt_sign, chord_arc_floor\n"
                f"{floor}[schedule]\na = 2.0\ntau = 0.0138\n[family]\n"
                "slope_amplitude = 0.06\nsteepening_rate = 0.43\n"
                "vertical_amplitudes = 0.29, 0.22\n")
            outcome = run(make_turnover_state(cfg.family, SpectralGrid(32)), cfg.run)
            termination = "chord_arc_floor" if floor else "rt_sign"
            assert outcome.accepted_steps == 20
        assert outcome.termination == termination
        assert outcome.rhs_calls == (n_states * (1 + 4 * outcome.accepted_steps)
                                     + 4 * outcome.rejected_steps)

    def test_max_step_error_is_the_largest_relative_estimate_of_a_fixed_run(self):
        # err/(|dt| max|u_n|) with err = |dt|/6 max|k4 - k5| and k5 = N(u_{n+1}),
        # from classical RK4 stages formed here
        grid = SpectralGrid(32)
        dt = 2e-3
        config = RunConfig(n_modes=32, dt=dt, t_end=0.01)
        trajectory = run(decay_state(grid), config)
        states = fixed_rk4(decay_state(grid), grid, config.galerkin_cutoff, [dt] * 5)

        def f(u):
            return galerkin_rhs(InterfaceState(*u), grid, config.galerkin_cutoff)

        errors = []
        for start, end in zip(states, states[1:]):
            u = start.coeffs
            k1 = f(u)
            k3 = f(u + dt / 2 * f(u + dt / 2 * k1))
            k4 = f(u + dt * k3)
            errors.append(np.abs(k4 - f(end.coeffs)).max() / (6 * np.abs(u).max()))
        assert trajectory.accepted_steps == 5
        assert trajectory.max_step_error == pytest.approx(max(errors), rel=1e-12)
        assert max(errors) > min(errors) > 0.0

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_a_floor_stop_at_the_first_stage_counts_one_call(self, adaptive):
        # the initial state lies below the floor, so the first stage fails:
        # a fixed run's k1 of its first attempt, an adaptive run's first stage
        grid = SpectralGrid(8)
        initial = InterfaceState(np.zeros(grid.n_modes, dtype=complex),
                                 grid.to_spectral(0.01 * np.cos(grid.nodes)))
        config = RunConfig(n_modes=8, dt=1e-3, t_end=0.01, adaptive=adaptive,
                           chord_arc_floor=0.5, stop_on=frozenset({"chord_arc_floor"}))
        trajectory = run(initial, config)
        assert trajectory.termination == "chord_arc_floor"
        assert trajectory.times() == [0.0]
        assert (trajectory.rhs_calls, trajectory.rejected_steps) == (1, 0)

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

    def test_adaptive_times_are_python_floats(self):
        # the controller's dt stays a Python float, so no time is a numpy scalar
        grid = SpectralGrid(64)
        config = RunConfig(n_modes=64, dt=5e-4, t_end=0.01, adaptive=True, record_every=1)
        trajectory = run(make_turnover_state(GraphFamilyParams(slope_amplitude=0.98), grid),
                         config)
        assert len(trajectory.records) > 2
        assert all(type(t) is float for t in trajectory.times())

    def test_decay_state_reaches_half_in_few_rhs_calls(self):
        grid = SpectralGrid(128)
        config = RunConfig(n_modes=128, dt=1e-3, t_end=0.5, adaptive=True, record_every=1)
        trajectory = run(decay_state(grid), config)
        assert trajectory.termination == "reached_t_end"
        assert trajectory.rhs_calls <= 25
        assert trajectory.rhs_calls == 1 + 4 * (len(trajectory.records) - 1
                                                 + trajectory.rejected_steps)

    def test_an_adaptive_run_lands_exactly_on_t_end(self):
        # the linear_decay datum: state.time + remaining lands one ulp past 7.7
        grid = SpectralGrid(32)
        initial = InterfaceState(np.zeros(grid.n_modes, dtype=complex),
                                 grid.to_spectral(0.01 * np.cos(grid.nodes)))
        config = RunConfig(n_modes=32, dt=1e-2, adaptive=True, adaptive_tol=1e-6, t_end=7.7)
        trajectory = run(initial, config)
        assert trajectory.termination == "reached_t_end"
        assert trajectory.times()[-1] == trajectory.final_state().time == 7.7
        assert trajectory.rhs_calls == 1 + 4 * (trajectory.accepted_steps
                                                + trajectory.rejected_steps) == 21

    def test_no_accepted_step_grows_dt_beyond_fac_max(self):
        grid = SpectralGrid(128)
        config = RunConfig(n_modes=128, dt=1e-3, t_end=0.5, adaptive=True, record_every=1)
        steps = np.diff(run(decay_state(grid), config).times())
        growth = steps[1:] / steps[:-1]
        assert steps[0] == config.dt
        assert growth.max() <= integrator.STEP_FAC_MAX * (1 + 1e-12)
        # far inside its budget the controller takes the largest factor
        assert growth.max() == pytest.approx(integrator.STEP_FAC_MAX, rel=1e-12)

    def test_a_rejection_shrinks_dt_by_at_most_fac_min_and_the_next_step_does_not_grow(
            self, monkeypatch):
        steps = record_attempt_steps(monkeypatch)
        grid = SpectralGrid(64)
        steep = InterfaceState(np.zeros(grid.n_modes, dtype=complex),
                               grid.to_spectral(0.3 * np.sin(grid.nodes)))
        config = RunConfig(n_modes=64, dt=0.05, t_end=0.1, adaptive=True)
        (start,) = integrator._projected((steep,), grid, config)
        # the stream opens with the start, then one record per attempt
        attempts = integrator._attempts(start, grid, config, lambda minimum: None)
        accepted = [a.accepted for a in itertools.islice(attempts, 1, None)]
        assert len(steps) == len(accepted) and not all(accepted)
        for i in np.flatnonzero(~np.array(accepted)):
            assert integrator.STEP_FAC_MIN <= steps[i + 1] / steps[i] < 1.0
            if accepted[i + 1] and i + 2 < len(steps):
                assert steps[i + 2] <= steps[i + 1]

    def test_a_nan_error_estimate_is_rejected_until_the_step_collapses(self, monkeypatch):
        real = integrator._lawson_rk4

        def nan_k4(u, k1, h, *rest):
            u_next, k4 = real(u, k1, h, *rest)
            return u_next, np.full_like(k4, np.nan)

        monkeypatch.setattr(integrator, "_lawson_rk4", nan_k4)
        steps = record_attempt_steps(monkeypatch)
        grid = SpectralGrid(32)
        config = RunConfig(n_modes=32, dt=1e-3, t_end=0.01, adaptive=True)
        with pytest.raises(BlowupError, match="collapsed"):
            run(decay_state(grid), config)
        # every attempt is rejected at fac_min: 1e-3 * 0.2^13 < 1e-12
        assert np.array(steps[1:]) / np.array(steps[:-1]) == pytest.approx(
            integrator.STEP_FAC_MIN, rel=1e-12)
        assert len(steps) == 13

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
        assert monitor.outcome.termination == "blowup_norm"
        assert monitor.times == [0.0, 1e-3]

    def test_adaptive_rejected(self):
        grid = SpectralGrid(64)
        state = InterfaceState.flat(grid)
        config = RunConfig(n_modes=64, dt=1e-3, t_end=0.02, adaptive=True)
        with pytest.raises(ConfigError, match="fixed steps"):
            two_solution_monitor(state, state.copy(), config)

    def test_initial_rt_sign_violation_rejected(self):
        # the perturbed_pair scenario's pair at N = 32 already fails the
        # generalized monitor on the default schedule's contour at t = 0
        from muskat import HeightSchedule

        grid = SpectralGrid(32)
        base = InterfaceState(
            np.zeros(grid.n_modes, dtype=complex),
            grid.to_spectral(0.05 * np.cos(grid.nodes)),
        )
        config = RunConfig(
            n_modes=32, dt=1e-5, t_end=0.004, stop_on=frozenset({"rt_sign"}),
            rt_convention="generalized", schedule=HeightSchedule(),
        )
        with pytest.raises(ConfigError, match="Rayleigh-Taylor sign"):
            two_solution_monitor(base, perturb(base, 1e-5, f_kappa(0.2, grid)), config)

    @pytest.mark.parametrize("termination", ["reached_t_end", "blowup_norm", "chord_arc_floor"])
    def test_pair_ends_and_records_as_run_does(self, termination):
        # a state and its copy: the pair must stop and record where run does
        if termination == "chord_arc_floor":
            state = pinched_state(SpectralGrid(128))
            config = RunConfig(
                n_modes=128, dt=5e-4, t_end=0.05, record_every=10,
                chord_arc_floor=1.9e-3, stop_on=frozenset({"chord_arc_floor"}),
            )
        else:
            grid = SpectralGrid(64)
            state = InterfaceState(
                np.zeros(grid.n_modes, dtype=complex),
                grid.to_spectral(0.01 * np.cos(grid.nodes)),
            )
            # ten full steps and a tail step off the record cadence
            config = RunConfig(n_modes=64, dt=1e-3, t_end=0.0105, record_every=4)
            if termination == "blowup_norm":
                config = dataclasses.replace(
                    config, stop_on=frozenset({"blowup_norm"}), blowup_norm=1e-9
                )
        trajectory = run(state, config)
        monitor = two_solution_monitor(state, state.copy(), config)
        assert trajectory.termination == termination
        assert monitor.outcome.termination == trajectory.termination
        assert monitor.times == trajectory.times()


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

    def test_generalized_stop_after_the_handover(self):
        # this graph passes the generalized monitor on hbar's contour at t = 0
        # and fails it on h's higher contour once t passes tau^2 = 1.9e-4
        from muskat import HeightSchedule

        grid = SpectralGrid(32)
        initial = make_turnover_state(GraphFamilyParams(
            slope_amplitude=0.06, steepening_rate=0.43, vertical_amplitudes=(0.29, 0.22),
        ), grid)
        config = RunConfig(
            n_modes=32, dt=1e-5, t_end=0.004, stop_on=frozenset({"rt_sign"}),
            schedule=HeightSchedule(A=2.0, tau=0.0138), rt_convention="generalized",
        )
        trajectory = run(initial, config)
        assert trajectory.termination == "rt_sign"
        assert trajectory.times() == pytest.approx([0.0, 1e-4, 2e-4], abs=1e-15)

    def test_non_finite_generalized_monitor_raises(self, monkeypatch):
        # NaN has no sign: min() <= 0 and max() >= 0 are both False on it, so
        # a NaN monitor must end the run instead of passing as no violation
        from muskat import HeightSchedule
        nan_rt_generalized_after_start(monkeypatch)
        grid = SpectralGrid(32)
        initial = make_turnover_state(GraphFamilyParams(
            slope_amplitude=0.06, steepening_rate=0.43, vertical_amplitudes=(0.29, 0.22),
        ), grid)
        config = RunConfig(
            n_modes=32, dt=1e-5, t_end=5e-5, stop_on=frozenset({"rt_sign"}),
            schedule=HeightSchedule(A=2.0, tau=0.0138), rt_convention="generalized",
        )
        with pytest.raises(BlowupError, match="non-finite Rayleigh-Taylor monitor"):
            run(initial, config)

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

    def test_sigma_runs_ignore_the_schedule(self):
        # the schedule drives only the generalized convention: a sigma run
        # measures h4_norm on the torus whether or not it carries one
        from muskat import HeightSchedule

        grid = SpectralGrid(32)
        initial = InterfaceState(
            np.zeros(32, dtype=complex), grid.to_spectral(0.01 * np.cos(grid.nodes))
        )
        config = RunConfig(n_modes=32, dt=1e-3, t_end=0.004, record_every=1)
        scheduled = run(initial, dataclasses.replace(config, schedule=HeightSchedule()))
        plain = run(initial, config)
        assert scheduled.times() == plain.times() and len(plain.times()) == 5
        assert [d.h4_norm for d in scheduled.diagnostics()] == [
            d.h4_norm for d in plain.diagnostics()
        ]

    def test_generalized_runs_leave_the_strip_at_tau(self):
        # h4_norm is measured on the schedule's contour while the time lies
        # in [-tau^2, tau], and on the torus after it
        from muskat import HeightSchedule

        schedule = HeightSchedule()
        grid = SpectralGrid(32)
        initial = InterfaceState(
            np.zeros(32, dtype=complex), grid.to_spectral(0.01 * np.cos(grid.nodes))
        )
        runs = {
            convention: run(initial, RunConfig(
                n_modes=32, dt=1e-3, t_end=0.01, record_every=1, rt_convention=convention,
                schedule=schedule if convention == "generalized" else None,
            )).diagnostics()
            for convention in ("generalized", "sigma")
        }
        inside = outside = 0
        for lifted, flat in zip(runs["generalized"], runs["sigma"]):
            assert lifted.time == flat.time
            if 0.0 < lifted.time < schedule.tau:
                inside += 1
                assert lifted.h4_norm != flat.h4_norm
            elif lifted.time > schedule.tau:
                outside += 1
                assert lifted.h4_norm == flat.h4_norm
        assert (inside, outside) == (4, 5)
