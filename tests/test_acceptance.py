"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criterion 6 is asserted exactly as stated and is
expected to fail: its fixed parameter tuple (A=10, tau=0.05) lies outside
the regime in which the schedule inequalities hold (h(pi, tau^2) = -0.375
at those values), see notes in the repository root README.  A companion
test runs the same verifier inside the valid regime and must pass.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from muskat import (
    GraphFamilyParams,
    HeightSchedule,
    InterfaceState,
    LiftedContour,
    RunConfig,
    SpectralGrid,
    f_kappa,
    h_of,
    hbar_of,
    lambda_gamma,
    log_datum,
    make_turnover_state,
    perturb,
    pv_cot_integral,
    rhs,
    rhs_d4_decomposition,
    run,
    schedule_margins,
    step,
    two_solution_monitor,
)

import symbolic_assembly as sym
from test_grid import quadratic_form_sides
from conftest import strip_state

# frozen regression band for criterion 8, measured at first computation
PAIR_RATIO_BAND = (0.3, 1.5)


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE criterion {number}: PASS - {description} ({elapsed:.1f}s)")


def test_criterion_1_operator_identities():
    with criterion(1, "half-Laplacian multiplier, composition, quadratic form"):
        start = time.perf_counter()
        grid = SpectralGrid(512)
        x = grid.nodes
        worst = 0.0
        for k in range(-128, 129):
            mode = np.exp(1j * k * x)
            got = grid.from_spectral(grid.lambda_op(grid.to_spectral(mode)))
            worst = max(worst, float(np.abs(got - abs(k) * mode).max()))
        assert worst < 1e-8

        rng = np.random.default_rng(1)
        c = np.zeros(grid.n_modes, dtype=complex)
        band = np.abs(grid.wavenumbers) <= 40
        c[band] = rng.normal(size=band.sum()) + 1j * rng.normal(size=band.sum())
        assert np.abs(grid.lambda_op(c) - grid.hilbert(grid.derivative(c))).max() <= 1e-10

        big = SpectralGrid(1024)
        f = np.cos(big.nodes).astype(complex)
        lhs, rhs_value = quadratic_form_sides(big, f, -np.sin(big.nodes))
        assert abs(lhs - np.pi) < 1e-10
        assert abs(rhs_value - np.pi) < 1e-10
        assert abs(lhs - rhs_value) <= 1e-6 * abs(lhs)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            c = np.zeros(big.n_modes, dtype=complex)
            for m in range(1, 13):
                c[m] = (rng.normal() + 1j * rng.normal()) * np.exp(-0.25 * m)
                c[-m] = rng.normal() * np.exp(-0.25 * m)
            fv = big.from_spectral(c)
            fp = big.from_spectral(big.derivative(c))
            lhs, rhs_value = quadratic_form_sides(big, fv, fp)
            assert abs(lhs - rhs_value) <= 1e-6 * abs(lhs)
        assert time.perf_counter() - start < 5.0


def test_criterion_2_pv_and_contour_suite():
    with criterion(2, "PV vanishing, constant-height reduction, residual uniformity"):
        grid = SpectralGrid(256)
        x = grid.nodes
        assert np.abs(pv_cot_integral(grid)).max() <= 1e-8
        for heights in (
            np.full(grid.n_modes, 0.5),
            0.4 + 0.05 * np.cos(x),
            0.3 + 0.1 * np.sin(2 * x),
        ):
            contour = LiftedContour.from_height(grid, heights)
            assert np.abs(pv_cot_integral(grid, contour)).max() <= 1e-8

        contour = LiftedContour.from_height(grid, np.full(grid.n_modes, 0.5))
        zeta = contour.complex_nodes(grid)
        mode = np.exp(4j * zeta)
        out = lambda_gamma(mode, 4j * mode, contour, grid)
        assert np.abs(out - 4.0 * mode).max() <= 1e-8

        contour = LiftedContour.from_height(grid, 0.4 + 0.05 * np.cos(x))
        zeta = contour.complex_nodes(grid)
        jac = contour.jacobian()
        residuals = []
        for k in range(1, 33):
            mode = np.exp(1j * k * zeta)
            mode = mode / grid.norm_l2(mode)
            lg = lambda_gamma(mode, 1j * k * mode, contour, grid)
            lam = grid.from_spectral(grid.lambda_op(grid.to_spectral(mode)))
            residuals.append(grid.norm_l2(lg - lam / jac))
        residuals = np.array(residuals)
        assert np.all(residuals / residuals[0] <= 10.0)


def test_criterion_3_rhs_oracles():
    with criterion(3, "flat/shift/linearization/self-convergence oracles"):
        start = time.perf_counter()
        grid = SpectralGrid(256)
        x = grid.nodes
        flat_tendency = rhs(InterfaceState.flat(grid), grid)
        assert np.abs(flat_tendency[0]).max() <= 1e-10
        assert np.abs(flat_tendency[1]).max() <= 1e-10

        state = InterfaceState(
            grid.to_spectral(-0.08 * np.sin(x)), grid.to_spectral(0.05 * np.sin(x))
        )
        shifted = state.copy()
        shifted.p2 = shifted.p2.copy()
        shifted.p2[0] += 0.37
        ta, tb = rhs(state, grid), rhs(shifted, grid)
        assert np.abs(ta[0] - tb[0]).max() <= 1e-12
        assert np.abs(ta[1] - tb[1]).max() <= 1e-12

        eps = 1e-6
        for k in (1, 2, 3):
            mode_state = InterfaceState(
                np.zeros(grid.n_modes, dtype=complex),
                grid.to_spectral(eps * np.cos(k * x)),
            )
            tendency = rhs(mode_state, grid)
            rate = -(tendency[1, k] / mode_state.p2[k]).real
            assert abs(rate - 2.0 * np.pi * k) <= 1e-4 * 2.0 * np.pi * k

        previous = None
        errors = []
        for n in (64, 128, 256, 512):
            g = SpectralGrid(n)
            tendency = rhs(strip_state(g, width=0.3), g)
            values = g.from_spectral(tendency[1])
            if previous is not None:
                errors.append(np.abs(previous - values[::2]).max())
            previous = values
        assert errors[0] / errors[1] >= 10.0
        assert errors[1] / errors[2] >= 10.0
        assert time.perf_counter() - start < 30.0


def test_criterion_4_decomposition_easy_assembly(grid256):
    with criterion(4, "independently assembled easy terms match the remainder"):
        x = grid256.nodes
        state = InterfaceState(
            grid256.to_spectral(-0.08 * np.sin(x) + 0.03 * np.sin(2 * x)),
            grid256.to_spectral(0.05 * np.sin(x) + 0.02 * np.cos(2 * x)),
        )
        parts = rhs_d4_decomposition(state, grid256)
        for mu, easy_sub in ((1, parts.easy.d1), (2, parts.easy.d2)):
            terms = sym.expansion_terms(mu)
            _, _, easy_terms = sym.classify(terms)
            assembled = sym.evaluate_terms(easy_terms, state, grid256)
            scale = np.abs(easy_sub).max()
            assert np.abs(assembled - easy_sub).max() <= 1e-6 * scale


def test_criterion_5_f_kappa_construction():
    with criterion(5, "log-singular datum: series, fourth derivative, radius"):
        grid = SpectralGrid(512)
        kappa = 0.1
        coeffs = f_kappa(kappa, grid)
        k = np.arange(1, grid.n_modes // 4 + 1)
        cosine = 2.0 * coeffs[k].real
        closed = -2.0 * np.exp(-kappa * k) / k.astype(float) ** 5
        assert np.abs(cosine - closed).max() <= 1e-10

        d4 = grid.from_spectral(grid.derivative(coeffs, 4)).real
        assert np.abs(d4 - log_datum(kappa, grid)).max() <= 1e-8

        for kap in (0.05, 0.1, 0.2, 0.3):
            estimate = grid.analyticity_radius(f_kappa(kap, grid), (8, 40))
            assert abs(estimate - kap) <= 0.2 * kap


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: at (A=10, tau=0.05) the height function goes "
    "negative (h(pi, tau^2) = -0.375), so no margin can be nonnegative; the "
    "schedule inequalities require tau small enough that A^2*tau <~ 1/2. "
    "See the decisions ledger. The verifier itself is exercised in the "
    "companion test below at a regime-valid tuple.",
)
def test_criterion_6_schedule_margins_literal_parameters():
    with criterion(6, "schedule margins at the pinned tuple (A=10, tau=0.05)"):
        schedule = HeightSchedule(A=10.0, tau=0.05, kappa=1e-6)
        grid = SpectralGrid(256)
        margins = schedule_margins(schedule, grid)
        print(f"  measured margins: {margins}")
        assert margins.h_positive >= 0.0
        assert margins.h_t_bound >= 0.0
        assert margins.handover >= 0.0
        assert margins.hbar_t_bound >= 0.0
        x = grid.nodes
        assert (hbar_of(x, schedule.tau**2, schedule)
                <= h_of(x, schedule.tau**2, schedule)).all()


def test_criterion_6_schedule_margins_valid_regime():
    with criterion(6, "schedule margins in the admissible smallness regime (tau=0.005)"):
        schedule = HeightSchedule(A=10.0, tau=0.005, kappa=1e-6)
        grid = SpectralGrid(256)
        margins = schedule_margins(schedule, grid)
        assert margins.h_positive >= 0.0
        assert margins.h_t_bound >= 0.0
        assert margins.handover >= 0.0
        assert margins.hbar_t_bound >= 0.0
        x = grid.nodes
        assert (hbar_of(x, schedule.tau**2, schedule)
                <= h_of(x, schedule.tau**2, schedule)).all()


def test_criterion_7_dynamics_suite():
    with criterion(7, "fixed point, decay rate, reversibility, turnover run"):
        start = time.perf_counter()
        grid = SpectralGrid(256)
        cutoff = grid.n_modes // 3

        state = InterfaceState.flat(grid)
        for _ in range(1000):
            state = step(state, grid, 1e-3, cutoff)
        assert np.abs(state.p1).max() <= 1e-10
        assert np.abs(state.p2).max() <= 1e-10

        initial = InterfaceState(
            np.zeros(grid.n_modes, dtype=complex),
            grid.to_spectral(0.01 * np.cos(grid.nodes)),
        )
        trajectory = run(initial, RunConfig(n_modes=256, dt=1e-3, t_end=0.5,
                                            record_every=50))
        times = np.array(trajectory.times())
        amplitudes = np.array(
            [np.abs(s.values(grid)[1].real).max() for _, s, _ in trajectory.records]
        )
        rate = -np.polyfit(times, np.log(amplitudes), 1)[0]
        assert abs(rate - 2.0 * np.pi) <= 0.05 * 2.0 * np.pi

        wavy = InterfaceState(
            grid.to_spectral(-0.05 * np.sin(grid.nodes)),
            grid.to_spectral(0.1 * np.sin(grid.nodes)),
        )
        there = step(wavy, grid, 1e-3, cutoff)
        back = step(there, grid, -1e-3, cutoff)
        assert np.abs(back.p1 - wavy.p1).max() <= 1e-9
        assert np.abs(back.p2 - wavy.p2).max() <= 1e-9

        steep = make_turnover_state(GraphFamilyParams(slope_amplitude=0.98), grid)
        turnover_run = run(steep, RunConfig(
            n_modes=256, dt=5e-4, t_end=0.04, record_every=5,
            stop_on=frozenset({"blowup_norm"}),
        ))
        diags = turnover_run.diagnostics()
        minima = [d.min_dz1 for d in diags]
        assert minima[0] > 0.0
        assert min(minima) < 0.0  # sign change: turnover detected
        assert all(d.chord_arc > 1e-4 for d in diags)
        assert all(d.analyticity_radius > 0.0 for d in diags)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0


def test_criterion_8_two_solution_regression():
    with criterion(8, "perturbed-pair distance band and identical reruns"):
        grid = SpectralGrid(256)
        base = InterfaceState(
            np.zeros(grid.n_modes, dtype=complex),
            grid.to_spectral(0.05 * np.cos(grid.nodes)),
        )
        other = perturb(base, 1e-5, f_kappa(0.2, grid))
        config = RunConfig(n_modes=256, dt=1e-3, t_end=0.1, record_every=10)

        monitor_one = two_solution_monitor(base, other, config)
        ratios = np.array(monitor_one.distances) / monitor_one.distances[0]
        assert PAIR_RATIO_BAND[0] <= ratios.min()
        assert ratios.max() <= PAIR_RATIO_BAND[1]

        monitor_two = two_solution_monitor(base, other, config)
        assert monitor_one.distances == monitor_two.distances


def test_criterion_9_reality_and_parity_conservation():
    with criterion(9, "real odd data stays real and odd over 500 steps"):
        grid = SpectralGrid(128)
        x = grid.nodes
        state = InterfaceState(
            grid.to_spectral(-0.1 * np.sin(x)),
            grid.to_spectral(0.2 * np.sin(x)),
        )
        cutoff = grid.n_modes // 3
        for _ in range(500):
            state = step(state, grid, 1e-3, cutoff)
        for coeffs in (state.p1, state.p2):
            values = grid.from_spectral(coeffs)
            assert np.abs(values.imag).max() <= 1e-9
            mirrored = np.concatenate([[values[0]], values[:0:-1]])
            assert np.abs(values.real + mirrored.real).max() <= 1e-9
