import numpy as np
import pytest

from muskat import (
    InterfaceState,
    LiftedContour,
    SpectralGrid,
    a_tilde,
    chord_arc_constant,
    evaluate_on_contour,
    rhs,
    rhs_d4_decomposition,
)
from muskat.core import _flat_distance_sq, build_workspace
from muskat.errors import DegenerateGeometryError
from muskat.initial_data import GraphFamilyParams, make_turnover_state

from conftest import gentle_state, run_with_blas_threads, strip_state
from oracles import alternating_rhs, kernel, mpmath_rhs

FLAT_TORUS_CHORD_ARC = 2.0 / np.pi**2


def shift_state(state: InterfaceState, grid: SpectralGrid, s: float) -> InterfaceState:
    """Translate alpha -> alpha + s, z1 -> z1 + s (reparametrized translation)."""
    phase = np.exp(1j * grid.wavenumbers * s)
    return InterfaceState(state.p1 * phase, state.p2 * phase, state.time)


class TestKernel:
    def test_flat_antipodal_zero(self, grid256):
        state = InterfaceState.flat(grid256)
        i = 0
        j = grid256.n_modes // 2  # x_i - x_j = pi
        assert abs(kernel(state, grid256, i, j)) < 1e-14

    def test_flat_quarter_period(self, grid256):
        state = InterfaceState.flat(grid256)
        i = grid256.n_modes // 4  # x_i - x_j = pi/2
        value = kernel(state, grid256, i, 0)
        assert abs(value - 1.0) < 1e-14

    def test_diagonal_is_rejected(self, grid256):
        state = InterfaceState.flat(grid256)
        with pytest.raises(ValueError):
            kernel(state, grid256, 3, 3)


class TestRhsOracles:
    def test_flat_state_is_stationary(self, grid256):
        tendency = rhs(InterfaceState.flat(grid256), grid256)
        assert np.abs(tendency.d1).max() < 1e-10
        assert np.abs(tendency.d2).max() < 1e-10

    def test_vertical_shift_invariance(self, grid256):
        state = gentle_state(grid256)
        shifted = state.copy()
        shifted.p2[0] += 0.37
        ta = rhs(state, grid256)
        tb = rhs(shifted, grid256)
        assert np.abs(ta.d1 - tb.d1).max() <= 1e-12
        assert np.abs(ta.d2 - tb.d2).max() <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_linearized_decay_rate(self, grid256, k):
        # oracle: int cot(u/2) (sin kx - sin k(x-u)) du = 2 pi cos kx, so the
        # flat linearization damps mode k at rate 2 pi k
        eps = 1e-6
        x = grid256.nodes
        state = InterfaceState(
            np.zeros(grid256.n_modes, dtype=complex),
            grid256.to_spectral(eps * np.cos(k * x)),
        )
        tendency = rhs(state, grid256)
        rate = -(tendency.d2[k] / state.p2[k]).real
        assert abs(rate - 2.0 * np.pi * k) <= 1e-4 * 2.0 * np.pi * k

    def test_near_flat_profile_matches_closed_form(self, grid256):
        eps = 1e-6
        x = grid256.nodes
        state = InterfaceState(
            np.zeros(grid256.n_modes, dtype=complex),
            grid256.to_spectral(eps * np.cos(x)),
        )
        d2 = grid256.from_spectral(rhs(state, grid256).d2).real
        target = -2.0 * np.pi * eps * np.cos(x)
        assert np.abs(d2 - target).max() <= 1e-4 * np.abs(target).max()

    def test_brute_force_cot_oracle(self, grid256):
        # independent check of the closed form used above, by raw quadrature
        # with the removable endpoint limits 2 cos(x0)
        x0 = 0.7
        u = np.linspace(0.0, 2.0 * np.pi, 400001)
        with np.errstate(divide="ignore", invalid="ignore"):
            integrand = (np.sin(x0) - np.sin(x0 - u)) / np.tan(u / 2.0)
        integrand[0] = integrand[-1] = 2.0 * np.cos(x0)
        value = np.trapezoid(integrand, u)
        assert abs(value - 2.0 * np.pi * np.cos(x0)) < 1e-6

    def test_spectral_self_convergence(self):
        results = {}
        for n in (64, 128, 256, 512):
            grid = SpectralGrid(n)
            state = strip_state(grid, width=0.3)
            tendency = rhs(state, grid)
            results[n] = grid.from_spectral(tendency.d2)
        errors = []
        for n in (64, 128, 256):
            coarse = results[n]
            fine = results[2 * n][::2]
            errors.append(np.abs(coarse - fine).max())
        assert errors[0] / errors[1] >= 10.0
        assert errors[1] / errors[2] >= 10.0

    def test_quadrature_fallbacks_agree(self, grid256):
        state = gentle_state(grid256)
        analytic = rhs(state, grid256)
        alternating = alternating_rhs(state, grid256)
        scale = np.abs(grid256.from_spectral(analytic.d2)).max()
        for a, b in ((analytic.d1, alternating.d1), (analytic.d2, alternating.d2)):
            va = grid256.from_spectral(a)
            vb = grid256.from_spectral(b)
            assert np.abs(va - vb).max() <= 1e-6 * max(scale, 1.0)

    @pytest.mark.parametrize("make_state", [
        gentle_state,
        lambda grid: make_turnover_state(GraphFamilyParams(slope_amplitude=0.98), grid),
    ], ids=["gentle", "turnover"])
    def test_matches_mpmath_golden_oracle(self, make_state):
        # the same trapezoid sum at 40 digits bounds the float64 round-off
        grid = SpectralGrid(32)
        state = make_state(grid)
        tendency = rhs(state, grid)
        golden = mpmath_rhs(state, grid)
        for mu, coeffs in enumerate((tendency.d1, tendency.d2)):
            values = grid.from_spectral(coeffs).real
            error = np.abs(values - golden[mu]).max() / np.abs(golden[mu]).max()
            assert error <= 1e-14


class TestKernelWorkspace:
    def test_flat_workspace_is_real(self, grid256):
        ws = build_workspace(gentle_state(grid256), grid256, max_order=6)
        for array in (ws.zeta, ws.dz1, ws.dz2, ws.den, *ws.der.values()):
            assert array.dtype == np.float64

    def test_flat_distance_is_cached_and_read_only(self):
        first = _flat_distance_sq(64)
        assert not first.flags.writeable
        assert _flat_distance_sq(64) is first

    def test_lifted_denominator_matches_cosh_minus_cos(self):
        # the direct form itself loses ~1e-16/dx^2 relative next to the
        # diagonal, so the grid stays coarse enough for it to hold 1e-12
        grid = SpectralGrid(64)
        contour = LiftedContour.from_height(grid, 0.15 + 0.03 * np.cos(grid.nodes))
        ws = build_workspace(gentle_state(grid), grid, contour, max_order=1)
        direct = np.cosh(ws.dz2) - np.cos(ws.dz1)
        off = ~np.eye(grid.n_modes, dtype=bool)
        assert (np.abs(ws.den - direct)[off] <= 1e-12 * np.abs(direct[off])).all()


class TestRhsSymmetries:
    def test_reality(self, grid256):
        state = gentle_state(grid256)
        tendency = rhs(state, grid256)
        for c in (tendency.d1, tendency.d2):
            values = grid256.from_spectral(c)
            assert np.abs(values.imag).max() <= 1e-10

    def test_oddness(self, grid256):
        x = grid256.nodes
        state = InterfaceState(
            grid256.to_spectral(-0.3 * np.sin(x)),
            grid256.to_spectral(0.4 * np.sin(x) + 0.1 * np.sin(2 * x)),
        )
        tendency = rhs(state, grid256)
        for c in (tendency.d1, tendency.d2):
            values = grid256.from_spectral(c).real
            mirrored = np.concatenate([[values[0]], values[:0:-1]])
            assert np.abs(values + mirrored).max() <= 1e-10

    def test_translation_covariance(self, grid256):
        state = gentle_state(grid256)
        s = 2.0 * np.pi * 7 / grid256.n_modes  # grid-aligned shift
        ta = rhs(shift_state(state, grid256, s), grid256)
        tb = rhs(state, grid256)
        phase = np.exp(1j * grid256.wavenumbers * s)
        assert np.abs(ta.d1 - tb.d1 * phase).max() <= 1e-10
        assert np.abs(ta.d2 - tb.d2 * phase).max() <= 1e-10

    def test_degenerate_geometry_raises_with_pair(self, grid256):
        x = grid256.nodes
        # self-intersecting curve: z1 doubles back far enough to touch
        state = InterfaceState(
            grid256.to_spectral(-1.6 * np.sin(x)),
            grid256.to_spectral(0.01 * np.sin(x)),
        )
        ratio = chord_arc_constant(state, grid256)
        for evaluate in (rhs, a_tilde, rhs_d4_decomposition):
            with pytest.raises(DegenerateGeometryError) as err:
                evaluate(state, grid256, floor=1e-2)
            i, j = err.value.pair
            assert i != j and 0 <= min(i, j) and max(i, j) < grid256.n_modes
            assert err.value.ratio == ratio < 1e-2

    def test_blas_thread_count_invariance(self):
        # rerun in fresh processes with one and two BLAS threads: identical bytes
        script = (
            "import sys; from muskat import SpectralGrid, rhs; "
            "from conftest import gentle_state; g = SpectralGrid(256); "
            "t = rhs(gentle_state(g), g); "
            "sys.stdout.write((t.d1.tobytes() + t.d2.tobytes()).hex())"
        )
        one = run_with_blas_threads(["-c", script], 1).stdout
        two = run_with_blas_threads(["-c", script], 2).stdout
        assert len(one) == 2 * 2 * 16 * 256
        assert one == two


class TestATilde:
    def test_flat_is_zero(self, grid256):
        values = a_tilde(InterfaceState.flat(grid256), grid256)
        assert np.abs(values).max() <= 1e-10

    def test_real_on_real_states(self, grid256):
        x = grid256.nodes
        state = InterfaceState(
            np.zeros(grid256.n_modes, dtype=complex),
            grid256.to_spectral(0.1 * np.sin(x)),
        )
        values = a_tilde(state, grid256)
        assert np.abs(values.imag).max() <= 1e-10

    def test_odd_state_vanishes_at_origin(self, grid256):
        x = grid256.nodes
        state = InterfaceState(
            grid256.to_spectral(-0.3 * np.sin(x)),
            grid256.to_spectral(0.4 * np.sin(x)),
        )
        values = a_tilde(state, grid256)
        assert abs(values[0]) <= 1e-10

    def test_diagonal_limit_against_pointwise(self):
        # a(x, x - eps) must approach the closed-form diagonal value
        dz1, dz2 = 1 - 0.3 * np.cos(0.7), 0.4 * np.cos(0.7)
        d2z1, d2z2 = 0.3 * np.sin(0.7), -0.4 * np.sin(0.7)
        t_sq = dz1**2 + dz2**2
        slope_sum = dz1 * d2z1 + dz2 * d2z2
        predicted = 2 * dz1 * slope_sum / t_sq**2 - d2z1 / t_sq

        def a_value(x, w):
            p = (x - 0.3 * np.sin(x)) - (w - 0.3 * np.sin(w))
            q = 0.4 * np.sin(x) - 0.4 * np.sin(w)
            return np.sin(p) / (np.cosh(q) - np.cos(p)) - dz1 / t_sq / np.tan((x - w) / 2)

        assert abs(a_value(0.7, 0.7 - 1e-3) - predicted) < 1e-3

    def test_matches_on_lifted_contour_for_entire_state(self):
        # contour deformation: for band-limited (entire) states the contour
        # integral is the analytic continuation of the flat one, so the flat
        # values, band-limited and evaluated on the contour, give the lifted
        # ones.  Lifted sampling amplifies coefficient round-off by e^{|k| h},
        # hence N = 128 and a state projected to |k| <= 4.
        grid = SpectralGrid(128)
        gentle = gentle_state(grid)
        state = InterfaceState(grid.project_modes(gentle.p1, 4), grid.project_modes(gentle.p2, 4))
        flat_coeffs = grid.project_modes(grid.to_spectral(a_tilde(state, grid)), grid.n_modes // 4)
        x = grid.nodes
        for heights in (np.full(grid.n_modes, 0.15), 0.1 + 0.03 * np.cos(x)):
            contour = LiftedContour.from_height(grid, heights)
            lifted = a_tilde(state, grid, contour)
            continued = evaluate_on_contour(flat_coeffs, grid, contour)
            assert np.abs(continued - lifted).max() <= 1e-10 * np.abs(lifted).max()


class TestChordArc:
    def test_flat_torus_value(self, grid256):
        value = chord_arc_constant(InterfaceState.flat(grid256), grid256)
        assert abs(value - FLAT_TORUS_CHORD_ARC) <= 1e-4

    def test_double_point_collapses(self, grid256):
        x = grid256.nodes
        # strong fold: two parameter values land at the same curve point
        state = InterfaceState(
            grid256.to_spectral(-2.0 * np.sin(x)),
            np.zeros(grid256.n_modes, dtype=complex),
        )
        assert chord_arc_constant(state, grid256) < 1e-3

    def test_lifted_contour_band(self, grid256):
        contour = LiftedContour.from_height(grid256, np.full(grid256.n_modes, 0.2))
        value = chord_arc_constant(InterfaceState.flat(grid256), grid256, contour)
        assert value > 0.0
        assert value <= FLAT_TORUS_CHORD_ARC * (1.0 + 1e-2)

    def test_cached_distance_keeps_values_across_grid_sizes(self):
        grids = [SpectralGrid(n) for n in (64, 128, 64)]
        values = [chord_arc_constant(gentle_state(g), g) for g in grids]
        assert values[2] == values[0]


class TestContourEvaluation:
    def test_single_mode_exact(self, grid256):
        contour = LiftedContour.from_height(grid256, np.full(grid256.n_modes, 0.3))
        coeffs = np.zeros(grid256.n_modes, dtype=complex)
        coeffs[5] = 1.0
        values = evaluate_on_contour(coeffs, grid256, contour)
        zeta = contour.complex_nodes(grid256)
        assert np.abs(values - np.exp(5j * zeta)).max() < 1e-12

    def test_stack_matches_row_by_row(self, grid256):
        # rows with different live modes share one phase matrix over their union
        contour = LiftedContour.from_height(grid256, 0.1 + 0.03 * np.cos(grid256.nodes))
        state = gentle_state(grid256)
        stack = np.stack([state.p1, grid256.derivative(state.p2, 3),
                          np.zeros(grid256.n_modes, dtype=complex)])
        stack[2, [7, -7]] = 0.5
        together = evaluate_on_contour(stack, grid256, contour)
        for row, values in zip(stack, together):
            alone = evaluate_on_contour(row, grid256, contour)
            assert np.abs(values - alone).max() <= 1e-14 * np.abs(alone).max()


class TestDensityPrefactor:
    def test_rescales_tendency_linearly(self, grid256):
        state = gentle_state(grid256)
        base = rhs(state, grid256)
        scaled = rhs(state, grid256, density_jump_over_2pi=2.5)
        assert np.abs(scaled.d1 - 2.5 * base.d1).max() < 1e-14
        assert np.abs(scaled.d2 - 2.5 * base.d2).max() < 1e-14

    def test_halved_density_halves_decay_rate(self, grid256):
        eps = 1e-6
        state = InterfaceState(
            np.zeros(grid256.n_modes, dtype=complex),
            grid256.to_spectral(eps * np.cos(grid256.nodes)),
        )
        tendency = rhs(state, grid256, density_jump_over_2pi=0.5)
        rate = -(tendency.d2[1] / state.p2[1]).real
        assert abs(rate - np.pi) <= 1e-4 * np.pi
