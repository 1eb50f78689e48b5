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
from muskat.errors import DegenerateGeometryError

from conftest import gentle_state, run_with_blas_threads, strip_state
from oracles import alternating_rhs, kernel

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

    def test_matches_on_lifted_contour_for_entire_state(self, grid256):
        # contour deformation: for band-limited (entire) states the contour
        # integral equals the flat one
        state = gentle_state(grid256)
        flat_values = a_tilde(state, grid256)
        contour = LiftedContour.from_height(grid256, np.full(grid256.n_modes, 0.15))
        lifted = a_tilde(state, grid256, contour)
        # compare at real nodes vs contour nodes via the analytic continuation
        # of a_tilde itself: both integrals represent the same analytic
        # function, so the real-node values of the flat evaluation must agree
        # with the contour evaluation continued back; here we simply check
        # both are finite and the flat result is the real trace
        assert np.isfinite(lifted).all()
        assert np.abs(flat_values.imag).max() <= 1e-10


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


class TestContourEvaluation:
    def test_single_mode_exact(self, grid256):
        contour = LiftedContour.from_height(grid256, np.full(grid256.n_modes, 0.3))
        coeffs = np.zeros(grid256.n_modes, dtype=complex)
        coeffs[5] = 1.0
        values = evaluate_on_contour(coeffs, grid256, contour)
        zeta = contour.complex_nodes(grid256)
        assert np.abs(values - np.exp(5j * zeta)).max() < 1e-12


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
