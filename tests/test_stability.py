import numpy as np
import pytest

from muskat import (
    InterfaceState,
    LiftedContour,
    SpectralGrid,
    a_tilde,
    evaluate_on_contour,
    h4_distance,
    rt_generalized,
    rt_unperturbed,
    turnover_indicator,
)
from muskat.errors import DegenerateParametrizationError

from conftest import gentle_state


class TestRtUnperturbed:
    def test_flat_graph(self, grid256):
        sigma = rt_unperturbed(InterfaceState.flat(grid256), grid256)
        assert np.abs(sigma + 2.0 * np.pi).max() < 1e-12

    def test_overturned_sign_flip(self, grid256):
        # z1 = alpha + 1.2 sin: dz1 = 1 + 1.2 cos crosses zero
        x = grid256.nodes
        state = InterfaceState(
            grid256.to_spectral(1.2 * np.sin(x)),
            grid256.to_spectral(0.3 * np.sin(x)),
        )
        sigma = rt_unperturbed(state, grid256)
        d1, _ = state.derivative_values(grid256)
        assert sigma[d1.real < 0].min() > 0.0
        assert sigma[d1.real > 0].max() < 0.0

    def test_unit_vertical_slope_halves_flat_value(self, grid256):
        # at alpha = 0, z2 = sin(alpha) has dz2 = 1, so sigma = -2 pi / 2
        state = InterfaceState(
            np.zeros(grid256.n_modes, dtype=complex),
            grid256.to_spectral(np.sin(grid256.nodes)),
        )
        sigma = rt_unperturbed(state, grid256)
        assert abs(sigma[0] + np.pi) < 1e-12

    def test_sign_flips_exactly_with_dz1(self, grid256):
        x = grid256.nodes
        state = InterfaceState(
            grid256.to_spectral(1.1 * np.sin(x)),
            grid256.to_spectral(0.5 * np.sin(x)),
        )
        sigma = rt_unperturbed(state, grid256)
        d1, _ = state.derivative_values(grid256)
        assert np.array_equal(np.sign(sigma), -np.sign(d1.real))

    def test_extremum_tracks_steepest_point(self, grid256):
        # near criticality the largest sigma sits where dz1 is smallest,
        # which is the point the turnover monitor watches
        x = grid256.nodes
        state = InterfaceState(
            grid256.to_spectral(-0.95 * np.sin(x)),
            grid256.to_spectral(np.sin(x)),
        )
        sigma = rt_unperturbed(state, grid256)
        d1, _ = state.derivative_values(grid256)
        assert np.argmax(sigma) == np.argmin(d1.real)

    def test_vanishing_tangent_raises(self, grid256):
        x = grid256.nodes
        state = InterfaceState(grid256.to_spectral(-np.sin(x)),
                               np.zeros(grid256.n_modes, dtype=complex))
        with pytest.raises(DegenerateParametrizationError):
            rt_unperturbed(state, grid256)


class TestTurnoverIndicator:
    def test_flat(self, grid256):
        assert turnover_indicator(InterfaceState.flat(grid256), grid256) == pytest.approx(1.0)

    def test_overturned(self, grid256):
        state = InterfaceState(grid256.to_spectral(1.2 * np.sin(grid256.nodes)),
                               np.zeros(grid256.n_modes, dtype=complex))
        assert turnover_indicator(state, grid256) == pytest.approx(-0.2, abs=1e-6)

    def test_steep_graph(self, grid256):
        state = InterfaceState(grid256.to_spectral(0.5 * np.sin(grid256.nodes)),
                               np.zeros(grid256.n_modes, dtype=complex))
        assert turnover_indicator(state, grid256) == pytest.approx(0.5, abs=1e-6)


class TestRtGeneralized:
    def test_flat_state_constant_height(self, grid256):
        contour = LiftedContour.from_height(grid256, np.full(grid256.n_modes, 0.2))
        for shift in (0.0, 2.0 * np.pi + 1.0):
            value = rt_generalized(
                InterfaceState.flat(grid256), grid256, contour,
                np.full(grid256.n_modes, shift),
            )
            assert np.abs(value - (-2.0 * np.pi + shift)).max() < 1e-8

    def test_positive_when_contour_rises_fast(self, grid256):
        contour = LiftedContour.from_height(grid256, np.full(grid256.n_modes, 0.2))
        value = rt_generalized(
            InterfaceState.flat(grid256), grid256, contour,
            np.full(grid256.n_modes, 2.0 * np.pi + 1.0),
        )
        assert value.min() > 0.0

    def test_small_height_limit_recovers_flat_rt(self, grid256):
        state = gentle_state(grid256)
        sigma = rt_unperturbed(state, grid256)
        contour = LiftedContour.from_height(grid256, np.full(grid256.n_modes, 1e-3))
        value = rt_generalized(state, grid256, contour, np.zeros(grid256.n_modes))
        assert np.abs(value - sigma).max() <= 1e-2

    def test_height_convergence_rate_is_linear(self, grid256):
        state = gentle_state(grid256)
        sigma = rt_unperturbed(state, grid256)
        heights = np.array([4e-3, 2e-3, 1e-3, 5e-4])
        errors = []
        for h in heights:
            contour = LiftedContour.from_height(grid256, np.full(grid256.n_modes, h))
            value = rt_generalized(state, grid256, contour, np.zeros(grid256.n_modes))
            errors.append(np.abs(value - sigma).max())
        slope = np.polyfit(np.log(heights), np.log(errors), 1)[0]
        assert abs(slope - 1.0) < 0.2

    def test_matches_definition_from_public_operators(self, grid256):
        x = grid256.nodes
        state = gentle_state(grid256)
        contour = LiftedContour.from_height(grid256, 0.1 + 0.03 * np.cos(x))
        h_t = 0.5 * np.sin(x)
        d1 = evaluate_on_contour(grid256.derivative(state.p1), grid256, contour) + 1.0
        d2 = evaluate_on_contour(grid256.derivative(state.p2), grid256, contour)
        inv_jac = 1.0 / contour.jacobian()
        pv_kernel = a_tilde(state, grid256, contour)
        expected = ((-2.0 * np.pi * d1 / (d1**2 + d2**2) * inv_jac).real
                    + ((pv_kernel + 1j * h_t) * inv_jac).imag)
        value = rt_generalized(state, grid256, contour, h_t)
        assert np.abs(value - expected).max() <= 1e-12 * np.abs(expected).max()


class TestH4Distance:
    def test_identical_states(self, grid256):
        state = gentle_state(grid256)
        assert h4_distance(state, state, grid256) == 0.0

    def test_constant_vertical_shift(self, grid256):
        # constant difference c in z2 only: norm^2 = (2 contours) * 2 pi c^2
        state = gentle_state(grid256)
        shifted = state.copy()
        shifted.p2 = shifted.p2.copy()
        shifted.p2[0] += 0.1
        value = h4_distance(state, shifted, grid256)
        assert abs(value - 0.1 * np.sqrt(4.0 * np.pi)) < 1e-12

    def test_single_mode_closed_form(self, grid256):
        k, h, eps = 3, 0.2, 1e-3
        a = InterfaceState.flat(grid256)
        b = a.copy()
        b.p2 = b.p2.copy()
        b.p2[k] += eps
        contour = LiftedContour.from_height(grid256, np.full(grid256.n_modes, h))
        closed = eps * np.sqrt(
            2.0 * np.pi * (1.0 + k**8) * (np.exp(2 * k * h) + np.exp(-2 * k * h))
        )
        value = h4_distance(a, b, grid256, contour)
        assert abs(value - closed) <= 1e-8 * closed

    def test_symmetry_and_triangle(self, grid256):
        rng = np.random.default_rng(0)

        def random_state():
            c1 = np.zeros(grid256.n_modes, dtype=complex)
            c2 = np.zeros(grid256.n_modes, dtype=complex)
            for m in range(1, 9):
                c1[m] = (rng.normal() + 1j * rng.normal()) * 0.01
                c1[-m] = np.conj(c1[m])
                c2[m] = (rng.normal() + 1j * rng.normal()) * 0.01
                c2[-m] = np.conj(c2[m])
            return InterfaceState(c1, c2)

        for _ in range(5):
            a, b, c = random_state(), random_state(), random_state()
            assert h4_distance(a, b, grid256) == h4_distance(b, a, grid256)
            assert (
                h4_distance(a, c, grid256)
                <= h4_distance(a, b, grid256) + h4_distance(b, c, grid256) + 1e-10
            )
