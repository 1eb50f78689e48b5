import numpy as np
import pytest

from muskat import (
    GraphFamilyParams,
    InterfaceState,
    LiftedContour,
    SpectralGrid,
    f_kappa,
    h4_distance,
    log_datum,
    make_turnover_state,
    perturb,
)
from muskat.errors import InvalidFamilyError

from oracles import is_real, sampled, turnover_indicator


def point_derivatives(state, grid, orders=(1, 2, 3)):
    out = {}
    for order in orders:
        d1, d2 = sampled(state, grid, order)
        out[order] = (d1[0], d2[0])
    return out


class TestTurnoverFamily:
    def test_default_point_conditions(self, grid256):
        state = make_turnover_state(GraphFamilyParams(), grid256)
        z1, _ = sampled(state, grid256, 0)
        assert abs(z1[0]) < 1e-12  # z1(0) = 0
        ders = point_derivatives(state, grid256)
        assert abs(ders[1][0]) < 1e-10          # z1'(0) = 0 at critical amplitude
        assert abs(ders[2][0]) < 1e-10          # z1''(0) = 0 by oddness
        assert ders[3][0] > 0.0                 # z1'''(0) > 0
        assert ders[1][1] > 0.0                 # z2'(0) > 0

    def test_state_is_odd(self, grid256):
        state = make_turnover_state(GraphFamilyParams(), grid256)
        for coeffs in (state.p1, state.p2):
            assert np.abs(coeffs.real).max() < 1e-12  # pure sine series

    def test_small_amplitude_stays_graph(self, grid256):
        params = GraphFamilyParams(slope_amplitude=0.4, steepening_rate=0.1)
        state = make_turnover_state(params, grid256)
        assert turnover_indicator(state, grid256) > 0.0

    def test_invalid_third_derivative_rejected(self):
        with pytest.raises(InvalidFamilyError):
            make_turnover_state(
                GraphFamilyParams(slope_amplitude=1.0, steepening_rate=-0.5),
                SpectralGrid(64),
            )

    def test_invalid_vertical_slope_rejected(self):
        with pytest.raises(InvalidFamilyError):
            make_turnover_state(
                GraphFamilyParams(vertical_amplitudes=(-2.0, 0.5)),
                SpectralGrid(64),
            )


class TestFKappa:
    def test_cosine_coefficients_closed_form(self):
        grid = SpectralGrid(512)
        kappa = 0.1
        coeffs = f_kappa(kappa, grid)
        k = np.arange(1, grid.n_modes // 4 + 1)
        cosine = 2.0 * coeffs[k].real
        closed = -2.0 * np.exp(-kappa * k) / k.astype(float) ** 5
        assert np.abs(cosine - closed).max() <= 1e-10
        assert np.abs(coeffs[k].imag).max() == 0.0

    def test_limit_datum_coefficients(self):
        grid = SpectralGrid(512)
        coeffs = f_kappa(0.0, grid)
        k = np.arange(1, 40)
        assert np.abs(2.0 * coeffs[k].real + 2.0 / k.astype(float) ** 5).max() < 1e-14
        # f0 is bounded while its fourth derivative carries the 1/k log tail
        values = grid.from_spectral(coeffs).real
        assert np.isfinite(values).all()
        d4 = grid.derivative(coeffs, 4)
        assert abs(2.0 * d4[30].real + 2.0 / 30.0) < 1e-14

    @pytest.mark.parametrize("kappa", [0.0, 0.1, 0.25])
    def test_even_real_mean_zero(self, kappa):
        grid = SpectralGrid(256)
        coeffs = f_kappa(kappa, grid)
        values = grid.from_spectral(coeffs)
        assert np.abs(values.imag).max() < 1e-14
        assert abs(coeffs[0]) == 0.0
        mirrored = np.concatenate([[values[0]], values[:0:-1]])
        assert np.abs(values - mirrored).max() < 1e-12

    def test_fourth_derivative_reproduces_log_datum(self):
        grid = SpectralGrid(1024)
        for kappa in (0.05, 0.1):
            coeffs = f_kappa(kappa, grid)
            d4 = grid.from_spectral(grid.derivative(coeffs, 4)).real
            assert np.abs(d4 - log_datum(kappa, grid)).max() <= 1e-8

    def test_analyticity_radius_tracks_kappa(self):
        grid = SpectralGrid(512)
        for kappa in (0.05, 0.1, 0.2, 0.3):
            est = grid.analyticity_radius(f_kappa(kappa, grid), (8, 40))
            assert abs(est - kappa) <= 0.2 * kappa


class TestPerturb:
    def test_zero_lambda_is_identity(self, grid256):
        base = make_turnover_state(GraphFamilyParams(), grid256)
        same = perturb(base, 0.0, f_kappa(0.1, grid256))
        assert np.array_equal(same.p1, base.p1)
        assert np.array_equal(same.p2, base.p2)

    def test_norm_scales_linearly(self, grid256):
        base = InterfaceState.flat(grid256)
        lam = 1e-4
        f = f_kappa(0.1, grid256)
        contour = LiftedContour.from_height(grid256, np.full(grid256.n_modes, 0.05))
        perturbed = perturb(base, lam, f)
        flat = InterfaceState.flat(grid256)
        direct = lam * h4_distance(InterfaceState(f, np.zeros_like(f)), flat, grid256, contour)
        value = h4_distance(perturbed, base, grid256, contour)
        assert abs(value - direct) <= 1e-8 * max(direct, 1e-30)

    def test_preserves_reality(self, grid256):
        base = make_turnover_state(GraphFamilyParams(), grid256)
        perturbed = perturb(base, 1e-4, f_kappa(0.1, grid256))
        assert is_real(perturbed, tol=1e-12)

    def test_only_horizontal_component_changes(self, grid256):
        base = make_turnover_state(GraphFamilyParams(), grid256)
        perturbed = perturb(base, 1e-3, f_kappa(0.2, grid256))
        assert np.array_equal(perturbed.p2, base.p2)
        assert not np.array_equal(perturbed.p1, base.p1)
