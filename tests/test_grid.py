import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muskat import SpectralGrid, is_conjugate_symmetric
from muskat.grid import block_sums
from muskat.errors import InvalidCutoffError, SizeMismatchError, UndefinedRadiusError


def random_real(grid, seed=0, band=20, decay=0.2):
    rng = np.random.default_rng(seed)
    c = np.zeros(grid.n_modes, dtype=complex)
    for m in range(1, band + 1):
        c[m] = (rng.normal() + 1j * rng.normal()) * np.exp(-decay * m)
        c[-m] = np.conj(c[m])
    c[0] = rng.normal()
    return grid.from_spectral(c).real


class TestTransforms:
    def test_constant_is_mean_mode(self):
        grid = SpectralGrid(64)
        c = grid.to_spectral(np.ones(64))
        assert abs(c[0] - 1.0) < 1e-14
        assert np.abs(c[1:]).max() < 1e-14

    def test_single_mode(self):
        grid = SpectralGrid(64)
        c = grid.to_spectral(np.exp(1j * grid.nodes))
        assert abs(c[1] - 1.0) < 1e-14
        c[1] = 0.0
        assert np.abs(c).max() < 1e-14

    def test_parseval(self):
        grid = SpectralGrid(256)
        g = random_real(grid, seed=3)
        c = grid.to_spectral(g)
        lhs = np.abs(c) ** 2
        rhs = (np.abs(g) ** 2).sum() / grid.n_modes
        assert abs(lhs.sum() - rhs) <= 1e-12 * rhs

    @pytest.mark.parametrize("n", [64, 128, 256, 512, 1024, 2048])
    def test_round_trip_all_sizes(self, n):
        grid = SpectralGrid(n)
        g = random_real(grid, seed=n)
        back = grid.from_spectral(grid.to_spectral(g))
        assert np.abs(back - g).max() <= 1e-12 * max(1.0, np.abs(g).max())

    def test_length_mismatch(self):
        grid = SpectralGrid(64)
        with pytest.raises(SizeMismatchError):
            grid.to_spectral(np.ones(32))

    def test_real_input_conjugate_symmetric(self):
        grid = SpectralGrid(128)
        c = grid.to_spectral(random_real(grid, seed=9))
        assert is_conjugate_symmetric(c, tol=1e-12)

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            SpectralGrid(100)


class TestProjection:
    def test_mode_above_cutoff_killed(self):
        grid = SpectralGrid(64)
        c = grid.to_spectral(np.exp(5j * grid.nodes))
        out = grid.project_modes(c, 4)
        assert np.abs(out).max() < 1e-14

    def test_mode_below_cutoff_kept(self):
        grid = SpectralGrid(64)
        c = grid.to_spectral(np.exp(3j * grid.nodes))
        out = grid.project_modes(c, 4)
        assert np.abs(out - c).max() < 1e-14

    def test_idempotent(self):
        grid = SpectralGrid(128)
        c = grid.to_spectral(random_real(grid, seed=1))
        once = grid.project_modes(c, 20)
        assert np.array_equal(once, grid.project_modes(once, 20))

    def test_stack_matches_row_by_row(self):
        from muskat import conjugate_symmetrize

        grid = SpectralGrid(64)
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
        for op in (lambda c: grid.project_modes(c, 10), conjugate_symmetrize):
            together = op(stack)
            for row, values in zip(stack, together):
                assert np.array_equal(values, op(row))

    def test_invalid_cutoff(self):
        grid = SpectralGrid(64)
        with pytest.raises(InvalidCutoffError):
            grid.project_modes(np.zeros(64, complex), 33)

    def test_commutes_with_multipliers(self):
        grid = SpectralGrid(128)
        c = grid.to_spectral(random_real(grid, seed=5))
        for op in (lambda a: grid.derivative(a, 2), grid.lambda_op):
            left = grid.project_modes(op(c), 15)
            right = op(grid.project_modes(c, 15))
            assert np.abs(left - right).max() < 1e-13


class TestDerivative:
    def test_cos_to_minus_sin(self):
        grid = SpectralGrid(64)
        d = grid.from_spectral(grid.derivative(grid.to_spectral(np.cos(grid.nodes))))
        assert np.abs(d - (-np.sin(grid.nodes))).max() < 1e-13

    def test_fourth_derivative_of_mode(self):
        grid = SpectralGrid(64)
        mode = np.exp(2j * grid.nodes)
        d = grid.from_spectral(grid.derivative(grid.to_spectral(mode), 4))
        # k^4 amplifies FFT round-off in the silent modes
        assert np.abs(d - 16.0 * mode).max() < 1e-9

    def test_constant_derivative_zero(self):
        grid = SpectralGrid(64)
        d = grid.derivative(grid.to_spectral(np.full(64, 2.5)), 1)
        assert np.abs(d).max() < 1e-14

    def test_order_bounds(self):
        grid = SpectralGrid(64)
        with pytest.raises(ValueError):
            grid.derivative(np.zeros(64, complex), 9)


class TestLambdaAndHilbert:
    def test_lambda_on_cosine(self):
        grid = SpectralGrid(64)
        f = np.cos(3 * grid.nodes)
        out = grid.from_spectral(grid.lambda_op(grid.to_spectral(f)))
        assert np.abs(out - 3.0 * f).max() < 1e-13

    def test_lambda_kills_constant(self):
        grid = SpectralGrid(64)
        out = grid.lambda_op(grid.to_spectral(np.full(64, 4.0)))
        assert np.abs(out).max() < 1e-14

    def test_lambda_multiplier_action(self):
        grid = SpectralGrid(256)
        c = np.exp(-np.abs(grid.wavenumbers).astype(float))
        out = grid.lambda_op(c)
        expected = np.abs(grid.wavenumbers) * c
        assert np.abs(out - expected).max() < 1e-14

    def test_hilbert_cos_sin(self):
        grid = SpectralGrid(64)
        x = grid.nodes
        h_cos = grid.from_spectral(grid.hilbert(grid.to_spectral(np.cos(x))))
        h_sin = grid.from_spectral(grid.hilbert(grid.to_spectral(np.sin(x))))
        assert np.abs(h_cos - np.sin(x)).max() < 1e-13
        assert np.abs(h_sin + np.cos(x)).max() < 1e-13

    def test_lambda_is_hilbert_of_derivative(self):
        grid = SpectralGrid(256)
        c = grid.to_spectral(random_real(grid, seed=11))
        assert np.abs(grid.lambda_op(c) - grid.hilbert(grid.derivative(c))).max() < 1e-10

    def test_lambda_positive_semidefinite(self):
        grid = SpectralGrid(256)
        for seed in range(5):
            g = random_real(grid, seed=seed)
            lam = grid.from_spectral(grid.lambda_op(grid.to_spectral(g)))
            assert grid.quadrature(g * lam).real >= -1e-10

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
    @settings(max_examples=25, deadline=None)
    def test_lambda_linear(self, k1, k2):
        grid = SpectralGrid(128)
        x = grid.nodes
        a = grid.to_spectral(np.cos(k1 * x))
        b = grid.to_spectral(np.sin(k2 * x))
        lhs = grid.lambda_op(a + 2.0 * b)
        rhs = grid.lambda_op(a) + 2.0 * grid.lambda_op(b)
        assert np.abs(lhs - rhs).max() < 1e-12


def quadratic_form_sides(grid, f_values, f_prime_values):
    """Both sides of the half-Laplacian quadratic-form identity."""
    c = grid.to_spectral(f_values)
    lam = grid.from_spectral(grid.lambda_op(c))
    lhs = grid.quadrature(np.conj(f_values) * lam).real
    x = grid.nodes
    diff = f_values[:, None] - f_values[None, :]
    s = np.sin((x[:, None] - x[None, :]) / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = np.abs(diff) ** 2 / s**2
    idx = np.arange(grid.n_modes)
    integrand[idx, idx] = 4.0 * np.abs(f_prime_values) ** 2
    rhs = integrand.sum() * grid.dx**2 / (8.0 * np.pi)
    return lhs, rhs


class TestQuadraticFormIdentity:
    def test_cosine(self):
        grid = SpectralGrid(1024)
        f = np.cos(grid.nodes)
        lhs, rhs = quadratic_form_sides(grid, f.astype(complex), -np.sin(grid.nodes))
        assert abs(lhs - np.pi) < 1e-10
        assert abs(lhs - rhs) <= 1e-6 * abs(lhs)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_smooth(self, seed):
        grid = SpectralGrid(1024)
        rng = np.random.default_rng(seed)
        c = np.zeros(grid.n_modes, dtype=complex)
        for m in range(1, 13):
            c[m] = (rng.normal() + 1j * rng.normal()) * np.exp(-0.25 * m)
            c[-m] = rng.normal() * np.exp(-0.25 * m)
        f = grid.from_spectral(c)
        fp = grid.from_spectral(grid.derivative(c))
        lhs, rhs = quadratic_form_sides(grid, f, fp)
        assert abs(lhs - rhs) <= 1e-6 * abs(lhs)


class TestPairQuadrature:
    @staticmethod
    def ones_sums(grid, per_block):
        """Block sums of the constant integrand 1, ``per_block(rows)`` times."""
        def sums(rows):
            values = np.ones((rows.stop - rows.start, grid.n_modes - rows.start))
            return [block_sums(values, values, 1.0)] * per_block(rows)
        return sums

    def test_the_consumer_sets_the_number_of_integrands(self):
        grid = SpectralGrid(128)
        totals = grid.pair_quadrature(self.ones_sums(grid, lambda rows: 2), float)
        assert len(totals) == 2
        for total in totals:
            assert np.allclose(total, 2.0 * np.pi, rtol=1e-14, atol=0.0)

    def test_blocks_that_yield_nothing_are_skipped(self):
        # as after a chord-arc failure: only the first block is summed, so
        # its rows see every column and the later rows its r1 columns
        grid = SpectralGrid(128)
        stops = []

        def first_block_only(rows):
            stops.append(rows.stop)
            return int(rows.start == 0)

        (total,) = grid.pair_quadrature(self.ones_sums(grid, first_block_only), float)
        r1 = stops[0]
        assert 1 < len(stops) and r1 < grid.n_modes
        assert np.allclose(total[:r1], 2.0 * np.pi, rtol=1e-14, atol=0.0)
        assert np.allclose(total[r1:], r1 * grid.dx, rtol=1e-14, atol=0.0)

    def test_a_block_yielding_another_number_of_integrands_raises(self):
        grid = SpectralGrid(128)
        sums = self.ones_sums(grid, lambda rows: 2 if rows.start == 0 else 1)
        with pytest.raises(ValueError):
            grid.pair_quadrature(sums, float)


class TestAnalyticityRadius:
    def test_pure_exponential_decay(self):
        grid = SpectralGrid(512)
        c = np.exp(-0.3 * np.abs(grid.wavenumbers).astype(float)) + 0j
        assert abs(grid.analyticity_radius(c, (8, 64)) - 0.3) < 1e-6

    def test_exponential_with_algebraic_prefactor(self):
        grid = SpectralGrid(512)
        k = np.abs(grid.wavenumbers).astype(float)
        c = np.zeros(grid.n_modes, dtype=complex)
        c[1:] = np.exp(-0.1 * k[1:]) / k[1:] ** 5
        assert abs(grid.analyticity_radius(c, (16, 96)) - 0.1) < 0.02

    def test_polynomial_decay_reports_zero(self):
        grid = SpectralGrid(512)
        k = np.abs(grid.wavenumbers).astype(float)
        c = np.zeros(grid.n_modes, dtype=complex)
        c[1:] = 1.0 / k[1:] ** 5
        assert grid.analyticity_radius(c, (16, 96)) <= 0.02

    def test_empty_band_raises(self):
        grid = SpectralGrid(512)
        with pytest.raises(UndefinedRadiusError):
            grid.analyticity_radius(np.zeros(512, dtype=complex), (16, 96))


class TestConjugateSymmetry:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetrize_projects_onto_real_functions(self, seed):
        from muskat import conjugate_symmetrize

        grid = SpectralGrid(64)
        rng = np.random.default_rng(seed)
        c = rng.normal(size=64) + 1j * rng.normal(size=64)
        sym = conjugate_symmetrize(c)
        # idempotent and real-valued on the grid
        assert np.abs(conjugate_symmetrize(sym) - sym).max() < 1e-12
        assert np.abs(grid.from_spectral(sym).imag).max() < 1e-12
