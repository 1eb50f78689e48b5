import mpmath
import numpy as np
import pytest

from muskat import LiftedContour, SpectralGrid, garding_form, lambda_gamma, pv_cot_integral
from muskat.contour_ops import _cot_denominator, _sin_modulus, pairwise_cot
from muskat.errors import InvalidContourError, SizeMismatchError
from muskat.grid import Block, difference, factor_tables

from oracles import full_lambda_gamma, full_pv_cot_integral

# Empirical Garding floor, frozen from the first N=256 measurement; the same
# constant must bound the N=512 runs.
GARDING_C0 = 1e-6


def make_contour(grid, label):
    x = grid.nodes
    heights = {
        "constant": np.full(grid.n_modes, 0.5),
        "cosine": 0.4 + 0.05 * np.cos(x),
        "two_mode": 0.3 + 0.1 * np.sin(2 * x),
    }[label]
    return LiftedContour.from_height(grid, heights)


def half_differences(zeta, block):
    """A block's half differences a of Re zeta and b of Im zeta (None on real nodes), from factor tables."""
    parts = (zeta.real, zeta.imag) if np.iscomplexobj(zeta) else (zeta,)
    halves = list(block.product(*factor_tables(*(difference(0.5 * x) for x in parts))))
    return halves + [None] * (2 - len(halves))


class TestLiftedContour:
    def test_rejects_nonpositive_height(self):
        grid = SpectralGrid(64)
        with pytest.raises(InvalidContourError):
            LiftedContour.from_height(grid, 0.1 * np.cos(grid.nodes))

    def test_rejects_nonfinite_height(self):
        h = np.full(64, 0.4)
        h[5] = np.nan
        with pytest.raises(InvalidContourError):
            LiftedContour(h, +1)

    def test_from_height_checks_length_against_grid(self):
        with pytest.raises(SizeMismatchError):
            LiftedContour.from_height(SpectralGrid(64), np.full(128, 0.4))

    def test_derivative_consistency(self):
        # h = 0.4 + 0.05 cos x: h' = -0.05 sin x, h'' = -0.05 cos x
        grid = SpectralGrid(128)
        contour = make_contour(grid, "cosine")
        assert np.abs(contour.h_prime - (-0.05 * np.sin(grid.nodes))).max() < 1e-8
        assert np.abs(contour.h_second - (-0.05 * np.cos(grid.nodes))).max() < 1e-8


    def test_with_sign_mirrors_without_deriving_again(self):
        grid = SpectralGrid(64)
        upper = make_contour(grid, "two_mode")
        lower = upper.with_sign(-1)
        assert upper.with_sign(+1) is upper and (upper.sign, lower.sign) == (1, -1)
        assert lower.h is upper.h
        assert lower.h_prime is upper.h_prime and lower.h_second is upper.h_second
        fresh = LiftedContour(upper.h, -1)
        assert np.array_equal(lower.complex_nodes(grid), fresh.complex_nodes(grid))
        assert np.array_equal(lower.jacobian(), fresh.jacobian())
        with pytest.raises(InvalidContourError):
            upper.with_sign(0)


class TestPrincipalValue:
    def test_vanishes_on_torus(self):
        grid = SpectralGrid(256)
        assert np.abs(pv_cot_integral(grid)).max() <= 1e-8

    @pytest.mark.parametrize("label", ["constant", "cosine", "two_mode"])
    def test_vanishes_on_lifted_contours(self, label):
        grid = SpectralGrid(256)
        contour = make_contour(grid, label)
        assert np.abs(pv_cot_integral(grid, contour)).max() <= 1e-8

    def test_vanishes_on_lower_contour(self):
        grid = SpectralGrid(256)
        x = grid.nodes
        contour = LiftedContour.from_height(grid, 0.4 + 0.05 * np.cos(x), sign=-1)
        assert np.abs(pv_cot_integral(grid, contour)).max() <= 1e-8


class TestLambdaGamma:
    def test_constant_height_reduction(self):
        grid = SpectralGrid(256)
        contour = make_contour(grid, "constant")
        zeta = contour.complex_nodes(grid)
        mode = np.exp(4j * zeta)
        out = lambda_gamma(mode, 4j * mode, contour, grid)
        assert np.abs(out - 4.0 * mode).max() <= 1e-8

    def test_constant_function_maps_to_zero(self):
        grid = SpectralGrid(256)
        contour = make_contour(grid, "constant")
        out = lambda_gamma(np.ones(256, complex), np.zeros(256, complex), contour, grid)
        assert np.abs(out).max() < 1e-14

    def test_negative_mode_derivative_identity(self):
        # For e^{-i6 zeta} the lower-contour trace is exponentially small,
        # so L_Gamma F should coincide with iF' up to that small error.
        grid = SpectralGrid(256)
        contour = make_contour(grid, "cosine")
        zeta = contour.complex_nodes(grid)
        mode = np.exp(-6j * zeta)
        prime = -6j * mode
        out = lambda_gamma(mode, prime, contour, grid)
        norm = grid.norm_l2(mode)
        assert grid.norm_l2(out - 1j * prime) <= 0.05 * norm

    def test_flat_lambda_comparison_residual_uniform_in_k(self):
        # residual of L_Gamma F = (1+ih')^{-1} Lambda f_+ stays bounded
        # relative to ||f_+|| while ||Lambda f_+|| grows like k
        grid = SpectralGrid(256)
        contour = make_contour(grid, "cosine")
        zeta = contour.complex_nodes(grid)
        jac = contour.jacobian()
        residuals = []
        main_terms = []
        for k in range(1, 33):
            mode = np.exp(1j * k * zeta)
            scale = grid.norm_l2(mode)
            mode = mode / scale
            out = lambda_gamma(mode, 1j * k * mode, contour, grid)
            lam = grid.from_spectral(grid.lambda_op(grid.to_spectral(mode)))
            residuals.append(grid.norm_l2(out - lam / jac))
            main_terms.append(grid.norm_l2(lam))
        residuals = np.array(residuals)
        main_terms = np.array(main_terms)
        assert np.all(residuals / residuals[0] <= 10.0)
        assert main_terms[-1] / main_terms[0] > 16.0  # ~k growth


class TestSinModulus:
    # the lifted chord-arc guard's |sin(a + ib)| = sqrt(den / (1 + T^2)),
    # read from the cotangent's denominator, on a lifted curve: real part
    # x + 0.3 sin x, whose half differences reach past +-pi/2, where T = tan a
    # crosses its pole, and an imaginary part of the size of the schedule's
    # heights
    @staticmethod
    def modulus(n_modes: int, rows: slice):
        x = SpectralGrid(n_modes).nodes
        zeta = x + 0.3 * np.sin(x) + 1j * (0.4 * np.sin(x) + 0.1 * np.cos(3 * x))
        block = Block(rows, n_modes)
        a, b = half_differences(zeta, block)
        den, scale, _, spare = _cot_denominator(np.tan(a), b, block)
        return zeta, _sin_modulus(den, scale, out=spare)

    @pytest.mark.parametrize("n_modes, blocks", [
        (64, [slice(0, 64)]), (512, [slice(0, 8), slice(256, 272)]),
    ], ids=["64", "512"])
    def test_matches_mpmath_elementwise(self, n_modes, blocks):
        # mpmath's |sin| of the same float64 half differences a + ib.
        # Measured 2.5e-16 relative
        for rows in blocks:
            zeta, got = self.modulus(n_modes, rows)
            half = (zeta[rows, None] - zeta[None, rows.start:]) / 2.0
            off_diagonal = half != 0.0
            with mpmath.workdps(30):
                want = np.array([float(abs(mpmath.sin(mpmath.mpmathify(complex(v)))))
                                 for v in half[off_diagonal]])
            assert (np.abs(got[off_diagonal] - want) / want).max() <= 1e-15

    def test_is_exactly_even(self):
        # the lifted ratio is exactly symmetric: T^2 and sinh^2 b are even
        modulus = self.modulus(64, slice(0, 64))[1]
        assert np.array_equal(modulus, modulus.T)


class TestPairwiseCot:
    # rows of the sweep's blocks: all of N = 64, and at N = 512 two blocks
    # whose rows meet every offset j - i from 0 to N - 1
    @pytest.mark.parametrize("n_modes, blocks", [
        (64, [slice(0, 64)]), (512, [slice(0, 8), slice(256, 272)]),
    ], ids=["64", "512"])
    @pytest.mark.parametrize("label", [None, "cosine"])
    def test_matches_mpmath_cot_elementwise(self, n_modes, blocks, label):
        # mpmath's cot of the same float64 half-differences: an accuracy pin,
        # independent of the oracle's formula.  Measured 2.2e-16 flat and
        # 3.6e-16 lifted from T = tan a (real sin and cos gave 2.2e-16 and
        # 4.3e-16, complex sin and cos 2.2e-16 and 4.5e-16)
        grid = SpectralGrid(n_modes)
        zeta = grid.nodes if label is None else make_contour(grid, label).complex_nodes(grid)
        for rows in blocks:
            block = Block(rows, n_modes)
            got = pairwise_cot(*half_differences(zeta, block), block)
            half = (zeta[rows, None] - zeta[None, rows.start:]) / 2.0
            off_diagonal = half != 0.0
            with mpmath.workdps(30):
                want = np.array([complex(mpmath.cot(mpmath.mpmathify(complex(v))))
                                 for v in half[off_diagonal]])
            assert np.abs(got[~off_diagonal]).max() == 0.0
            assert (np.abs(got[off_diagonal] - want) / np.abs(want)).max() <= 1e-15

    @pytest.mark.parametrize("label", ["constant", "cosine"])
    def test_lifted_is_exactly_odd(self, label):
        # the sweep takes the mirror -cot from the pair
        grid = SpectralGrid(64)
        block = Block(slice(0, 64), 64)
        full = pairwise_cot(*half_differences(make_contour(grid, label).complex_nodes(grid), block), block)
        assert np.array_equal(full, -full.T)


class TestMatchesFullMatrix:
    # N = 64 is a single block, which sums every row as the full matrix does;
    # beyond it the triangle sweep only reorders the sums
    @pytest.mark.parametrize("n_modes", [64, 128, 256, 512])
    @pytest.mark.parametrize("label", [None, "constant", "cosine"])
    def test_pv_cot_integral(self, n_modes, label):
        grid = SpectralGrid(n_modes)
        contour = None if label is None else make_contour(grid, label)
        got, want = pv_cot_integral(grid, contour), full_pv_cot_integral(grid, contour)
        if n_modes == 64:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("n_modes", [64, 128, 256, 512])
    @pytest.mark.parametrize("label", ["constant", "cosine"])
    def test_lambda_gamma(self, n_modes, label):
        grid = SpectralGrid(n_modes)
        contour = make_contour(grid, label)
        mode = np.exp(4j * contour.complex_nodes(grid))
        args = (mode, 4j * mode, contour, grid)
        got, want = lambda_gamma(*args), full_lambda_gamma(*args)
        if n_modes == 64:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max()


class TestGardingForm:
    def test_single_cosine_eigenvalue(self):
        grid = SpectralGrid(256)
        f = np.cos(2 * grid.nodes)
        value = garding_form(np.ones(256), np.zeros(256), f, grid)
        assert abs(value - 2.0 * np.pi) < 1e-10

    def test_negative_mode_annihilated(self):
        grid = SpectralGrid(256)
        f = np.exp(-3j * grid.nodes)
        value = garding_form(np.ones(256), np.ones(256), f, grid)
        assert abs(value) < 1e-12

    def test_constant_nonnegative_coefficient(self):
        grid = SpectralGrid(256)
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = rng.normal(size=256) + 1j * rng.normal(size=256)
            value = garding_form(np.full(256, 0.7), np.zeros(256), f, grid)
            assert value >= -1e-10

    @pytest.mark.parametrize("n_modes", [256, 512])
    def test_frozen_garding_constant(self, n_modes):
        grid = SpectralGrid(n_modes)
        x = grid.nodes
        a = 0.5 + 0.1 * np.cos(x)
        b = 0.3 * np.sin(x)
        assert (a - np.abs(b)).min() > 0.0
        rng = np.random.default_rng(42)
        worst = np.inf
        for _ in range(200):
            c = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
            c[np.abs(grid.wavenumbers) > n_modes // 3] = 0.0
            f = grid.from_spectral(c)
            f = f / grid.norm_l2(f)
            worst = min(worst, garding_form(a, b, f, grid))
        assert worst >= -GARDING_C0
