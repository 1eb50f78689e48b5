import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muskat import SpectralGrid
from muskat.grid import _BLOCK_BYTES, Block, _node_distance, difference, factor_tables, tiling
from muskat.errors import InvalidCutoffError, SizeMismatchError, UndefinedRadiusError

from oracles import is_conjugate_symmetric


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
        """Block sums of the constant integrand 1, ``per_block(block)`` times."""
        def sums(block):
            values = np.ones(block.shape)
            return [block.sums(values, values, 1.0)] * per_block(block)
        return sums

    def test_the_consumer_sets_the_number_of_integrands(self):
        grid = SpectralGrid(128)
        totals = grid.pair_quadrature(self.ones_sums(grid, lambda block: 2), float)
        assert len(totals) == 2
        for total in totals:
            assert np.allclose(total, 2.0 * np.pi, rtol=1e-14, atol=0.0)

    def test_blocks_that_yield_nothing_are_skipped(self):
        # as after a chord-arc failure: only the first block is summed, so
        # its rows see every column and the later rows its r1 columns
        grid = SpectralGrid(128)
        stops = []

        def first_block_only(block):
            stops.append(block.rows.stop)
            return int(block.rows.start == 0)

        (total,) = grid.pair_quadrature(self.ones_sums(grid, first_block_only), float)
        r1 = stops[0]
        assert 1 < len(stops) and r1 < grid.n_modes
        assert np.allclose(total[:r1], 2.0 * np.pi, rtol=1e-14, atol=0.0)
        assert np.allclose(total[r1:], r1 * grid.dx, rtol=1e-14, atol=0.0)

    def test_a_block_yielding_another_number_of_integrands_raises(self):
        grid = SpectralGrid(128)
        sums = self.ones_sums(grid, lambda block: 2 if block.rows.start == 0 else 1)
        with pytest.raises(ValueError):
            grid.pair_quadrature(sums, float)


def row_loop_layout(n: int, itemsize: int) -> list[tuple[int, int]]:
    """The row blocks (r0, r1) of the triangle sweep, as a loop over r0 forms them."""
    per_block = 64 * 1024 // itemsize
    layout, r0 = [], 0
    while r0 < n:
        r1 = min(n, r0 + max(1, per_block // (n - r0)))
        layout.append((r0, r1))
        r0 = r1
    return layout


class TestTiling:
    @pytest.mark.parametrize("itemsize", [8, 16], ids=["float", "complex"])
    def test_tiling_is_the_row_loop_layout_bitwise(self, itemsize):
        # the cached blocks are the loop's, in its order, within the 64 KiB
        # budget per array; each distance is a read-only view of the O(N) table
        assert _BLOCK_BYTES == 64 * 1024
        for n in (4, 8, 16, 32, 64, 128, 256, 512, 1024):
            blocks = tiling(n, itemsize)
            assert [(b.rows.start, b.rows.stop) for b in blocks] == row_loop_layout(n, itemsize)
            table = _node_distance(n)
            for b in blocks:
                r0, r1 = b.rows.start, b.rows.stop
                assert (b.cols, b.tail) == (slice(r0, None), slice(r1, None))
                assert (b.width, b.shape, b.stride) == (r1 - r0, (r1 - r0, n - r0), n - r0 + 1)
                assert b.width * (n - r0) * itemsize <= _BLOCK_BYTES
                assert b.distance.tobytes() == table[:, b.rows, b.cols].tobytes()
                assert np.shares_memory(b.distance, table) and not b.distance.flags.writeable

    @pytest.mark.parametrize("itemsize", [8, 16], ids=["float", "complex"])
    @pytest.mark.parametrize("n", [4, 64, 128, 1024])
    def test_tiling_covers_every_pair_once(self, n, itemsize):
        # a diagonal sub-block holds its rows' pairs in both orders and the
        # diagonal; every other pair i < j lies in one block's tail, and its
        # mirror j > i enters through that block's column sums
        diagonal, beyond = np.zeros((2, n, n), dtype=int)
        for b in tiling(n, itemsize):
            diagonal[b.rows, b.rows] += 1
            beyond[b.rows, b.tail] += 1
        assert not np.tril(beyond).any()
        assert (diagonal + beyond + beyond.T == 1).all()

    def test_tiling_is_cached_shared_and_immutable(self):
        grid = SpectralGrid(128)
        blocks = tiling(128, 8)
        assert tiling(128, 8) is blocks and tiling(128, 16) is not blocks
        seen = []
        grid.pair_quadrature(lambda block: seen.append(block) or (), float)
        assert len(seen) == len(blocks) and all(a is b for a, b in zip(seen, blocks))
        with pytest.raises(AttributeError):
            blocks[0].width = 1


class TestBlock:
    # rows 3:7 against the columns 3:12, so the block starts off the origin
    N = 12

    @staticmethod
    def samples(dtype, seed):
        # small integers, so every sum below is exact in any order
        rng = np.random.default_rng(seed)
        x = rng.integers(-9, 10, size=TestBlock.N).astype(dtype)
        if dtype is complex:
            x += 1j * rng.integers(-9, 10, size=TestBlock.N)
        return x

    def test_layout(self):
        block = Block(slice(3, 7), self.N)
        assert block.width == 4 and block.shape == (4, 9)
        nodes = np.arange(self.N)
        assert list(nodes[block.rows]) == [3, 4, 5, 6]
        assert list(nodes[block.cols]) == list(range(3, 12))
        assert list(nodes[block.tail]) == list(range(7, 12))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_diff_and_outer_match_index_loops(self, dtype):
        # the difference x_i - x_j is the factor-table term difference(x),
        # the outer product a_i b_j the term ([a, 0], [b, 0])
        block = Block(slice(3, 7), self.N)
        x, y = self.samples(dtype, 1), self.samples(dtype, 2)
        zero = np.zeros_like(x)
        diff, outer = block.product(*factor_tables(difference(x), ([x, zero], [y, zero])))
        for i in range(3, 7):
            for j in range(3, self.N):
                assert diff[i - 3, j - 3] == x[i] - x[j]
                assert outer[i - 3, j - 3] == x[i] * y[j]

    def test_products_of_factor_tables_match_the_broadcasts_bitwise(self):
        # random float64 over all exponents, subnormals, +-0.0 and repeats;
        # the one difference is a zero's sign: BLAS sums from +0.0, so the
        # broadcast's -0.0 - (+0.0) = -0.0 comes out +0.0.  A complex f
        # (lambda_gamma's F') enters as the differences of its real and
        # imaginary parts, two real terms, which make up the complex
        # broadcast difference
        n = 300
        rng = np.random.default_rng(5)

        def floats():
            x = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 2.0, n) * 2.0 ** rng.integers(-1070, 1020, n)
            x[rng.choice(n, 40, replace=False)] = rng.choice([0.0, -0.0, 1.5, -1.5, 5e-324], 40)
            return x

        x, f = floats(), np.empty(n, complex)
        f.real, f.imag = floats(), floats()
        # positive factors whose products neither overflow nor all stay normal
        a, b = rng.uniform(1.0, 2.0, (2, n)) * 2.0 ** rng.integers(-537, 511, (2, n))
        zero = np.zeros(n)
        left, right = factor_tables(difference(x), ([a, zero], [b, zero]),
                                    difference(f.real), difference(f.imag))
        for rows in (slice(0, 13), slice(101, 140), slice(250, 300)):
            block = Block(rows, n)
            diff, outer, f_re, f_im = block.product(left, right)
            for got, y in ((diff, x), (f_re, f.real), (f_im, f.imag)):
                want = y[rows, None] - y[None, block.cols]
                signed_zero = (y[rows, None] == 0) & (y[None, block.cols] == 0)
                assert np.array_equal(got, want)
                assert got[~signed_zero].tobytes() == want[~signed_zero].tobytes()
                assert not np.signbit(got[signed_zero]).any()
            f_diff = np.empty(block.shape, complex)
            f_diff.real, f_diff.imag = f_re, f_im
            assert np.array_equal(f_diff, f[rows, None] - f[None, block.cols])
            assert outer.tobytes() == (a[rows, None] * b[None, block.cols]).tobytes()
            out = np.empty((4, *block.shape))
            assert block.product(left, right, out=out) is out

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_sums_match_index_loops(self, dtype):
        block = Block(slice(3, 7), self.N)
        rng = np.random.default_rng(3)
        values = rng.integers(-9, 10, size=block.shape).astype(dtype)
        mirror = rng.integers(-9, 10, size=block.shape).astype(dtype)
        diag = self.samples(dtype, 4)[block.rows]
        by_row, by_column = block.sums(values.copy(), mirror, diag)
        for i in range(3, 7):
            want = diag[i - 3] + sum(values[i - 3, j - 3] for j in range(3, self.N) if j != i)
            assert by_row[i - 3] == want
        assert by_column.shape == (self.N - 7,)
        for j in range(7, self.N):
            assert by_column[j - 7] == sum(mirror[i - 3, j - 3] for i in range(3, 7))

    def test_pair_matches_index_loop_and_serialises(self):
        block = Block(slice(3, 7), self.N)
        for k in range(block.shape[0] * block.shape[1]):
            i, j = block.pair(np.int64(k))
            assert (i, j) == (3 + k // 9, 3 + k % 9)
            assert type(i) is int and type(j) is int
        assert json.loads(json.dumps(block.pair(np.int64(10)))) == [4, 4]

    def test_buffers_take_the_block_shape_and_are_reused(self):
        first, second = Block(slice(0, 2), self.N), Block(slice(2, 5), self.N)
        a, b = first.buffers("test", 3, float), second.buffers("test", 3, float)
        assert a.shape == (3, *first.shape) and b.shape == (3, *second.shape)
        assert np.shares_memory(a, b)
        assert not any(np.shares_memory(a[k], a[m]) for k in range(3) for m in range(k))
        # one name's memory serves either dtype, and another name has its own
        c = first.buffers("test", 3, complex)
        assert c.dtype == complex and c.shape == (3, *first.shape) and np.shares_memory(a, c)
        assert not np.shares_memory(a, first.buffers("other", 3, float))


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
