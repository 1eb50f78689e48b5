import functools
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest

from muskat import (
    InterfaceState,
    LiftedContour,
    SpectralGrid,
    a_tilde,
    chord_arc_constant,
    evaluate_on_contour,
    galerkin_rhs,
    h4_distance,
    lambda_gamma,
    pv_cot_integral,
    rhs,
    rhs_d4_decomposition,
    rt_generalized,
    stability,
)
from muskat.core import (
    DEFAULT_CHORD_ARC_FLOOR,
    PairBlock,
    _distance_sq,
    _node_distance,
    _roots_of_unity,
    build_workspace,
    chord_arc_of,
    pair_sweep,
)
from muskat.contour_ops import _cot_denominator, _sin_modulus, pairwise_cot
from muskat.errors import DegenerateGeometryError, SizeMismatchError
from muskat.initial_data import GraphFamilyParams, make_turnover_state

from conftest import gentle_state, pool_like, run_with_blas_threads, strip_state
from oracles import (
    alternating_rhs,
    broadcast_geometry,
    exp_map_lifted_ratio,
    full_kernel_pv_integral,
    full_matrix_decomposition,
    full_matrix_rhs,
    full_pairs,
    kernel,
    mpmath_contour_samples,
    mpmath_pv_integral,
    mpmath_rhs,
    sampled,
)

FLAT_TORUS_CHORD_ARC = 2.0 / np.pi**2


def shift_state(state: InterfaceState, grid: SpectralGrid, s: float) -> InterfaceState:
    """Translate alpha -> alpha + s, z1 -> z1 + s (reparametrized translation)."""
    phase = np.exp(1j * grid.wavenumbers * s)
    return InterfaceState(state.p1 * phase, state.p2 * phase, state.time)


def assert_thread_invariant(calls):
    """Run each call on a thread of its own, five times, and match its serial result bitwise.

    The switch interval is short, so threads that shared their block
    arrays would clobber each other's.
    """
    serial = [call() for call in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(calls)) as pool:
            futures = [pool.submit(lambda call: [call() for _ in range(5)], call) for call in calls]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for want, runs in zip(serial, results):
        for got in runs:
            assert got.tobytes() == want.tobytes()


class TestInterfaceState:
    def test_construction_copies_its_inputs(self, grid256):
        p1 = grid256.to_spectral(0.1 * np.sin(grid256.nodes))
        p2 = grid256.to_spectral(0.2 * np.cos(grid256.nodes))
        state = InterfaceState(p1, p2)
        assert state.coeffs.shape == (2, grid256.n_modes)
        p1[1] += 1.0
        p2[1] += 1.0
        assert state.p1[1] != p1[1] and state.p2[1] != p2[1]

    def test_assigning_a_component_writes_its_row(self, grid256):
        state = gentle_state(grid256)
        before = state.p2.copy()
        state.p1 = np.ones(grid256.n_modes)
        state.p2 *= 2.0
        assert np.array_equal(state.coeffs[0], np.ones(grid256.n_modes))
        assert np.array_equal(state.coeffs[1], 2.0 * before)
        assert np.shares_memory(state.p1, state.coeffs)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="equal length"):
            InterfaceState(np.zeros(8, dtype=complex), np.zeros(16, dtype=complex))


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
        assert np.abs(tendency[0]).max() < 1e-10
        assert np.abs(tendency[1]).max() < 1e-10

    def test_vertical_shift_invariance(self, grid256):
        state = gentle_state(grid256)
        shifted = state.copy()
        shifted.p2[0] += 0.37
        ta = rhs(state, grid256)
        tb = rhs(shifted, grid256)
        assert np.abs(ta[0] - tb[0]).max() <= 1e-12
        assert np.abs(ta[1] - tb[1]).max() <= 1e-12

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
        rate = -(tendency[1, k] / state.p2[k]).real
        assert abs(rate - 2.0 * np.pi * k) <= 1e-4 * 2.0 * np.pi * k

    def test_near_flat_profile_matches_closed_form(self, grid256):
        eps = 1e-6
        x = grid256.nodes
        state = InterfaceState(
            np.zeros(grid256.n_modes, dtype=complex),
            grid256.to_spectral(eps * np.cos(x)),
        )
        d2 = grid256.from_spectral(rhs(state, grid256)[1]).real
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
        # np.trapezoid is numpy >= 2.0; pyproject declares numpy >= 1.24
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        value = trapezoid(integrand, u)
        assert abs(value - 2.0 * np.pi * np.cos(x0)) < 1e-6

    def test_spectral_self_convergence(self):
        results = {}
        for n in (64, 128, 256, 512):
            grid = SpectralGrid(n)
            state = strip_state(grid, width=0.3)
            tendency = rhs(state, grid)
            results[n] = grid.from_spectral(tendency[1])
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
        scale = np.abs(grid256.from_spectral(analytic[1])).max()
        for a, b in ((analytic[0], alternating[0]), (analytic[1], alternating[1])):
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
        for mu, coeffs in enumerate(tendency):
            values = grid.from_spectral(coeffs).real
            error = np.abs(values - golden[mu]).max() / np.abs(golden[mu]).max()
            assert error <= 1e-14


class TestKernelWorkspace:
    def test_flat_workspace_is_real(self, grid256):
        ws = build_workspace(gentle_state(grid256), grid256, max_order=6)
        for array in (ws.zeta, ws.z1, ws.z2, *ws.der.reshape(-1, grid256.n_modes)):
            assert array.dtype == np.float64
            assert array.shape == (grid256.n_modes,)

    def test_samples_are_the_transform_with_the_identity_parts(self, grid256):
        # der[k] = (d^k z1, d^k z2): z1's identity part at order 0, its slope at order 1
        state = gentle_state(grid256)
        der = build_workspace(state, grid256, max_order=6).der
        assert der.shape == (7, 2, grid256.n_modes)
        for k in range(7):
            assert np.array_equal(der[k], sampled(state, grid256, k))

    def test_flat_jacobian_is_ones(self, grid256):
        ws = build_workspace(gentle_state(grid256), grid256, max_order=1)
        assert ws.jac.dtype == np.float64
        assert (ws.jac == 1.0).all()

    def test_node_distance_is_a_cached_read_only_view_of_an_o_n_table(self):
        n = 64
        view = _node_distance(n)
        assert view.shape == (2, n, n)
        assert not view.flags.writeable
        assert _node_distance(n) is view
        root = view
        while getattr(root, "base", None) is not None:
            root = root.base
        assert root.size == 2 * (2 * n - 1)

    @pytest.mark.parametrize("lifted", [False, True], ids=["flat", "lifted"])
    def test_block_distance_is_exact(self, lifted):
        # (dx min(|i - j|, N - |i - j|) + |dh|)^2 off the diagonal, 1 on it;
        # at N = 128 either sweep takes more than one block
        grid = SpectralGrid(128)
        n = grid.n_modes
        heights = 0.15 + 0.03 * np.cos(grid.nodes) if lifted else np.zeros(n)
        contour = LiftedContour.from_height(grid, heights, -1) if lifted else None
        ws = build_workspace(gentle_state(grid), grid, contour, max_order=1)
        blocks = []

        def check(block):
            i = np.arange(block.rows.start, block.rows.stop)[:, None]
            j = np.arange(block.rows.start, n)[None, :]
            offset = np.abs(i - j)
            want = (grid.dx * np.minimum(offset, n - offset) + np.abs(heights[i] - heights[j])) ** 2
            want[i == j] = 1.0
            assert np.array_equal(_distance_sq(ws, block), want)
            blocks.append(block.rows)
            return ()

        pair_sweep(ws, grid, check)
        assert len(blocks) > 1

    @pytest.mark.parametrize("lifted", [False, True], ids=["flat", "lifted"])
    def test_blocks_tile_the_upper_triangle_within_the_budget(self, lifted):
        grid = SpectralGrid(1024)
        contour = LiftedContour.from_height(grid, np.full(grid.n_modes, 0.1)) if lifted else None
        ws = build_workspace(InterfaceState.flat(grid), grid, contour, max_order=1)
        covered = np.zeros((grid.n_modes, grid.n_modes), dtype=int)

        def record(block):
            assert (block.pv_terms[0] if lifted else block.q).nbytes <= 64 * 1024
            covered[block.rows, block.cols] += 1
            return ()

        pair_sweep(ws, grid, record)
        assert (covered[np.triu_indices(grid.n_modes)] == 1).all()

    def test_lifted_denominator_matches_cosh_minus_cos(self):
        # the direct form itself loses ~1e-16/dx^2 relative next to the
        # diagonal, so the grid stays coarse enough for it to hold 1e-12;
        # at N = 128 the complex sweep takes more than one block
        grid = SpectralGrid(128)
        contour = LiftedContour.from_height(grid, 0.15 + 0.03 * np.cos(grid.nodes))
        ws = build_workspace(gentle_state(grid), grid, contour, max_order=1)
        blocks = []

        def check(block):
            rows, cols = block.rows, block.cols
            dz1 = ws.z1[rows, None] - ws.z1[None, cols]
            dz2 = ws.z2[rows, None] - ws.z2[None, cols]
            direct = np.abs(np.cosh(dz2) - np.cos(dz1))
            # the ratio is 2 |sin(dZ+/2)| |sin(dZ-/2)| / distance^2
            den = block.ratio * _distance_sq(ws, block)
            off = ~np.eye(*direct.shape, dtype=bool)
            assert (np.abs(den - direct)[off] <= 1e-12 * direct[off]).all()
            blocks.append(block.rows)
            return ()

        pair_sweep(ws, grid, check)
        assert len(blocks) > 1

    def test_threads_keep_their_own_block_buffers(self):
        # each thread reuses its own block arrays; six threads on two cores
        # with a short switch interval would clobber shared ones
        grids = [SpectralGrid(n) for n in (128, 256, 512) for _ in range(2)]
        states = [strip_state(g, width) for g, width in zip(grids, (0.2, 0.3) * 3)]
        assert_thread_invariant([functools.partial(rhs, s, g) for s, g in zip(states, grids)])

    def test_threads_keep_their_own_lifted_block_buffers(self):
        # a lifted block's cotangents and ratio live while its sums run,
        # beside the thread's own sampler and sum arrays
        grids = [SpectralGrid(n) for n in (128, 256, 512) for _ in range(2)]
        calls = []
        for g, sign in zip(grids, (1, -1) * 3):
            contour = LiftedContour.from_height(g, 0.15 + 0.03 * np.cos(g.nodes), sign)
            calls.append(functools.partial(a_tilde, gentle_state(g), g, contour))
        assert_thread_invariant(calls)

    def test_transcendentals_have_exact_parity(self):
        # the sweep takes each pair's mirror from the pair: sin, sinh and
        # tan must be exactly odd and cos and cosh exactly even, for real and
        # complex arguments
        rng = np.random.default_rng(2012)
        real = rng.uniform(-12.0, 12.0, 10**6)
        values = (real, real + 1j * rng.uniform(-2.0, 2.0, 10**6))
        for x in values:
            assert np.array_equal(np.tan(-x), -np.tan(x))
            assert np.array_equal(np.sin(-x), -np.sin(x))
            assert np.array_equal(np.sinh(-x), -np.sinh(x))
            assert np.array_equal(np.cos(-x), np.cos(x))
            assert np.array_equal(np.cosh(-x), np.cosh(x))

    @pytest.mark.parametrize("lifted", [False, True], ids=["flat", "lifted"])
    def test_half_angle_kernel_is_exactly_odd(self, lifted):
        # the PV integral takes the mirror -K from the pair; K is the mean of
        # the cotangents of the half differences of z1 +- i z2, Re cot on
        # the flat grid, each from real tan, sinh and cosh
        grid = SpectralGrid(64)
        contour = (LiftedContour.from_height(grid, 0.15 + 0.03 * np.cos(grid.nodes))
                   if lifted else None)
        ws = build_workspace(gentle_state(grid), grid, contour, 1)
        full = PairBlock(slice(0, 64), 64, ws).pv_terms[0]
        assert np.array_equal(full, -full.T)

    @pytest.mark.parametrize("n_modes", [64, 128, 256, 512, 1024])
    def test_flat_kernel_is_the_real_part_of_pairwise_cot(self, n_modes):
        # the flat K = T / den is formed in real arithmetic from the product's
        # half differences, by the operations of pairwise_cot's real part on
        # the broadcast ones, on every block of the sweep
        grid = SpectralGrid(n_modes)
        ws = build_workspace(gentle_state(grid), grid, None, 1)
        blocks = []

        def check(block):
            a, b = ((x[block.rows, None] - x[None, block.cols]) * 0.5 for x in (ws.z1, ws.z2))
            want = pairwise_cot(a, b, block).real
            assert block.pv_terms[0].tobytes() == want.tobytes()
            blocks.append(block.rows)
            return ()

        pair_sweep(ws, grid, check)
        assert blocks[-1].stop == n_modes

    @pytest.mark.parametrize("n_modes", [64, 128, 256, 512])
    def test_rhs_matches_full_matrix(self, n_modes):
        # the sweep takes K from e^{iZ} and sums each block by a matrix
        # product, so even the single block at N = 64 differs by round-off
        grid = SpectralGrid(n_modes)
        state = gentle_state(grid)
        swept, full = rhs(state, grid), full_matrix_rhs(state, grid)
        for got, want in ((swept[0], full[0]), (swept[1], full[1])):
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_pv_integral_matches_full_matrix(self, monkeypatch):
        grid = SpectralGrid(256)
        state = gentle_state(grid)
        heights = 0.15 + 0.03 * np.cos(grid.nodes)
        h_t = 0.1 * np.sin(grid.nodes)
        upper = LiftedContour.from_height(grid, heights)
        contours = (None, upper, LiftedContour.from_height(grid, heights, -1))
        swept = [a_tilde(state, grid, contour) for contour in contours]
        swept.append(rt_generalized(state, grid, upper, h_t))
        full = [full_kernel_pv_integral(build_workspace(state, grid, contour), grid)
                for contour in contours]
        monkeypatch.setattr(stability, "kernel_pv_integral", full_kernel_pv_integral)
        full.append(rt_generalized(state, grid, upper, h_t))
        for got, want in zip(swept, full):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestNearChordArcFloor:
    # slope amplitude 3.35 folds the turnover family over until two arcs come
    # within a chord-arc constant of about 3e-4 of each other, 3x the floor
    @staticmethod
    def near_contact(n_modes: int):
        grid = SpectralGrid(n_modes)
        state = make_turnover_state(GraphFamilyParams(slope_amplitude=3.35), grid)
        chord_arc = chord_arc_constant(state, grid)
        assert DEFAULT_CHORD_ARC_FLOOR < chord_arc < 10 * DEFAULT_CHORD_ARC_FLOOR
        return grid, state, chord_arc

    @pytest.mark.parametrize("n_modes", [256, 512])
    def test_rhs_and_order_five_match_the_half_angle_oracle(self, n_modes):
        grid, state, _ = self.near_contact(n_modes)
        swept, full = rhs(state, grid), full_matrix_rhs(state, grid)
        dangerous = rhs_d4_decomposition(state, grid).dangerous
        oracle = full_matrix_decomposition(state, grid).dangerous
        for got, want in ((swept[0], full[0]), (swept[1], full[1]),
                          (dangerous.d1, oracle.d1), (dangerous.d2, oracle.d2)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n_modes", [256, 512])
    def test_reports_the_oracle_pair_just_below_the_floor(self, n_modes):
        grid, state, chord_arc = self.near_contact(n_modes)
        floor = 1.01 * chord_arc
        with pytest.raises(DegenerateGeometryError) as swept:
            rhs(state, grid, floor=floor)
        with pytest.raises(DegenerateGeometryError) as full:
            full_pairs(build_workspace(state, grid), floor)
        assert swept.value.pair == full.value.pair
        assert swept.value.ratio == pytest.approx(full.value.ratio, rel=1e-12)


def _lifted_pool(grid: SpectralGrid):
    state, contour = pool_like(grid, 0)
    return state, grid, contour


def _lifted_mode(grid: SpectralGrid):
    contour = LiftedContour.from_height(grid, np.full(grid.n_modes, 0.5))
    mode = np.exp(4j * contour.complex_nodes(grid))
    return mode, 4j * mode, contour, grid


def _traced_peak(evaluate) -> int:
    """Peak traced memory of ``evaluate()``, in bytes."""
    tracemalloc.start()
    try:
        evaluate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestPairQuadratureMemory:
    # one N x N complex array at N = 1024 is 16 MiB; every pair sum keeps
    # its arrays block-sized, the distance cache is O(N), and a lifted
    # workspace samples its nodes in blocks.  The lifted calls take the
    # band-limited pool-like state, whose samples stay finite at N = 1024
    @pytest.mark.parametrize("evaluate", [
        lambda grid: rhs(gentle_state(grid), grid),
        lambda grid: chord_arc_constant(gentle_state(grid), grid),
        lambda grid: a_tilde(gentle_state(grid), grid),
        lambda grid: rhs_d4_decomposition(gentle_state(grid), grid),
        lambda grid: pv_cot_integral(grid),
        lambda grid: pv_cot_integral(grid, _lifted_mode(grid)[2]),
        lambda grid: lambda_gamma(*_lifted_mode(grid)),
        lambda grid: a_tilde(*_lifted_pool(grid)),
        lambda grid: rt_generalized(*_lifted_pool(grid), np.zeros(grid.n_modes)),
        lambda grid: chord_arc_constant(*_lifted_pool(grid)),
        lambda grid: h4_distance(_lifted_pool(grid)[0], InterfaceState.flat(grid), grid,
                                 _lifted_pool(grid)[2]),
    ], ids=["rhs", "chord_arc", "a_tilde", "decomposition", "pv_flat", "pv_lifted",
            "lambda_gamma", "a_tilde_lifted", "rt_generalized", "chord_arc_lifted",
            "h4_distance_lifted"])
    def test_first_call_peak_below_two_mib_at_n1024(self, evaluate):
        grid = SpectralGrid(1024)
        # the pool-like state's first random draw imports numpy.random
        # (0.7 MiB of module objects), which is not the call's memory
        pool_like(grid, 0)
        _node_distance.cache_clear()
        assert _traced_peak(lambda: evaluate(grid)) < 2 * 2**20

    def test_six_row_stack_sample_peak_below_two_mib_at_n1024(self):
        # every mode live, where a phase matrix over all nodes is N x N
        # (16 MiB); in blocks of nodes the call peaks at 0.49 MiB
        grid = SpectralGrid(1024)
        rng = np.random.default_rng(1024)
        stack = (rng.normal(size=(6, 1024)) + 1j * rng.normal(size=(6, 1024))
                 ) * np.exp(-0.2 * np.abs(grid.wavenumbers))
        assert (stack != 0.0).all()
        contour = LiftedContour.from_height(grid, np.full(1024, 0.1))
        _roots_of_unity.cache_clear()
        assert _traced_peak(lambda: evaluate_on_contour(stack, grid, contour)) < 2 * 2**20


class TestRhsSymmetries:
    def test_reality(self, grid256):
        state = gentle_state(grid256)
        tendency = rhs(state, grid256)
        for c in tendency:
            values = grid256.from_spectral(c)
            assert np.abs(values.imag).max() <= 1e-10

    def test_oddness(self, grid256):
        x = grid256.nodes
        state = InterfaceState(
            grid256.to_spectral(-0.3 * np.sin(x)),
            grid256.to_spectral(0.4 * np.sin(x) + 0.1 * np.sin(2 * x)),
        )
        tendency = rhs(state, grid256)
        for c in tendency:
            values = grid256.from_spectral(c).real
            mirrored = np.concatenate([[values[0]], values[:0:-1]])
            assert np.abs(values + mirrored).max() <= 1e-10

    def test_translation_covariance(self, grid256):
        state = gentle_state(grid256)
        s = 2.0 * np.pi * 7 / grid256.n_modes  # grid-aligned shift
        ta = rhs(shift_state(state, grid256, s), grid256)
        tb = rhs(state, grid256)
        phase = np.exp(1j * grid256.wavenumbers * s)
        assert np.abs(ta[0] - tb[0] * phase).max() <= 1e-10
        assert np.abs(ta[1] - tb[1] * phase).max() <= 1e-10

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
            assert 0 <= i < j < grid256.n_modes
            assert err.value.ratio == ratio < 1e-2

    def test_blas_thread_count_invariance(self):
        # rerun in fresh processes with one and two BLAS threads: identical
        # bytes of rhs, of the decomposition's dangerous and six safe parts
        # and of the chord-arc constant with its pair, all formed by BLAS products
        script = (
            "import sys; import numpy as np; "
            "from muskat import SpectralGrid, rhs, rhs_d4_decomposition; "
            "from muskat.core import build_workspace, pair_sweep; "
            "from conftest import gentle_state; g = SpectralGrid(256); s = gentle_state(g); "
            "t = rhs(s, g); d = rhs_d4_decomposition(s, g); "
            "parts = [v for p in (d.dangerous, *d.safe) for v in (p.d1, p.d2)]; "
            "_, (ratio, pair) = pair_sweep(build_workspace(s, g, None, 1), g); "
            "sys.stdout.write(b''.join([t.tobytes(), *(v.tobytes() for v in parts), "
            "np.float64(ratio).tobytes(), np.array(pair).tobytes()]).hex())"
        )
        one = run_with_blas_threads(["-c", script], 1).stdout
        two = run_with_blas_threads(["-c", script], 2).stdout
        assert len(one) == 2 * (2 * 16 * 256 + 14 * 8 * 256 + 8 + 2 * 8)
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

    @pytest.mark.parametrize("lifted, bound", [(False, 2e-14), (True, 4e-14)],
                             ids=["flat", "upper"])
    def test_matches_mpmath_trapezoid(self, lifted, bound):
        # the same trapezoid summed at 30 digits from the same float64
        # samples: an accuracy pin, not agreement with a float64 oracle of
        # the same formula.  K as the mean of cot(dZ+-/2), Z+- = z1 +- i z2,
        # and the cotangent, all from T = tan a, measure 5.87e-15 (flat) and
        # 2.57e-14 (upper); the half-angle K = s c / (s^2 + sh^2) with sin
        # and cos from tan(a/2) 5.25e-15 and 2.56e-14; with sin and cos
        # 5.89e-15 (5.85e-15 with sin(dz1) in the numerator) and 2.5e-14;
        # the exp-map K with a table or W-form cotangent 1.0e-13 and 6.7e-14
        grid = SpectralGrid(128)
        contour = (LiftedContour.from_height(grid, 0.15 + 0.03 * np.cos(grid.nodes))
                   if lifted else None)
        state = gentle_state(grid)
        values = a_tilde(state, grid, contour)
        golden = mpmath_pv_integral(build_workspace(state, grid, contour, 2), grid)
        assert np.abs(values - golden).max() <= bound * np.abs(golden).max()

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

    @pytest.mark.parametrize("n_modes", [64, 128, 256, 512, 1024])
    def test_lifted_matches_the_exp_map_oracle(self, n_modes):
        # the lifted ratio 2 |sin(dZ+/2)| |sin(dZ-/2)| / d^2 reads the
        # denominators of K's cotangents; against the W+- exp-map form it
        # measures at most 7.2e-16 relative on these states (N = 64, seed 0,
        # upper), bound 2e-15
        grid = SpectralGrid(n_modes)
        for seed in range(3):
            state, contour = pool_like(grid, seed)
            for sign in (1, -1):
                lifted = LiftedContour(contour.h, sign)
                ws = build_workspace(state, grid, lifted, 1)
                want = min(exp_map_lifted_ratio(ws, slice(r0, r0 + 64)).min()
                           for r0 in range(0, n_modes, 64))
                assert abs(chord_arc_constant(state, grid, lifted) - want) <= 2e-15 * want

    def test_lifted_ratio_is_exactly_symmetric(self):
        # each |sin(dZ+-/2)| is exactly even, read from T^2 and sinh^2 b
        grid = SpectralGrid(64)
        state, contour = pool_like(grid, 0)
        ratios = []

        def record(block):
            ratios.append(block.ratio.copy())
            return ()

        pair_sweep(build_workspace(state, grid, contour, 1), grid, record)
        (ratio,) = ratios
        assert ratio.shape == (64, 64) and ratio.tobytes() == ratio.T.tobytes()

    @pytest.mark.parametrize("n_modes", [64, 128, 256, 512, 1024])
    @pytest.mark.parametrize("slope", [0.98, 3.35], ids=["turnover", "near_floor"])
    def test_guard_matches_the_broadcast_oracle_bitwise(self, n_modes, slope):
        # q and the ratio come from BLAS products of exact factor tables;
        # on every block they are the broadcast forms bit for bit, and so
        # are the minimum and its pair (slope 3.35 is TestNearChordArcFloor's state)
        grid = SpectralGrid(n_modes)
        state = make_turnover_state(GraphFamilyParams(slope_amplitude=slope), grid)
        ws = build_workspace(state, grid, None, 1)
        minima = []

        def check(block):
            q, ratio = broadcast_geometry(ws, block.rows)
            assert np.array_equal(block.q, q) and np.array_equal(block.ratio, ratio)
            k = np.argmin(ratio)
            minima.append((ratio.flat[k], block.pair(k)))
            return ()

        _, (chord_arc, pair) = pair_sweep(ws, grid, check)
        assert len(minima) > 1 or n_modes == 64
        want = minima[int(np.argmin([value for value, _ in minima]))]
        assert (chord_arc, pair) == (want[0], want[1])

    @pytest.mark.parametrize("n_modes", [64, 128, 256, 512, 1024])
    def test_lifted_half_differences_and_guard_match_the_broadcast_bitwise(self, n_modes):
        # one product of the workspace's factor tables gives a lifted block
        # every half difference, (x_i - x_j)/2 bit for bit up to a zero's
        # sign; the guard built on them is the one built on broadcast half
        # differences, 2 |sin(dZ-/2)| |sin(dZ+/2)| / distance^2, bit for bit,
        # and so are the chord-arc constant and its pair
        grid = SpectralGrid(n_modes)
        state, upper = pool_like(grid, 0)
        for contour in (upper, LiftedContour(upper.h, -1)):
            ws = build_workspace(state, grid, contour, 1)
            plus, minus = ws.z1 + 1j * ws.z2, ws.z1 - 1j * ws.z2
            parts = (plus.real, minus.real, plus.imag, minus.imag, ws.zeta.real, ws.zeta.imag)
            minima = []

            def check(block):
                halves = [(x[block.rows, None] - x[None, block.cols]) * 0.5 for x in parts]
                for got, want in zip(block.product(*ws.half_factors), halves):
                    nonzero = want != 0.0
                    assert np.array_equal(got, want)
                    assert got[nonzero].tobytes() == want[nonzero].tobytes()
                sins = []
                for re, im in ((halves[0], halves[2]), (halves[1], halves[3])):
                    den, scale, _, spare = _cot_denominator(np.tan(re), im, block)
                    sins.append(_sin_modulus(den, scale, out=spare))
                dist = _node_distance(n_modes)[0, block.rows, block.cols]
                ratio = sins[1] * (2.0 * sins[0]) / (dist + np.abs(2.0 * halves[5])) ** 2
                block.fill_diagonal(ratio, np.inf)
                assert block.ratio.tobytes() == ratio.tobytes()
                k = np.argmin(ratio)
                minima.append((ratio.flat[k], block.pair(k)))
                return ()

            _, (chord_arc, pair) = pair_sweep(ws, grid, check)
            assert len(minima) > 1 or n_modes == 64
            assert (chord_arc, pair) == min(minima, key=lambda entry: entry[0])

    def test_cached_distance_keeps_values_across_grid_sizes(self):
        grids = [SpectralGrid(n) for n in (64, 128, 64)]
        values = [chord_arc_constant(gentle_state(g), g) for g in grids]
        assert values[2] == values[0]


def decay_like(grid: SpectralGrid, seed: int) -> InterfaceState:
    """z2 = sum of modes 1-4 at the decay benchmark's amplitudes, phases drawn from ``seed``."""
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, 4)
    z2 = sum(a * np.cos((k + 1) * grid.nodes + phase)
             for k, (a, phase) in enumerate(zip((1e-2, 7.5e-3, 5e-3, 2e-3), phases)))
    return InterfaceState(np.zeros(grid.n_modes, dtype=complex), grid.to_spectral(z2))


class TestStageSample:
    @pytest.mark.parametrize("n_modes", [64, 128, 256, 512, 1024])
    def test_an_rhs_stage_sample_is_an_order_one_sample_bitwise(self, n_modes):
        # a run reads a state's monitors from the order-2 workspace an rhs
        # stage swept there: its slopes, sigma and the chord-arc constant
        # its sweep kept are those of an order-1 sample and its own sweep
        grid = SpectralGrid(n_modes)
        states = [make_turnover_state(GraphFamilyParams(slope_amplitude=slope), grid)
                  for slope in (0.98, 3.35)]
        states += [pool_like(grid, seed)[0] for seed in range(4)]
        states += [decay_like(grid, seed) for seed in range(3)]
        for state in states:
            state = InterfaceState(*grid.project_modes(state.coeffs, n_modes // 3))
            stage = build_workspace(state, grid, None, 2)
            rhs(state, grid, 0.0, stage)
            sample = build_workspace(state, grid, None, 1)
            assert stage.der[:2].tobytes() == sample.der.tobytes()
            assert stability.rt_sigma(stage).tobytes() == stability.rt_sigma(sample).tobytes()
            assert stage.chord_arc == chord_arc_of(sample, grid)

    def test_every_sweep_keeps_its_chord_arc_constant(self):
        grid = SpectralGrid(64)
        state = make_turnover_state(GraphFamilyParams(slope_amplitude=3.35), grid)
        ws = build_workspace(state, grid, None, 2)
        assert ws.chord_arc is None
        with pytest.raises(DegenerateGeometryError) as raised:
            rhs(state, grid, 1.0, ws)
        # kept on a sweep that raises too: the constant is the geometry's alone
        assert ws.chord_arc == (raised.value.ratio, raised.value.pair)
        assert chord_arc_of(ws, grid) == pair_sweep(build_workspace(state, grid, None, 1), grid)[1]


class TestContourEvaluation:
    def test_single_mode_exact(self, grid256):
        contour = LiftedContour.from_height(grid256, np.full(grid256.n_modes, 0.3))
        coeffs = np.zeros(grid256.n_modes, dtype=complex)
        coeffs[5] = 1.0
        values = evaluate_on_contour(coeffs, grid256, contour)
        zeta = contour.complex_nodes(grid256)
        assert np.abs(values - np.exp(5j * zeta)).max() < 1e-12

    @pytest.mark.parametrize("n_modes", [256, 1024])
    def test_phase_is_exact(self, n_modes):
        # e^{ik(x_j + ih)} at the exact nodes 2 pi j/N, k = N/2 - 1: the phase
        # table carries no rounding of k x_j, which cost 1.4e-13 (N = 256)
        # and 5.6e-13 (N = 1024) with the phase taken from the float nodes
        grid = SpectralGrid(n_modes)
        k = n_modes // 2 - 1
        contour = LiftedContour.from_height(grid, np.full(n_modes, 0.01))
        coeffs = np.zeros(n_modes, dtype=complex)
        coeffs[k] = 1.0
        values = evaluate_on_contour(coeffs, grid, contour)
        with mpmath.workdps(30):
            want = np.array([complex(mpmath.exp(1j * k * (2 * mpmath.pi * j / n_modes
                                                          + 1j * mpmath.mpf(0.01))))
                             for j in range(n_modes)])
        assert np.abs(values - want).max() <= 1e-14 * np.abs(want).max()

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

    @pytest.mark.parametrize("n_modes, stride", [(256, 7), (1024, 61)])
    @pytest.mark.parametrize("sign", [1, -1], ids=["upper", "lower"])
    def test_all_live_stack_matches_mpmath(self, n_modes, stride, sign):
        # six rows with every mode live, against the series summed at 30
        # digits on every stride-th node; the baby-step giant-step sampler
        # measured at most 8.2e-16 of a row's largest sample on every node at
        # N = 256 (1.6e-15 with one exponential per mode and node), bound 2e-15
        grid = SpectralGrid(n_modes)
        rng = np.random.default_rng(n_modes)
        stack = (rng.normal(size=(6, n_modes)) + 1j * rng.normal(size=(6, n_modes))
                 ) * np.exp(-0.2 * np.abs(grid.wavenumbers))
        contour = LiftedContour.from_height(grid, 0.1 + 0.03 * np.cos(grid.nodes), sign)
        nodes = np.arange(1, n_modes, stride)
        got = evaluate_on_contour(stack, grid, contour)[:, nodes]
        want = mpmath_contour_samples(stack, grid, contour, nodes)
        assert (np.abs(got - want).max(axis=1) <= 2e-15 * np.abs(want).max(axis=1)).all()

    def test_lifted_samples_blas_thread_count_invariance(self):
        # fresh processes with one and two BLAS threads: identical bytes of
        # the lifted samples of a pool-like state on both contours.  A
        # product over all nodes splits across two threads and moves them
        # by 1.5e-16 relative; a block's product stays on one thread
        script = (
            "import sys; from muskat import LiftedContour, SpectralGrid; "
            "from muskat.core import build_workspace; from conftest import pool_like; "
            "g = SpectralGrid(256); s, c = pool_like(g, 0); "
            "sys.stdout.write(b''.join(build_workspace(s, g, lifted, 2).der.tobytes() "
            "for lifted in (c, LiftedContour(c.h, -1))).hex())"
        )
        one = run_with_blas_threads(["-c", script], 1).stdout
        two = run_with_blas_threads(["-c", script], 2).stdout
        assert len(one) == 2 * 2 * 6 * 16 * 256
        assert one == two

    @pytest.mark.parametrize("n_contour", [32, 128], ids=["half", "double"])
    @pytest.mark.parametrize("evaluate", [
        lambda grid, contour: evaluate_on_contour(gentle_state(grid).coeffs, grid, contour),
        lambda grid, contour: h4_distance(gentle_state(grid), InterfaceState.flat(grid), grid,
                                          contour),
        lambda grid, contour: a_tilde(gentle_state(grid), grid, contour),
        lambda grid, contour: chord_arc_constant(gentle_state(grid), grid, contour),
        lambda grid, contour: rt_generalized(gentle_state(grid), grid, contour,
                                             np.zeros(grid.n_modes)),
        lambda grid, contour: pv_cot_integral(grid, contour),
        lambda grid, contour: lambda_gamma(np.ones(grid.n_modes, complex),
                                           np.zeros(grid.n_modes, complex), contour, grid),
    ], ids=["evaluate_on_contour", "h4_distance", "a_tilde", "chord_arc_constant",
            "rt_generalized", "pv_cot_integral", "lambda_gamma"])
    def test_contour_of_another_size_is_refused(self, evaluate, n_contour):
        # a contour of N/2 or 2N nodes on a 64-node grid: a 2N-node one
        # was read in part (h4_distance took its first N heights), the
        # others met numpy's bare broadcast error
        with pytest.raises(SizeMismatchError):
            evaluate(SpectralGrid(64), LiftedContour(np.full(n_contour, 0.1)))


class TestDensityPrefactor:
    def test_rescales_tendency_linearly(self, grid256):
        state = gentle_state(grid256)
        cutoff = grid256.n_modes // 3
        base = galerkin_rhs(state, grid256, cutoff)
        scaled = galerkin_rhs(state, grid256, cutoff, density_jump_over_2pi=2.5)
        assert np.abs(scaled[0] - 2.5 * base[0]).max() < 1e-14
        assert np.abs(scaled[1] - 2.5 * base[1]).max() < 1e-14

    def test_halved_density_halves_decay_rate(self, grid256):
        eps = 1e-6
        state = InterfaceState(
            np.zeros(grid256.n_modes, dtype=complex),
            grid256.to_spectral(eps * np.cos(grid256.nodes)),
        )
        tendency = galerkin_rhs(state, grid256, grid256.n_modes // 3, density_jump_over_2pi=0.5)
        rate = -(tendency[1, 1] / state.p2[1]).real
        assert abs(rate - np.pi) <= 1e-4 * np.pi
