import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

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
    lambda_gamma,
    pv_cot_integral,
    rhs,
    rhs_d4_decomposition,
    rt_generalized,
    stability,
)
from muskat.core import (
    DEFAULT_CHORD_ARC_FLOOR,
    _distance_sq,
    _node_distance,
    build_workspace,
    pair_sweep,
)
from muskat.errors import DegenerateGeometryError
from muskat.initial_data import GraphFamilyParams, make_turnover_state

from conftest import gentle_state, run_with_blas_threads, strip_state
from oracles import (
    alternating_rhs,
    full_kernel_pv_integral,
    full_matrix_decomposition,
    full_matrix_rhs,
    full_pairs,
    kernel,
    mpmath_pv_integral,
    mpmath_rhs,
)

FLAT_TORUS_CHORD_ARC = 2.0 / np.pi**2


def shift_state(state: InterfaceState, grid: SpectralGrid, s: float) -> InterfaceState:
    """Translate alpha -> alpha + s, z1 -> z1 + s (reparametrized translation)."""
    phase = np.exp(1j * grid.wavenumbers * s)
    return InterfaceState(state.p1 * phase, state.p2 * phase, state.time)


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
        for array in (ws.zeta, ws.z1, ws.z2, *ws.der.values()):
            assert array.dtype == np.float64
            assert array.shape == (grid256.n_modes,)

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
            assert np.array_equal(_distance_sq(ws.zeta, block.rows), want)
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
            assert block.q.nbytes <= 64 * 1024
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
        c = ws.exp_map[2]
        blocks = []

        def check(block):
            rows, cols = block.rows, block.cols
            dz1 = ws.z1[rows, None] - ws.z1[None, cols]
            dz2 = ws.z2[rows, None] - ws.z2[None, cols]
            direct = np.cosh(dz2) - np.cos(dz1)
            den = block.q * np.multiply(c[rows, None], c[None, cols])
            off = ~np.eye(*direct.shape, dtype=bool)
            assert (np.abs(den - direct)[off] <= 1e-12 * np.abs(direct[off])).all()
            blocks.append(block.rows)
            return ()

        pair_sweep(ws, grid, check)
        assert len(blocks) > 1

    def test_threads_keep_their_own_block_buffers(self):
        # each thread reuses its own block arrays; six threads on two cores
        # with a short switch interval would clobber shared ones
        grids = [SpectralGrid(n) for n in (128, 256, 512) for _ in range(2)]
        states = [strip_state(g, width) for g, width in zip(grids, (0.2, 0.3) * 3)]
        serial = [rhs(state, g) for state, g in zip(states, grids)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(grids)) as pool:
                futures = [pool.submit(lambda s, g: [rhs(s, g) for _ in range(5)], state, g)
                           for state, g in zip(states, grids)]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for want, runs in zip(serial, results):
            for got in runs:
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_transcendentals_have_exact_parity(self):
        # the sweep takes each pair's mirror from the pair: sin and sinh must
        # be exactly odd and cos exactly even, for real and complex arguments
        rng = np.random.default_rng(2012)
        real = rng.uniform(-12.0, 12.0, 10**6)
        values = (real, real + 1j * rng.uniform(-2.0, 2.0, 10**6))
        for x in values:
            assert np.array_equal(np.sin(-x), -np.sin(x))
            assert np.array_equal(np.sinh(-x), -np.sinh(x))
            assert np.array_equal(np.cos(-x), np.cos(x))

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


def _lifted_mode(grid: SpectralGrid):
    contour = LiftedContour.from_height(grid, np.full(grid.n_modes, 0.5))
    mode = np.exp(4j * contour.complex_nodes(grid))
    return mode, 4j * mode, contour, grid


class TestPairQuadratureMemory:
    # one N x N complex array at N = 1024 is 16 MiB; every pair sum keeps
    # its arrays block-sized, and the distance cache is O(N)
    @pytest.mark.parametrize("evaluate", [
        lambda grid: rhs(gentle_state(grid), grid),
        lambda grid: chord_arc_constant(gentle_state(grid), grid),
        lambda grid: a_tilde(gentle_state(grid), grid),
        lambda grid: rhs_d4_decomposition(gentle_state(grid), grid),
        lambda grid: pv_cot_integral(grid),
        lambda grid: pv_cot_integral(grid, _lifted_mode(grid)[2]),
        lambda grid: lambda_gamma(*_lifted_mode(grid)),
    ], ids=["rhs", "chord_arc", "a_tilde", "decomposition", "pv_flat", "pv_lifted",
            "lambda_gamma"])
    def test_first_call_peak_below_two_mib_at_n1024(self, evaluate):
        grid = SpectralGrid(1024)
        _node_distance.cache_clear()
        tracemalloc.start()
        try:
            evaluate(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


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
        # rerun in fresh processes with one and two BLAS threads: identical bytes
        script = (
            "import sys; from muskat import SpectralGrid, rhs; "
            "from conftest import gentle_state; g = SpectralGrid(256); "
            "t = rhs(gentle_state(g), g); "
            "sys.stdout.write((t[0].tobytes() + t[1].tobytes()).hex())"
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

    @pytest.mark.parametrize("lifted, bound", [(False, 2e-14), (True, 4e-14)],
                             ids=["flat", "upper"])
    def test_matches_mpmath_trapezoid(self, lifted, bound):
        # the same trapezoid summed at 30 digits from the same float64
        # samples: an accuracy pin, not agreement with a float64 oracle of
        # the same formula.  The half-angle K and cotangent measure 5.9e-15
        # (flat) and 2.4e-14 (upper); the exp-map K with a table or W-form
        # cotangent 1.0e-13 and 6.7e-14
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
