import numpy as np
import pytest

from muskat import InterfaceState, SpectralGrid, core, decomposition, rhs, rhs_d4_decomposition
from muskat.decomposition import SAFE_COEFFICIENTS

import symbolic_assembly as sym
from oracles import full_matrix_decomposition


def frozen_test_state(grid: SpectralGrid) -> InterfaceState:
    """The fixed state the decomposition is validated on."""
    x = grid.nodes
    return InterfaceState(
        grid.to_spectral(-0.08 * np.sin(x) + 0.03 * np.sin(2 * x)),
        grid.to_spectral(0.05 * np.sin(x) + 0.02 * np.cos(2 * x)),
    )


class TestDecompositionBasics:
    def test_flat_state_all_parts_zero(self, grid256):
        parts = rhs_d4_decomposition(InterfaceState.flat(grid256), grid256)
        for pair in (parts.dangerous, *parts.safe, parts.easy):
            assert np.abs(pair.d1).max() < 1e-9
            assert np.abs(pair.d2).max() < 1e-9

    def test_reassembly_is_exact_by_construction(self, grid256):
        parts = rhs_d4_decomposition(frozen_test_state(grid256), grid256)
        total = parts.reassembled()
        assert np.abs(total.d1 - parts.d4_rhs.d1).max() < 1e-9
        assert np.abs(total.d2 - parts.d4_rhs.d2).max() < 1e-9

    def test_one_workspace_and_one_chord_arc_check(self, grid256, monkeypatch):
        # the sweep also takes the chord-arc check, so one sweep is one check
        calls = {"build_workspace": 0, "pair_sweep": 0}

        def counted(name):
            inner = getattr(core, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in calls:
            wrapper = counted(name)
            for module in (core, decomposition):
                monkeypatch.setattr(module, name, wrapper)
        rhs_d4_decomposition(frozen_test_state(grid256), grid256)
        assert calls == {"build_workspace": 1, "pair_sweep": 1}

    def test_parts_match_full_matrix(self, grid256):
        state = frozen_test_state(grid256)
        swept = rhs_d4_decomposition(state, grid256)
        full = full_matrix_decomposition(state, grid256)
        for got, want in ((swept.dangerous, full.dangerous), *zip(swept.safe, full.safe)):
            for a, b in ((got.d1, want.d1), (got.d2, want.d2)):
                assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()

    def test_d4_rhs_is_fourth_derivative_of_rhs(self, grid256):
        state = frozen_test_state(grid256)
        parts = rhs_d4_decomposition(state, grid256)
        tendency = rhs(state, grid256)
        for got, coeffs in ((parts.d4_rhs.d1, tendency[0]), (parts.d4_rhs.d2, tendency[1])):
            assert np.array_equal(got, grid256.from_spectral(grid256.derivative(coeffs, 4)))

    def test_dangerous_matches_linearized_half_laplacian(self, grid256):
        # near-flat: Dangerous_2 ~ -2 pi Lambda(d^4 z2) to O(eps^2)
        eps = 1e-6
        state = InterfaceState(
            np.zeros(grid256.n_modes, dtype=complex),
            grid256.to_spectral(eps * np.cos(grid256.nodes)),
        )
        parts = rhs_d4_decomposition(state, grid256)
        d4_z2 = grid256.derivative(state.p2, 4)
        target = grid256.from_spectral(-2.0 * np.pi * grid256.lambda_op(d4_z2))
        scale = np.abs(target).max()
        assert np.abs(parts.dangerous.d2 - target).max() <= 1e-4 * scale

    def test_easy_magnitude_regression(self, grid256):
        # frozen at first computation: |easy| stays well below 10x the
        # distance of the state from flat (sup norm of the periodic parts)
        x = grid256.nodes
        state = InterfaceState(
            np.zeros(grid256.n_modes, dtype=complex),
            grid256.to_spectral(0.05 * np.sin(x)),
        )
        parts = rhs_d4_decomposition(state, grid256)
        easy_norm = grid256.norm_l2(parts.easy.d2)
        offset = np.abs(grid256.from_spectral(state.p2)).max()
        assert easy_norm <= 10.0 * offset


@pytest.fixture(scope="module")
def expansions():
    return {mu: sym.expansion_terms(mu) for mu in (1, 2)}


class TestSymbolicCrossCheck:
    """Independent assembly of the Leibniz expansion (test-only machinery)."""

    def test_exactly_one_dangerous_term(self, expansions):
        for mu in (1, 2):
            dangerous, safe, easy = sym.classify(expansions[mu])
            assert len(dangerous) == 1
            assert len(safe) >= 4
            assert len(easy) > 50

    def test_safe_coefficients_match_leibniz(self):
        assert SAFE_COEFFICIENTS == (4.0, -4.0, -4.0, 1.0, -1.0, -1.0)

    def test_termwise_assembly_reproduces_spectral_d4(self, grid256, expansions):
        state = frozen_test_state(grid256)
        tendency = rhs(state, grid256)
        for mu, coeffs in ((1, tendency[0]), (2, tendency[1])):
            spectral = grid256.from_spectral(grid256.derivative(coeffs, 4))
            assembled = sym.evaluate_terms(expansions[mu], state, grid256)
            scale = np.abs(spectral).max()
            assert np.abs(assembled - spectral).max() <= 1e-5 * scale

    def test_dangerous_and_safe_parts_match_symbolically(self, grid256, expansions):
        state = frozen_test_state(grid256)
        parts = rhs_d4_decomposition(state, grid256)
        for mu, dangerous_part, safe_parts in (
            (1, parts.dangerous.d1, [s.d1 for s in parts.safe]),
            (2, parts.dangerous.d2, [s.d2 for s in parts.safe]),
        ):
            dangerous_terms, safe_terms, _ = sym.classify(expansions[mu])
            d_sym = sym.evaluate_terms(dangerous_terms, state, grid256)
            s_sym = sym.evaluate_terms(safe_terms, state, grid256)
            assert np.abs(d_sym - dangerous_part).max() < 1e-10 * np.abs(d_sym).max()
            safe_total = sum(safe_parts)
            assert np.abs(s_sym - safe_total).max() < 1e-10 * max(np.abs(s_sym).max(), 1.0)

    def test_easy_assembly_matches_subtraction(self, grid256, expansions):
        state = frozen_test_state(grid256)
        parts = rhs_d4_decomposition(state, grid256)
        for mu, easy_sub in ((1, parts.easy.d1), (2, parts.easy.d2)):
            _, _, easy_terms = sym.classify(expansions[mu])
            assembled = sym.evaluate_terms(easy_terms, state, grid256)
            scale = np.abs(easy_sub).max()
            assert np.abs(assembled - easy_sub).max() <= 1e-6 * scale
