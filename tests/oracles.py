"""Reference evaluations that only the test suite uses.

All are independent of the production quadrature: a pointwise kernel
value, the right-hand side by the alternating-node trapezoid, which skips
the diagonal instead of assigning it its analytic limit, the right-hand
side and the principal-value integral summed in extended precision, and
the full-matrix quadratures, which hold every pairwise array as one N x N
matrix and sum each row in one reduction, as the quadratures did before
the triangle sweep, and the contour sampler through one phase matrix, as
it was before it took its nodes in blocks.  The turnover indicator is the
exception: it reads min z1' from the production sampler, as the reference
that a diagnostics record, which shares one workspace among its monitors,
must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

from muskat import InterfaceState, LiftedContour, SpectralGrid, conjugate_symmetrize
from muskat.core import DEFAULT_CHORD_ARC_FLOOR, KernelWorkspace, build_workspace
from muskat.decomposition import SAFE_COEFFICIENTS, SAFE_TERMS, ComponentPair, D4Decomposition
from muskat.errors import DegenerateGeometryError


def is_conjugate_symmetric(coeffs: np.ndarray, tol: float = 1e-12) -> bool:
    """True if the coefficients describe a real grid function within tol."""
    coeffs = np.asarray(coeffs, dtype=complex)
    scale = max(np.abs(coeffs).max(), 1.0)
    return bool(np.abs(coeffs - conjugate_symmetrize(coeffs)).max() <= tol * scale)


def is_real(state: InterfaceState, tol: float = 1e-10) -> bool:
    """True if both coefficient rows of ``state`` describe real curves within tol."""
    return all(is_conjugate_symmetric(row, tol) for row in state.coeffs)


def sampled(state: InterfaceState, grid: SpectralGrid, order: int) -> np.ndarray:
    """(d^k z1, d^k z2) at the grid nodes as a real (2, N) array, k = ``order``.

    The real part of the transform, plus z1's identity part at order 0 and
    its slope 1 at order 1.  It does not call ``build_workspace``, so the
    oracles stay independent of the sampler they check.
    """
    coeffs = state.coeffs if order == 0 else grid.derivative(state.coeffs, order)
    values = grid.from_spectral(coeffs).real
    if order == 0:
        values[0] += grid.nodes
    elif order == 1:
        values[0] += 1.0
    return values


def turnover_indicator(state: InterfaceState, grid: SpectralGrid) -> float:
    """min over nodes of z1'; positive iff the sampled interface is a graph."""
    return float(build_workspace(state, grid, None, 1).der[1, 0].min())


def row_quadrature(grid: SpectralGrid, integrand: np.ndarray, diag) -> np.ndarray:
    """Trapezoid rule along each row of a pairwise N x N integrand.

    The removable diagonal is overwritten in place with its analytic limit
    ``diag`` before the rows are summed.
    """
    np.fill_diagonal(integrand, diag)
    return integrand.sum(axis=1) * grid.dx


def full_cot(zeta: np.ndarray) -> np.ndarray:
    """cot((zeta_i - zeta_j)/2) over all node pairs, diagonal 0, from T = tan a.

    With (zeta_i - zeta_j)/2 = a + ib, the forms of ``pairwise_cot``: 1/T
    for real nodes, and for complex ones
    cot(a + ib) = (T - i sinh b cosh b (1 + T^2)) / (T^2 + sinh^2 b (1 + T^2)),
    which ``TestPairwiseCot`` pins against mpmath.
    """
    half = (zeta[:, None] - zeta[None, :]) / 2.0
    tan_a = np.tan(half.real)
    if np.isrealobj(zeta):
        np.fill_diagonal(tan_a, np.inf)
        return 1.0 / tan_a
    t_sq = tan_a**2
    scale = 1.0 + t_sq
    sinh_b = np.sinh(half.imag)
    den = sinh_b**2 * scale + t_sq
    np.fill_diagonal(den, 1.0)
    return tan_a / den - 1j * (sinh_b * np.cosh(half.imag) * scale / den)


def full_pv_cot_integral(grid: SpectralGrid, contour: LiftedContour | None = None) -> np.ndarray:
    """``pv_cot_integral`` from full N x N matrices."""
    flat = full_cot(grid.nodes)
    if contour is None:
        return row_quadrature(grid, flat, 0.0)
    jac = contour.jacobian()
    integrand = full_cot(contour.complex_nodes(grid)) * jac[None, :] - flat
    return row_quadrature(grid, integrand, -1j * contour.sign * contour.h_second / jac)


def full_lambda_gamma(
    f_samples: np.ndarray,
    f_prime_samples: np.ndarray,
    contour: LiftedContour,
    grid: SpectralGrid,
) -> np.ndarray:
    """``lambda_gamma`` from full N x N matrices."""
    f_prime_samples = np.asarray(f_prime_samples, dtype=complex)
    jac = contour.jacobian()
    dfp = f_prime_samples[:, None] - f_prime_samples[None, :]
    integrand = full_cot(contour.complex_nodes(grid)) * dfp * jac[None, :]
    fpp = grid.from_spectral(grid.derivative(grid.to_spectral(f_prime_samples))) / jac
    return -(1.0 / (2.0 * np.pi)) * row_quadrature(grid, integrand, 2.0 * fpp * jac)


def mpmath_contour_samples(
    coeffs: np.ndarray, grid: SpectralGrid, contour: LiftedContour, nodes: np.ndarray
) -> np.ndarray:
    """``evaluate_on_contour`` of a stack (m, N) at the given nodes, summed at 30 digits.

    sum_k c_k w^k with w = e^{i(x_j + i s h_j)}, by Horner's rule from the
    lowest wavenumber, at the exact nodes x_j = 2 pi j/N and the float64
    heights.
    """
    order = np.argsort(grid.wavenumbers)
    lowest = int(grid.wavenumbers[order[0]])
    rows = [[mpmath.mpc(complex(c)) for c in row[order]] for row in np.atleast_2d(coeffs)]
    out = np.empty((len(rows), len(nodes)), dtype=complex)
    with mpmath.workdps(30):
        for col, j in enumerate(nodes):
            w = mpmath.expj(2 * mpmath.pi * int(j) / grid.n_modes
                            + 1j * contour.sign * mpmath.mpf(contour.h[j]))
            for r, row in enumerate(rows):
                total = mpmath.mpc(0)
                for c in reversed(row):
                    total = total * w + c
                out[r, col] = complex(total * w**lowest)
    return out


@dataclass
class FullPairs:
    """Every pairwise array of a workspace as one N x N matrix."""

    ws: KernelWorkspace
    dz1: np.ndarray
    dz2: np.ndarray
    den: np.ndarray
    kern: np.ndarray


def full_pairs(ws: KernelWorkspace, floor: float = DEFAULT_CHORD_ARC_FLOOR) -> FullPairs:
    """dz1, dz2, den (diagonal 1) and K (diagonal 0) over all node pairs.

    Raises DegenerateGeometryError when the chord-arc ratio, taken over the
    full matrix with the wrapped distance computed per pair, is below the
    floor.
    """
    dz1 = ws.z1[:, None] - ws.z1[None, :]
    dz2 = ws.z2[:, None] - ws.z2[None, :]
    den = 2.0 * (np.sin(dz1 / 2.0) ** 2 + np.sinh(dz2 / 2.0) ** 2)
    np.fill_diagonal(den, 1.0)
    diff = ws.zeta[:, None] - ws.zeta[None, :]
    wrapped = np.abs(np.mod(diff.real + np.pi, 2.0 * np.pi) - np.pi) + np.abs(diff.imag)
    np.fill_diagonal(wrapped, 1.0)
    ratio = np.abs(den) / wrapped**2
    np.fill_diagonal(ratio, np.inf)
    i, j = np.unravel_index(np.argmin(ratio), ratio.shape)
    if ratio[i, j] < floor:
        raise DegenerateGeometryError(
            f"chord-arc constant {ratio[i, j]:.3e} below floor {floor:.3e}",
            pair=(int(i), int(j)), ratio=float(ratio[i, j]),
        )
    kern = np.sin(dz1) / den
    np.fill_diagonal(kern, 0.0)
    return FullPairs(ws, dz1, dz2, den, kern)


def broadcast_geometry(ws: KernelWorkspace, rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """q and the chord-arc ratio of the flat block ``rows`` x ``rows.start:``, formed by broadcasts.

    The same operations, in the same order, as the sweep formed them
    before it took its pair arrays from BLAS products: u_i - u_j and
    v_i - v_j, q = (u_i - u_j)^2 + (v_i - v_j)^2 with diagonal 1, and
    ratio = (c_i c_j) q / d^2 with diagonal inf, where d is the wrapped
    node distance dx min(|i - j|, N - |i - j|), computed from the indices.
    """
    u, v, c = ws.exp_map
    n = len(u)
    cols = slice(rows.start, None)
    q = np.square(u[rows, None] - u[None, cols])
    q += np.square(v[rows, None] - v[None, cols])
    offset = np.abs(np.arange(rows.start, rows.stop)[:, None] - np.arange(rows.start, n)[None, :])
    dist_sq = (2.0 * np.pi / n * np.minimum(offset, n - offset)) ** 2
    ratio = c[rows, None] * c[None, cols]
    ratio *= q
    diagonal = offset == 0
    dist_sq[diagonal] = 1.0
    ratio /= dist_sq
    q[diagonal] = 1.0
    ratio[diagonal] = np.inf
    return q, ratio


def exp_map_lifted_ratio(ws: KernelWorkspace, rows: slice) -> np.ndarray:
    """The lifted chord-arc ratio of rows x all nodes in the W+- exp-map form, diagonal inf.

    W+- = e^{i(z1 +- i z2)} and c = i e^{-i z1} / sqrt(2), O(N) complex
    transcendentals, give cosh(dz2) - cos(dz1) = q c_i c_j with
    q = (W+_i - W+_j)(W-_i - W-_j); the ratio is |c_i| |c_j| |q| / d^2,
    d = ||x_i - x_j|| + |Im(zeta_i - zeta_j)|.  The form the lifted sweep
    took before it read the half-angle denominator that K divides by.
    """
    w_plus, w_minus = np.exp(1j * ws.z1 - ws.z2), np.exp(1j * ws.z1 + ws.z2)
    scale = np.abs(1j * np.sqrt(0.5) * np.exp(-1j * ws.z1))
    q = (w_plus[rows, None] - w_plus[None, :]) * (w_minus[rows, None] - w_minus[None, :])
    n = len(w_plus)
    offset = np.abs(np.arange(rows.start, rows.stop)[:, None] - np.arange(n)[None, :])
    dist = 2.0 * np.pi / n * np.minimum(offset, n - offset)
    dist += np.abs(_difference(ws.zeta.imag)[rows])
    diagonal = offset == 0
    dist[diagonal] = 1.0
    ratio = scale[rows, None] * scale[None, :] * np.abs(q) / dist**2
    ratio[diagonal] = np.inf
    return ratio


def _difference(values: np.ndarray) -> np.ndarray:
    return values[:, None] - values[None, :]


def _full_kernel_difference(pairs: FullPairs, grid: SpectralGrid, order: int) -> list:
    der = pairs.ws.der
    return [
        row_quadrature(grid, pairs.kern * _difference(der[order, mu]),
                       2.0 * der[1, 0] * der[order + 1, mu] / pairs.ws.tangent_sq)
        for mu in (0, 1)
    ]


def full_matrix_rhs(
    state: InterfaceState,
    grid: SpectralGrid,
    floor: float = DEFAULT_CHORD_ARC_FLOOR,
) -> np.ndarray:
    """The right-hand side (2, N) from full N x N matrices."""
    pairs = full_pairs(build_workspace(state, grid, None, 2), floor)
    return grid.to_spectral(np.stack(_full_kernel_difference(pairs, grid, 1)))


def full_kernel_pv_integral(
    ws: KernelWorkspace, grid: SpectralGrid, floor: float = DEFAULT_CHORD_ARC_FLOOR
) -> np.ndarray:
    """PV int K dw per node, from full N x N matrices (``kernel_pv_integral``'s signature).

    K = (cot(dZ+/2) + cot(dZ-/2)) / 2 with Z+- = z1 +- i z2, from
    :func:`full_cot` as the sweep takes it from ``pairwise_cot``.  The
    float64 sin(dz1) / (cosh(dz2) - cos(dz1)) of :func:`full_pairs` rounds
    too coarsely to pin it: at N = 256 on the upper contour of
    ``test_pv_integral_matches_full_matrix`` it is itself 7.1e-14 off an
    mpmath trapezoid, against 2.9e-14 for the cotangent K.
    """
    full_pairs(ws, floor)  # the chord-arc check
    der = ws.der
    tangent_sq = ws.tangent_sq
    kern = 0.5 * (full_cot(ws.z1 + 1j * ws.z2) + full_cot(ws.z1 - 1j * ws.z2))
    if ws.flat:
        kern = kern.real
    integrand = kern - (der[1, 0] / tangent_sq)[:, None] * full_cot(ws.zeta)
    slope_sum = der[1, 0] * der[2, 0] + der[1, 1] * der[2, 1]
    diag = 2.0 * der[1, 0] * slope_sum / tangent_sq**2 - der[2, 0] / tangent_sq
    return row_quadrature(grid, integrand * ws.jac[None, :], diag * ws.jac)


def full_matrix_decomposition(state: InterfaceState, grid: SpectralGrid) -> D4Decomposition:
    """Dangerous, safe and easy parts and d4_rhs from full N x N matrices."""
    pairs = full_pairs(build_workspace(state, grid, None, 6))
    der = pairs.ws.der
    tangent_sq = pairs.ws.tangent_sq
    fragments = (
        (np.cos(pairs.dz1) / pairs.den, 2.0 / tangent_sq),
        (pairs.kern * np.sinh(pairs.dz2) / pairs.den,
         4.0 * der[1, 0] * der[1, 1] / tangent_sq**2),
        (pairs.kern**2, 4.0 * der[1, 0] ** 2 / tangent_sq**2),
    )
    safe = []
    for c, (first, f, fourth) in zip(SAFE_COEFFICIENTS, SAFE_TERMS):
        fragment, weight = fragments[f]
        safe.append(ComponentPair(*(
            row_quadrature(
                grid,
                c * _difference(der[1, (first or mu) - 1]) * fragment
                * _difference(der[4, (fourth or mu) - 1]),
                c * der[2, (first or mu) - 1] * weight * der[5, (fourth or mu) - 1])
            for mu in (1, 2)
        )))
    dangerous = ComponentPair(*_full_kernel_difference(pairs, grid, 5))
    d4 = ComponentPair(*(grid.from_spectral(grid.derivative(grid.to_spectral(v), 4))
                         for v in _full_kernel_difference(pairs, grid, 1)))
    easy = ComponentPair(d4.d1 - dangerous.d1 - sum(s.d1 for s in safe),
                         d4.d2 - dangerous.d2 - sum(s.d2 for s in safe))
    return D4Decomposition(dangerous=dangerous, safe=tuple(safe), easy=easy, d4_rhs=d4)


def kernel(
    state: InterfaceState,
    grid: SpectralGrid,
    i: int,
    j: int,
    floor: float = DEFAULT_CHORD_ARC_FLOOR,
) -> complex:
    """Pointwise kernel K(x_i, x_j) for i != j (the diagonal is removable).

    Raises DegenerateGeometryError when the denominator falls below the
    chord-arc floor times the squared wrapped distance.
    """
    if i == j:
        raise ValueError("the diagonal kernel value is removable; use rhs()")
    z1, z2 = sampled(state, grid, 0)
    d1 = z1[i] - z1[j]
    d2 = z2[i] - z2[j]
    den = np.cosh(d2) - np.cos(d1)
    wrapped = abs((grid.nodes[i] - grid.nodes[j] + np.pi) % (2 * np.pi) - np.pi)
    if abs(den) < floor * wrapped**2:
        raise DegenerateGeometryError(
            f"kernel denominator degenerate at pair ({i}, {j})", pair=(i, j),
            ratio=abs(den) / wrapped**2,
        )
    return complex(np.sin(d1) / den)


def alternating_rhs(
    state: InterfaceState,
    grid: SpectralGrid,
    floor: float = DEFAULT_CHORD_ARC_FLOOR,
) -> np.ndarray:
    """Right-hand side (2, N) by the skip-diagonal alternating-point trapezoid.

    Keeps only node pairs of opposite parity, at double weight, so the
    singular diagonal is never evaluated.
    """
    pairs = full_pairs(build_workspace(state, grid, None, 2), floor)
    n = grid.n_modes
    parity = (np.arange(n)[:, None] + np.arange(n)[None, :]) % 2 == 1
    out = []
    for mu in (1, 2):
        integ = pairs.kern * _difference(pairs.ws.der[1, mu - 1]) * parity
        out.append(integ.sum(axis=1) * 2.0 * grid.dx)
    return grid.to_spectral(np.stack(out))


def mpmath_rhs(state: InterfaceState, grid: SpectralGrid, dps: int = 40) -> np.ndarray:
    """Node values (2, N) of the right-hand side, summed at ``dps`` digits.

    The same trapezoid sum with analytic diagonal as ``muskat.rhs``, taking
    float64 samples of z, z' and z'' from the state; every kernel value and
    every sum is then evaluated in mpmath, so the only float64 error left is
    that of the samples and of the final rounding.
    """
    z, d1, d2 = (sampled(state, grid, order) for order in range(3))
    n = grid.n_modes
    out = np.empty((2, n))
    with mpmath.workdps(dps):
        z, d1, d2 = ([[mpmath.mpf(float(v)) for v in c] for c in s] for s in (z, d1, d2))
        dx = 2 * mpmath.pi / n
        for i in range(n):
            others = [j for j in range(n) if j != i]
            kern = {}
            for j in others:
                p, q = z[0][i] - z[0][j], z[1][i] - z[1][j]
                kern[j] = mpmath.sin(p) / (mpmath.cosh(q) - mpmath.cos(p))
            tangent_sq = d1[0][i] ** 2 + d1[1][i] ** 2
            for mu in (0, 1):
                diag = 2 * d1[0][i] * d2[mu][i] / tangent_sq
                total = mpmath.fsum([diag] + [kern[j] * (d1[mu][i] - d1[mu][j]) for j in others])
                out[mu, i] = float(total * dx)
    return out


def mpmath_pv_integral(ws: KernelWorkspace, grid: SpectralGrid, dps: int = 30) -> np.ndarray:
    """Node values of ``kernel_pv_integral``, summed at ``dps`` digits.

    The same trapezoid sum with analytic diagonal, from the float64 samples
    of ``ws`` (nodes, curve, first and second derivatives, dw/du), flat or
    lifted; every kernel and cotangent value and every sum is then
    evaluated in mpmath, so the only float64 error left is that of the
    samples and of the final rounding.
    """
    n = grid.n_modes
    out = np.empty(n, dtype=complex)
    with mpmath.workdps(dps):
        zeta, z1, z2, jac, d1z1, d1z2, d2z1, d2z2 = (
            [mpmath.mpmathify(complex(v)) for v in values]
            for values in (ws.zeta, ws.z1, ws.z2, ws.jac, *ws.der[1], *ws.der[2]))
        dx = 2 * mpmath.pi / n
        for i in range(n):
            tangent_sq = d1z1[i] ** 2 + d1z2[i] ** 2
            ratio = d1z1[i] / tangent_sq
            slope_sum = d1z1[i] * d2z1[i] + d1z2[i] * d2z2[i]
            terms = [(2 * d1z1[i] * slope_sum / tangent_sq**2 - d2z1[i] / tangent_sq) * jac[i]]
            for j in range(n):
                if j != i:
                    p, q = z1[i] - z1[j], z2[i] - z2[j]
                    kern = mpmath.sin(p) / (mpmath.cosh(q) - mpmath.cos(p))
                    terms.append((kern - ratio * mpmath.cot((zeta[i] - zeta[j]) / 2)) * jac[j])
            out[i] = complex(mpmath.fsum(terms) * dx)
    return out
