"""Reference evaluations that only the test suite uses.

All are independent of the production quadrature: a pointwise kernel
value, the right-hand side by the alternating-node trapezoid, which skips
the diagonal instead of assigning it its analytic limit, the right-hand
side and the principal-value integral summed in extended precision, and
the full-matrix quadratures, which hold every pairwise array as one N x N
matrix and sum each row in one reduction, as the quadratures did before
the triangle sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

from muskat import InterfaceState, LiftedContour, SpectralGrid
from muskat.core import DEFAULT_CHORD_ARC_FLOOR, KernelWorkspace, build_workspace
from muskat.decomposition import SAFE_COEFFICIENTS, SAFE_TERMS, ComponentPair, D4Decomposition
from muskat.errors import DegenerateGeometryError


def row_quadrature(grid: SpectralGrid, integrand: np.ndarray, diag) -> np.ndarray:
    """Trapezoid rule along each row of a pairwise N x N integrand.

    The removable diagonal is overwritten in place with its analytic limit
    ``diag`` before the rows are summed.
    """
    np.fill_diagonal(integrand, diag)
    return integrand.sum(axis=1) * grid.dx


def full_cot(zeta: np.ndarray) -> np.ndarray:
    """cot((zeta_i - zeta_j)/2) over all node pairs, diagonal 0, in the half-angle form."""
    half = (zeta[:, None] - zeta[None, :]) / 2.0
    sin_half = np.sin(half)
    np.fill_diagonal(sin_half, 1.0)
    out = np.cos(half) / sin_half
    np.fill_diagonal(out, 0.0)
    return out


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


def _difference(values: np.ndarray) -> np.ndarray:
    return values[:, None] - values[None, :]


def _full_kernel_difference(pairs: FullPairs, grid: SpectralGrid, order: int) -> list:
    der = pairs.ws.der
    return [
        row_quadrature(grid, pairs.kern * _difference(der[(mu, order)]),
                       2.0 * der[(1, 1)] * der[(mu, order + 1)] / pairs.ws.tangent_sq)
        for mu in (1, 2)
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
    """PV int K dw per node, from full N x N matrices (``kernel_pv_integral``'s signature)."""
    pairs = full_pairs(ws, floor)
    der = ws.der
    tangent_sq = ws.tangent_sq
    integrand = pairs.kern - (der[(1, 1)] / tangent_sq)[:, None] * full_cot(ws.zeta)
    slope_sum = der[(1, 1)] * der[(1, 2)] + der[(2, 1)] * der[(2, 2)]
    diag = 2.0 * der[(1, 1)] * slope_sum / tangent_sq**2 - der[(1, 2)] / tangent_sq
    return row_quadrature(grid, integrand * ws.jac[None, :], diag * ws.jac)


def full_matrix_decomposition(state: InterfaceState, grid: SpectralGrid) -> D4Decomposition:
    """Dangerous, safe and easy parts and d4_rhs from full N x N matrices."""
    pairs = full_pairs(build_workspace(state, grid, None, 6))
    der = pairs.ws.der
    tangent_sq = pairs.ws.tangent_sq
    fragments = (
        (np.cos(pairs.dz1) / pairs.den, 2.0 / tangent_sq),
        (pairs.kern * np.sinh(pairs.dz2) / pairs.den,
         4.0 * der[(1, 1)] * der[(2, 1)] / tangent_sq**2),
        (pairs.kern**2, 4.0 * der[(1, 1)] ** 2 / tangent_sq**2),
    )
    safe = []
    for c, (first, f, fourth) in zip(SAFE_COEFFICIENTS, SAFE_TERMS):
        fragment, weight = fragments[f]
        safe.append(ComponentPair(*(
            row_quadrature(
                grid,
                c * _difference(der[(first or mu, 1)]) * fragment
                * _difference(der[(fourth or mu, 4)]),
                c * der[(first or mu, 2)] * weight * der[(fourth or mu, 5)])
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
    z1, z2 = state.values(grid)
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
        integ = pairs.kern * _difference(pairs.ws.der[(mu, 1)]) * parity
        out.append(integ.sum(axis=1) * 2.0 * grid.dx)
    return grid.to_spectral(np.stack(out))


def mpmath_rhs(state: InterfaceState, grid: SpectralGrid, dps: int = 40) -> np.ndarray:
    """Node values (2, N) of the right-hand side, summed at ``dps`` digits.

    The same trapezoid sum with analytic diagonal as ``muskat.rhs``, taking
    float64 samples of z, z' and z'' from the state; every kernel value and
    every sum is then evaluated in mpmath, so the only float64 error left is
    that of the samples and of the final rounding.
    """
    z = [v.real for v in state.values(grid)]
    d1 = [v.real for v in state.derivative_values(grid, 1)]
    d2 = [v.real for v in state.derivative_values(grid, 2)]
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
            for values in (ws.zeta, ws.z1, ws.z2, ws.jac, ws.der[(1, 1)], ws.der[(2, 1)],
                           ws.der[(1, 2)], ws.der[(2, 2)]))
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
