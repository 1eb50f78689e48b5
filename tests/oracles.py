"""Reference evaluations that only the test suite uses.

All are independent of the production quadrature: a pointwise kernel
value, the right-hand side by the alternating-node trapezoid, which skips
the diagonal instead of assigning it its analytic limit, and the
right-hand side summed in extended precision.
"""

from __future__ import annotations

import mpmath
import numpy as np

from muskat import InterfaceState, SpectralGrid, Tendency
from muskat.core import DEFAULT_CHORD_ARC_FLOOR, guarded_workspace
from muskat.errors import DegenerateGeometryError


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
    density_jump_over_2pi: float = 1.0,
) -> Tendency:
    """Right-hand side by the skip-diagonal alternating-point trapezoid.

    Keeps only node pairs of opposite parity, at double weight, so the
    singular diagonal is never evaluated.
    """
    ws = guarded_workspace(state, grid, None, 2, floor)
    kernel_full = ws.kernel_matrix()
    n = grid.n_modes
    parity = (np.arange(n)[:, None] + np.arange(n)[None, :]) % 2 == 1
    out = []
    for mu in (1, 2):
        dz = ws.der[(mu, 1)]
        integ = kernel_full * (dz[:, None] - dz[None, :]) * parity
        out.append(density_jump_over_2pi * grid.to_spectral(integ.sum(axis=1) * 2.0 * grid.dx))
    return Tendency(out[0], out[1])


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
