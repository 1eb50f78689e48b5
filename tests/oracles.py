"""Reference evaluations that only the test suite uses.

Both are independent of the production quadrature: a pointwise kernel
value, and the right-hand side by the alternating-node trapezoid, which
skips the diagonal instead of assigning it its analytic limit.
"""

from __future__ import annotations

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
