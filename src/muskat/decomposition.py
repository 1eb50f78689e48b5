"""Fourth-derivative decomposition of the evolution right-hand side.

Applying four parameter derivatives to the singular integral splits the
result, per component mu, into one dangerous term carrying fifth-derivative
differences, six safe terms carrying fourth-derivative differences, and a
remainder built entirely of lower orders:

    d^4(rhs)_mu = Dangerous_mu + sum_j coeff_j * Safe_mu_j + Easy_mu.

The dangerous kernel is the evolution kernel itself; the safe kernels are
its first-derivative fragments.  Their coefficients come out of the Leibniz
expansion: 1 for the dangerous term and (4, -4, -4, 1, -1, -1) for the six
safe ones.  The remainder is obtained here by subtraction from the spectral
fourth derivative of the right-hand side; an independent term-by-term
assembly of the remainder lives in the test suite and pins this down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import DEFAULT_CHORD_ARC_FLOOR, InterfaceState, guarded_workspace, rhs
from .grid import SpectralGrid

#: Leibniz coefficients of the six safe terms, in expansion order.
SAFE_COEFFICIENTS = (4.0, -4.0, -4.0, 1.0, -1.0, -1.0)


@dataclass
class ComponentPair:
    """Physical-space values of one decomposition part, per component mu."""

    d1: NDArray[np.complexfloating]
    d2: NDArray[np.complexfloating]


@dataclass
class D4Decomposition:
    dangerous: ComponentPair
    safe: tuple[ComponentPair, ...]
    easy: ComponentPair
    d4_rhs: ComponentPair

    def reassembled(self) -> ComponentPair:
        d1 = self.dangerous.d1 + sum(s.d1 for s in self.safe) + self.easy.d1
        d2 = self.dangerous.d2 + sum(s.d2 for s in self.safe) + self.easy.d2
        return ComponentPair(d1, d2)


def _difference(values: NDArray) -> NDArray:
    return values[:, None] - values[None, :]


def rhs_d4_decomposition(
    state: InterfaceState,
    grid: SpectralGrid,
    floor: float = DEFAULT_CHORD_ARC_FLOOR,
) -> D4Decomposition:
    """Evaluate the dangerous, safe, and easy parts on the flat contour.

    All singular integrals use the trapezoid rule with analytic diagonal
    limits; the diagonal of each part follows from the quadratic expansion
    of the kernel denominator.  Requires the state to resolve six
    derivatives, i.e. its coefficients should decay below round-off well
    before the cutoff.

    Raises:
        DegenerateGeometryError: chord-arc constant below the floor.
    """
    ws = guarded_workspace(state, grid, None, 6, floor)
    der = ws.der
    tangent_sq = ws.tangent_sq
    sin_d = np.sin(ws.dz1)
    cos_d = np.cos(ws.dz1)
    sinh_d = np.sinh(ws.dz2)
    den = ws.den
    den_sq = den**2
    diff1 = {mu: _difference(der[(mu, 1)]) for mu in (1, 2)}
    diff4 = {mu: _difference(der[(mu, 4)]) for mu in (1, 2)}
    diff5 = {mu: _difference(der[(mu, 5)]) for mu in (1, 2)}

    dangerous = {}
    safes = {j: {} for j in range(6)}
    for mu in (1, 2):
        dangerous[mu] = grid.row_quadrature(
            sin_d / den * diff5[mu],
            2.0 * der[(1, 1)] * der[(mu, 6)] / tangent_sq,
        )
        c = SAFE_COEFFICIENTS
        safes[0][mu] = grid.row_quadrature(
            c[0] * diff1[1] * cos_d / den * diff4[mu],
            c[0] * der[(1, 2)] * 2.0 / tangent_sq * der[(mu, 5)],
        )
        safes[1][mu] = grid.row_quadrature(
            c[1] * diff1[2] * sinh_d * sin_d / den_sq * diff4[mu],
            c[1] * der[(2, 2)] * der[(2, 1)] * der[(1, 1)] * 4.0 / tangent_sq**2 * der[(mu, 5)],
        )
        safes[2][mu] = grid.row_quadrature(
            c[2] * diff1[1] * sin_d**2 / den_sq * diff4[mu],
            c[2] * der[(1, 2)] * der[(1, 1)] ** 2 * 4.0 / tangent_sq**2 * der[(mu, 5)],
        )
        safes[3][mu] = grid.row_quadrature(
            c[3] * diff1[mu] * cos_d / den * diff4[1],
            c[3] * der[(mu, 2)] * 2.0 / tangent_sq * der[(1, 5)],
        )
        safes[4][mu] = grid.row_quadrature(
            c[4] * diff1[mu] * sin_d * sinh_d / den_sq * diff4[2],
            c[4] * der[(mu, 2)] * der[(1, 1)] * der[(2, 1)] * 4.0 / tangent_sq**2 * der[(2, 5)],
        )
        safes[5][mu] = grid.row_quadrature(
            c[5] * diff1[mu] * sin_d**2 / den_sq * diff4[1],
            c[5] * der[(mu, 2)] * der[(1, 1)] ** 2 * 4.0 / tangent_sq**2 * der[(1, 5)],
        )

    tendency = rhs(state, grid, floor=floor)
    d4 = ComponentPair(
        grid.from_spectral(grid.derivative(tendency.d1, 4)),
        grid.from_spectral(grid.derivative(tendency.d2, 4)),
    )
    dangerous_t = ComponentPair(dangerous[1], dangerous[2])
    safe_t = tuple(ComponentPair(safes[j][1], safes[j][2]) for j in range(6))
    easy_t = ComponentPair(
        d4.d1 - dangerous_t.d1 - sum(s.d1 for s in safe_t),
        d4.d2 - dangerous_t.d2 - sum(s.d2 for s in safe_t),
    )
    return D4Decomposition(dangerous=dangerous_t, safe=safe_t, easy=easy_t, d4_rhs=d4)
