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

#: The six safe terms, in expansion order, as (first-difference component,
#: kernel fragment, fourth-difference component); None stands for mu.  The
#: fragments 0, 1, 2 are cos/den, K sinh/den and K^2, with K = sin/den.
SAFE_TERMS = ((1, 0, None), (2, 1, None), (1, 2, None), (None, 0, 1), (None, 1, 2), (None, 2, 1))


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
    kern = ws.kernel_matrix()
    dangerous = ComponentPair(*(
        grid.row_quadrature(
            kern * _difference(der[(mu, 5)]), 2.0 * der[(1, 1)] * der[(mu, 6)] / tangent_sq
        )
        for mu in (1, 2)
    ))

    # (fragment, weight): weight is the limit of u^2 * fragment as
    # u = x_i - x_j -> 0, so safe term j has the diagonal value
    # c_j (d^2 z_a) weight (d^5 z_b).  Each fragment is built when its terms
    # are due and dropped after them: one N x N fragment is held at a time.
    fragments = (
        (lambda: np.cos(ws.dz1) / ws.den, 2.0 / tangent_sq),
        (lambda: kern * np.sinh(ws.dz2) / ws.den, 4.0 * der[(1, 1)] * der[(2, 1)] / tangent_sq**2),
        (lambda: kern**2, 4.0 * der[(1, 1)] ** 2 / tangent_sq**2),
    )
    diff1 = {mu: _difference(der[(mu, 1)]) for mu in (1, 2)}
    diff4 = {mu: _difference(der[(mu, 4)]) for mu in (1, 2)}
    safe = [[None, None] for _ in SAFE_TERMS]
    for f, (build, weight) in enumerate(fragments):
        fragment = build()
        for j, (first, fragment_index, fourth) in enumerate(SAFE_TERMS):
            if fragment_index != f:
                continue
            c = SAFE_COEFFICIENTS[j]
            for mu in (1, 2):
                a, b = first or mu, fourth or mu
                safe[j][mu - 1] = grid.row_quadrature(
                    c * diff1[a] * fragment * diff4[b], c * der[(a, 2)] * weight * der[(b, 5)]
                )
        del fragment
    safe_t = tuple(ComponentPair(*pair) for pair in safe)

    tendency = rhs(state, grid, floor=floor)
    d4 = ComponentPair(
        grid.from_spectral(grid.derivative(tendency.d1, 4)),
        grid.from_spectral(grid.derivative(tendency.d2, 4)),
    )
    easy = ComponentPair(
        d4.d1 - dangerous.d1 - sum(s.d1 for s in safe_t),
        d4.d2 - dangerous.d2 - sum(s.d2 for s in safe_t),
    )
    return D4Decomposition(dangerous=dangerous, safe=safe_t, easy=easy, d4_rhs=d4)
