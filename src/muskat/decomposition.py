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

from .core import DEFAULT_CHORD_ARC_FLOOR, InterfaceState, PairBlock, build_workspace
from .core import kernel_difference_sums, pair_sweep
from .grid import SpectralGrid, factor_tables

#: Leibniz coefficients of the six safe terms, in expansion order.
SAFE_COEFFICIENTS = (4.0, -4.0, -4.0, 1.0, -1.0, -1.0)

#: The six safe terms, in expansion order, as (first-difference component,
#: kernel fragment, fourth-difference component); None stands for mu.  The
#: fragments 0, 1, 2 are cos/den, K sinh/den and K^2, with K = sin/den and
#: den = cosh(dz2) - cos(dz1).
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
    before the cutoff.  The dangerous term, the six safe terms and the
    right-hand side come from one sweep of the node pairs.

    Raises:
        DegenerateGeometryError: chord-arc constant below the floor.
    """
    ws = build_workspace(state, grid, None, 6)
    der = ws.der
    tangent_sq = ws.tangent_sq
    # weight of fragment f: the limit of u^2 * fragment as u = x_i - x_j -> 0,
    # so safe term j has the diagonal value c_j (d^2 z_a) weight (d^5 z_b)
    weights = (
        2.0 / tangent_sq,
        4.0 * der[1, 0] * der[1, 1] / tangent_sq**2,
        4.0 * der[1, 0] ** 2 / tangent_sq**2,
    )
    # (coefficient, first-difference component, fragment, fourth-difference
    # component) of the twelve safe integrands, term by term, mu = 1, 2
    safe_terms = [(c, first or mu, f, fourth or mu)
                  for c, (first, f, fourth) in zip(SAFE_COEFFICIENTS, SAFE_TERMS) for mu in (1, 2)]
    safe_diagonals = [c * der[2, a - 1] * weights[f] * der[5, b - 1] for c, a, f, b in safe_terms]
    (dangerous_sums, dangerous_finish), (rhs_sums, rhs_finish) = (
        kernel_difference_sums(ws, grid, order) for order in (5, 1))
    u, v, _ = ws.exp_map
    one = np.ones_like(u)
    # factor tables of the block arrays the safe terms take, all six formed
    # by one product per block: the differences of d z_mu and d^4 z_mu
    # (slots 0-3), |w_j|^2 - |w_i|^2 = (-|w_i|^2) - (-|w_j|^2) (slot 4),
    # and 2 (u_i u_j + v_i v_j) (slot 5)
    differences = (*der[1], *der[4], -np.exp(-2.0 * ws.z2))
    left, right = factor_tables(*(([x, one], [one, -x]) for x in differences),
                                ([2.0 * u, 2.0 * v], [u, v]))

    def integrands(block: PairBlock):
        yield from dangerous_sums(block)
        yield from rhs_sums(block)
        # rational in w = u + iv, with q = |w_i - w_j|^2: cos(dz1)/den is
        # 2 (u_i u_j + v_i v_j)/q and sinh(dz2)/den is (|w_j|^2 - |w_i|^2)/q.
        # All three fragments are symmetric and the two differences
        # antisymmetric: every safe integrand is its own mirror, taken from
        # the pair (K_ij and K_ji may round apart by an ulp)
        # the sweep has taken its chord-arc minimum, so the ratio's array
        # is free to hold each safe integrand in turn
        products, values = block.buffers("decomposition", 6), block.ratio
        block.product(left, right, out=products)
        cos_frag, sinh_frag = products[5], products[4]
        cos_frag /= block.q
        sinh_frag /= block.q
        sinh_frag *= block.kern
        # the kernel sums are taken, so K^2 may overwrite K
        fragments = (cos_frag, sinh_frag, np.square(block.kern, out=block.kern))
        for (c, a, f, b), diag in zip(safe_terms, safe_diagonals):
            # slot a - 1 holds the difference of d z_a, slot b + 1 that of d^4 z_b
            np.multiply(products[a - 1], fragments[f], out=values)
            values *= products[b + 1]
            values *= c
            yield block.sums(values, values, diag[block.rows])

    sums, _ = pair_sweep(ws, grid, integrands, floor)
    dangerous = ComponentPair(*dangerous_finish(sums[0]))
    safe = tuple(ComponentPair(*sums[2 + 2 * j:4 + 2 * j]) for j in range(len(SAFE_TERMS)))
    # order 1 of the kernel difference is the right-hand side in physical space
    d4 = ComponentPair(*(grid.from_spectral(grid.derivative(grid.to_spectral(values), 4))
                         for values in rhs_finish(sums[1])))
    easy = ComponentPair(
        d4.d1 - dangerous.d1 - sum(s.d1 for s in safe),
        d4.d2 - dangerous.d2 - sum(s.d2 for s in safe),
    )
    return D4Decomposition(dangerous=dangerous, safe=safe, easy=easy, d4_rhs=d4)
