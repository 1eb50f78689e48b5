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
from .grid import SpectralGrid, difference, factor_tables

#: Leibniz coefficients of the six safe terms, in expansion order.
SAFE_COEFFICIENTS = (4.0, -4.0, -4.0, 1.0, -1.0, -1.0)

#: The six safe terms, in expansion order, as (first-difference component,
#: kernel fragment, fourth-difference component); None stands for mu.  The
#: fragments 0, 1, 2 are cos/den, K sinh/den and K^2, with K = sin/den and
#: den = cosh(dz2) - cos(dz1).
SAFE_TERMS = ((1, 0, None), (2, 1, None), (1, 2, None), (None, 0, 1), (None, 1, 2), (None, 2, 1))

#: The six safe kernels G = (d z_a(x) - d z_a(u)) F_f as (a, f), in the order
#: a block forms them.
KERNELS = ((1, 0), (1, 1), (1, 2), (2, 2), (2, 1), (2, 0))


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
    right-hand side come from one sweep of the node pairs, each a
    kernel-difference sum taken by matrix products of its kernel blocks.

    Raises:
        DegenerateGeometryError: chord-arc constant below the floor.
    """
    ws = build_workspace(state, grid, None, 6)
    der = ws.der
    tangent_sq = ws.tangent_sq
    # weight of fragment f: the limit of u^2 * fragment as u = x_i - x_j -> 0
    weights = (
        2.0 / tangent_sq,
        4.0 * der[1, 0] * der[1, 1] / tangent_sq**2,
        4.0 * der[1, 0] ** 2 / tangent_sq**2,
    )
    # each safe integrand c (d z_a(x) - d z_a(u)) F_f (d^4 z_b(x) - d^4 z_b(u)) is
    # a kernel-difference integral of G_af = (d z_a(x) - d z_a(u)) F_f against
    # d^4 z_b, like K's; G is antisymmetric and vanishes on the diagonal, so
    # the six kernels (a, f) take two matrix products per block with
    # [1, d^4 z1, d^4 z2], and each safe part the diagonal limit
    # c (d^2 z_a) weight_f (d^5 z_b) once the sweep is done
    columns = np.column_stack([np.ones_like(ws.z1), *der[4]])
    negated = -columns
    (dangerous_sums, dangerous_finish), (rhs_sums, rhs_finish) = (
        kernel_difference_sums(ws, grid, order) for order in (5, 1))
    u, v, _ = ws.exp_map
    # factor tables of the block arrays the safe kernels take, all four formed
    # by one product per block: the differences of d z1 and d z2 (slots 0, 1),
    # |w_j|^2 - |w_i|^2 = (-|w_i|^2) - (-|w_j|^2) (slot 2), and
    # 2 (u_i u_j + v_i v_j) (slot 3)
    left, right = factor_tables(*(difference(x) for x in (*der[1], -np.exp(-2.0 * ws.z2))),
                                ([2.0 * u, 2.0 * v], [u, v]))

    def integrands(block: PairBlock):
        yield from dangerous_sums(block)
        yield from rhs_sums(block)
        # rational in w = u + iv, with q = |w_i - w_j|^2: cos(dz1)/den is
        # 2 (u_i u_j + v_i v_j)/q and sinh(dz2)/den is (|w_j|^2 - |w_i|^2)/q.
        # The stack takes (d dz1, d dz2, sinh fragment, cos fragment) and
        # then, each in place of the last array it reads, the six kernels in
        # the order of ``KERNELS``
        stack = block.buffers("integrands", 6)
        block.product(left, right, out=stack[2:])
        stack[4:] /= block.q
        stack[4] *= block.kern
        np.multiply(stack[2], stack[5:3:-1], out=stack[:2])
        stack[4:] *= stack[3]
        # the kernel sums are taken, so K^2 may overwrite K
        stack[2:4] *= np.square(block.kern, out=block.kern)
        pairs = stack.reshape(-1, block.shape[1]) @ columns[block.cols]
        mirrors = negated[block.rows].T @ stack[:, :, block.width:]
        yield pairs.reshape(6, block.width, 3).transpose(1, 0, 2), mirrors.transpose(2, 0, 1)

    sums, _ = pair_sweep(ws, grid, integrands, floor)
    dangerous = ComponentPair(*dangerous_finish(sums[0]))
    # per kernel (a, f), against d^4 z_b for b = 1, 2: d^4 z_b (G 1) - G d^4 z_b
    # plus the diagonal limit (d^2 z_a) weight_f (d^5 z_b)
    by_kernel = {(a, f): columns[:, 1:].T * total[:, 0] - total[:, 1:].T
                 + grid.dx * der[2, a - 1] * weights[f] * der[5]
                 for (a, f), total in zip(KERNELS, sums[2].transpose(1, 0, 2))}
    safe = tuple(ComponentPair(*(c * by_kernel[a or mu, f][(b or mu) - 1] for mu in (1, 2)))
                 for c, (a, f, b) in zip(SAFE_COEFFICIENTS, SAFE_TERMS))
    # order 1 of the kernel difference is the right-hand side in physical space
    d4 = ComponentPair(*(grid.from_spectral(grid.derivative(grid.to_spectral(values), 4))
                         for values in rhs_finish(sums[1])))
    easy = ComponentPair(
        d4.d1 - dangerous.d1 - sum(s.d1 for s in safe),
        d4.d2 - dangerous.d2 - sum(s.d2 for s in safe),
    )
    return D4Decomposition(dangerous=dangerous, safe=safe, easy=easy, d4_rhs=d4)
