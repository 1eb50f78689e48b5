"""Interface state and the Muskat contour-dynamics right-hand side.

The interface is a 2pi-periodic curve (z1(a), z2(a)) with z1(a) - a periodic;
the state stores the Fourier coefficients of the periodic parts.  The
evolution couples every node to every other through the kernel

    K(x, u) = sin(z1(x) - z1(u)) / (cosh(z2(x) - z2(u)) - cos(z1(x) - z1(u)))

which has a simple pole along the diagonal; multiplied by the tangent
difference the integrand is bounded, with limit

    2 z1'(x) z_mu''(x) / ((z1'(x))^2 + (z2'(x))^2)

obtained from the quadratic expansion of the denominator.  Quadratures are
equispaced trapezoid sums with those analytic diagonal values, so they
converge spectrally for analytic interfaces.

A :class:`KernelWorkspace` holds the node samples, real float64 on the flat
grid (the curve is real).  Every pairwise quantity is formed by
:func:`pair_sweep`, one pass of :meth:`SpectralGrid.pair_quadrature` over
the upper triangle of node pairs in cache-sized row blocks.  The pair
geometry comes from w = e^{iZ}, Z = z1 + i z2, taken once per node, so the
sweep takes no transcendental per pair.  On the flat grid, with w = u + iv and
q = |w_i - w_j|^2,

    K = 2 (v_i u_j - u_i v_j) / q,   cosh(dz2) - cos(dz1) = q e^{z2_i} e^{z2_j} / 2;

on a lifted contour the denominator is the same product of
W+-_i - W+-_j, W+- = e^{i(z1 +- i z2)}.  q is exactly symmetric and the
cross product exactly antisymmetric, because IEEE products commute, so
each pair's mirror is free.  The chord-arc check is taken in the same pass,
against the grid-only wrapped distance, a view of an O(N) table.  A
kernel-difference integral sum_j K_ij (a_i - a_j) is a_i (K 1)_i - (K a)_i,
so each block reduces it by two matrix products.  The principal-value
integral cancels K's pole against a cotangent's and keeps both in the
half-angle form of the node differences, whose rounding cancels with them.
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray

from .contour_ops import LiftedContour, pairwise_cot
from .errors import DegenerateGeometryError
from .grid import _BLOCK_BYTES, SpectralGrid, block_sums, conjugate_symmetrize
from .grid import is_conjugate_symmetric

DEFAULT_CHORD_ARC_FLOOR = 1e-4


class InterfaceState:
    """Fourier representation of the curve: one (2, N) array ``coeffs``.

    Row 0 holds the coefficients of z1(a) - a, row 1 those of z2.  p1 and p2
    are views of the rows; assigning to one writes its row.  Construction
    copies its inputs.
    """

    def __init__(self, p1: NDArray, p2: NDArray, time: float = 0.0):
        p1, p2 = np.asarray(p1, dtype=complex), np.asarray(p2, dtype=complex)
        if p1.shape != p2.shape:
            raise ValueError("p1 and p2 must have equal length")
        self.coeffs = np.stack([p1, p2])
        self.time = time

    @property
    def p1(self) -> NDArray[np.complexfloating]:
        return self.coeffs[0]

    @p1.setter
    def p1(self, value: NDArray) -> None:
        self.coeffs[0] = value

    @property
    def p2(self) -> NDArray[np.complexfloating]:
        return self.coeffs[1]

    @p2.setter
    def p2(self, value: NDArray) -> None:
        self.coeffs[1] = value

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[1]

    @classmethod
    def flat(cls, grid: SpectralGrid, time: float = 0.0) -> "InterfaceState":
        return cls(*np.zeros((2, grid.n_modes), dtype=complex), time)

    def copy(self) -> "InterfaceState":
        return InterfaceState(*self.coeffs, self.time)

    def is_real(self, tol: float = 1e-10) -> bool:
        return all(is_conjugate_symmetric(row, tol) for row in self.coeffs)

    def symmetrized(self) -> "InterfaceState":
        """Project onto real-valued curves (conjugate-symmetric coefficients)."""
        return InterfaceState(*conjugate_symmetrize(self.coeffs), self.time)

    def values(self, grid: SpectralGrid) -> NDArray[np.complexfloating]:
        """(z1, z2) at the grid nodes as a (2, N) array, identity part included."""
        values = grid.from_spectral(self.coeffs)
        values[0] += grid.nodes
        return values

    def derivative_values(self, grid: SpectralGrid, order: int = 1) -> NDArray[np.complexfloating]:
        """(d^k z1, d^k z2) at the nodes as a (2, N) array; order 1 includes the identity slope."""
        values = grid.from_spectral(grid.derivative(self.coeffs, order))
        if order == 1:
            values[0] += 1.0
        return values


def evaluate_on_contour(
    coeffs: NDArray, grid: SpectralGrid, contour: LiftedContour
) -> NDArray[np.complexfloating]:
    """Evaluate a band-limited Fourier series at the contour nodes x + i*s*h(x).

    e^{ik(x + i s h)} = e^{ikx} e^{-k s h}; legitimate for band-limited
    coefficient arrays, which is how states are stored.  A stack (m, N) is
    evaluated row by row through one phase matrix over the modes live in
    any row.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    grid._check_length(coeffs, stacked=True)
    k = grid.wavenumbers
    live = (np.abs(coeffs) > 0.0).reshape(-1, grid.n_modes).any(axis=0)
    phases = np.exp(1j * np.outer(grid.nodes + 1j * contour.sign * contour.h, k[live]))
    return (phases @ coeffs[..., live].T).T


@dataclass
class KernelWorkspace:
    """Node samples shared by the singular quadratures: O(N) arrays only.

    On the flat grid every array is real float64; on a lifted contour they
    are complex.  The pairwise quantities are formed block by block in
    :func:`pair_sweep` and never held as N x N arrays.

    zeta: node positions (real grid nodes, or complex lifted-contour nodes).
    z1, z2: the curve at those positions.
    jac: dw/du weights (ones on the flat torus).
    der: per-node derivative values d^k z_mu, orders 1..max_order.
    """

    zeta: NDArray
    z1: NDArray
    z2: NDArray
    jac: NDArray
    der: dict = field(repr=False, default_factory=dict)

    @property
    def tangent_sq(self) -> NDArray:
        return self.der[(1, 1)] ** 2 + self.der[(2, 1)] ** 2

    @functools.cached_property
    def exp_map(self) -> tuple[NDArray, NDArray, NDArray]:
        """Per-node factors of the pair geometry, from w = e^{iZ}, Z = z1 + i z2.

        Returns (a, b, c) with den_ij = cosh(dz2) - cos(dz1) = q_ij c_i c_j.
        Flat grid: a + ib = w, so q = |w_i - w_j|^2, and c = e^{z2} / sqrt(2).
        Lifted contour, where z1 and z2 are complex: a, b = W+, W- with
        W+- = e^{i(z1 +- i z2)}, q = (W+_i - W+_j)(W-_i - W-_j), and
        c = i e^{-i z1} / sqrt(2).  O(N) transcendentals, taken once.
        """
        if np.isrealobj(self.z1):
            scale = np.exp(-self.z2)
            return scale * np.cos(self.z1), scale * np.sin(self.z1), np.sqrt(0.5) / scale
        return (np.exp(1j * self.z1 - self.z2), np.exp(1j * self.z1 + self.z2),
                1j * np.sqrt(0.5) * np.exp(-1j * self.z1))


def build_workspace(
    state: InterfaceState,
    grid: SpectralGrid,
    contour: LiftedContour | None = None,
    max_order: int = 2,
) -> KernelWorkspace:
    """Node samples and derivatives of a state, up to ``max_order``.

    With ``contour=None`` the workspace is real: the curve is real (the
    integrator symmetrizes every state), so taking ``.real`` of the sampled
    values only drops imaginary round-off, which up to six derivatives
    amplify to about 3e-7 relative.  On a lifted contour it is complex.
    """
    pair = state.coeffs
    stack = np.concatenate([pair] + [grid.derivative(pair, k) for k in range(1, max_order + 1)])
    if contour is None:
        zeta, jac = grid.nodes, np.ones(grid.n_modes)
        # a copy, so the views below do not keep the complex transform alive
        samples = grid.from_spectral(stack).real.copy()
    else:
        zeta, jac = contour.complex_nodes(grid), contour.jacobian()
        samples = evaluate_on_contour(stack, grid, contour)
    der = {(mu, order): samples[2 * order + mu - 1]
           for order in range(1, max_order + 1) for mu in (1, 2)}
    der[(1, 1)] = der[(1, 1)] + 1.0
    return KernelWorkspace(zeta=zeta, z1=zeta + samples[0], z2=samples[1], jac=jac, der=der)


@functools.lru_cache(maxsize=8)
def _node_distance(n_modes: int) -> NDArray:
    """Read-only wrapped distance of node pairs and its square, as a (2, N, N) view.

    [0, i, j] = ||x_i - x_j|| and [1, i, j] its square, both 1 on the
    diagonal: a Toeplitz view of an O(N) table by the signed offset j - i,
    so both are exactly symmetric.
    """
    offset = np.abs(np.arange(1 - n_modes, n_modes))
    dist = SpectralGrid(n_modes).dx * np.minimum(offset, n_modes - offset)
    dist[n_modes - 1] = 1.0
    return sliding_window_view(np.stack([dist, dist**2]), n_modes, axis=1)[:, ::-1]


def _distance_sq(zeta: NDArray, rows: slice) -> NDArray:
    """(||Re(zi - zj)|| + |Im(zi - zj)|)^2 over a block's pairs, diagonal 1.

    ``zeta`` is the grid, or the grid lifted by i*sign*h; its real parts
    are the nodes, so their wrapped distance is read from the cached view.
    """
    dist, dist_sq = _node_distance(len(zeta))[:, rows, rows.start:]
    if np.isrealobj(zeta):
        return dist_sq
    return (dist + np.abs(zeta.imag[rows, None] - zeta.imag[None, rows.start:])) ** 2


class _BlockBuffers(threading.local):
    """The calling thread's block arrays, kept from one sweep to the next.

    Each is allocated once, at the full block budget, and every block of
    every sweep reuses it.  Block arrays allocated afresh and freed with
    each sweep left a heap top that glibc returned to the system and
    faulted back in on the next call, about 110 minor page faults per
    ``rhs`` at N=128.  The contents never outlive a block, so sweeps must
    not nest.
    """

    def __init__(self):
        self.arrays: dict = {}


_BUFFERS = _BlockBuffers()


def _block_array(name: str, shape: tuple[int, int], dtype) -> NDArray:
    """A block-shaped view of the calling thread's buffer ``name``."""
    dtype = np.dtype(dtype)
    key = (name, dtype.char)
    if key not in _BUFFERS.arrays:
        _BUFFERS.arrays[key] = np.empty(_BLOCK_BYTES // dtype.itemsize, dtype)
    return _BUFFERS.arrays[key][:shape[0] * shape[1]].reshape(shape)


@dataclass
class PairBlock:
    """Rows r0:r1 of the pairwise geometry against the columns r0:N.

    Column c holds node j = r0 + c, so the pair (r0 + k, r0 + k) sits at
    (k, k).  The first r1 - r0 columns are the diagonal sub-block, the pairs
    among the block's rows in both orders; the rest are pairs i < j.  The
    arrays are views of reused buffers, valid until the next block.  It
    carries the exp-map geometry only: a consumer that needs the node
    differences themselves, as the half-angle PV integrand does, forms
    them from ``ws``.

    q: |w_i - w_j|^2 on the flat grid, (W+_i - W+_j)(W-_i - W-_j) on a
        lifted contour (see :attr:`KernelWorkspace.exp_map`); diagonal 1.
        cosh(dz2) - cos(dz1) = q_ij c_i c_j.
    """

    ws: KernelWorkspace
    rows: slice
    q: NDArray
    _differences: dict = field(default_factory=dict, repr=False)

    @property
    def cols(self) -> slice:
        return slice(self.rows.start, None)

    @functools.cached_property
    def kern(self) -> NDArray:
        """K(x_i, x_j) = 2 (v_i u_j - u_i v_j) / q on the flat grid, zero on the diagonal.

        The cross product is exactly antisymmetric and vanishes on the
        diagonal, where q = 1.
        """
        if np.iscomplexobj(self.q):
            raise NotImplementedError("the exp-map kernel is formed on the flat grid only")
        u, v, _ = self.ws.exp_map
        rows, cols = self.rows, self.cols
        kern = np.multiply(2.0 * v[rows, None], u[None, cols],
                           out=_block_array("kern", self.q.shape, self.q.dtype))
        kern -= np.multiply(2.0 * u[rows, None], v[None, cols],
                            out=_block_array("scratch", self.q.shape, self.q.dtype))
        kern /= self.q
        return kern

    def difference(self, mu: int, order: int) -> NDArray:
        """d^k z_mu(x_i) - d^k z_mu(x_j) over the block, formed once per block."""
        key = (mu, order)
        if key not in self._differences:
            values = self.ws.der[key]
            out = _block_array(f"d{order}z{mu}", self.q.shape, values.dtype)
            self._differences[key] = np.subtract(values[self.rows, None],
                                                 values[None, self.cols], out=out)
        return self._differences[key]


def _block_geometry(ws: KernelWorkspace, rows: slice, shape: tuple[int, int]):
    """q and the chord-arc ratio |den| / distance^2 of one block, no transcendental per pair.

    |den| = |q| |c_i| |c_j| with the outer product formed first, so the
    ratio is exactly symmetric, as q is.
    """
    a, b, c = ws.exp_map
    cols = slice(rows.start, None)
    q, scratch = (_block_array(name, shape, ws.z1.dtype) for name in ("q", "scratch"))
    ratio = _block_array("ratio", shape, np.float64)
    np.subtract(a[rows, None], a[None, cols], out=q)
    np.subtract(b[rows, None], b[None, cols], out=scratch)
    if np.isrealobj(q):
        np.square(q, out=q)
        q += np.square(scratch, out=scratch)
        modulus, scale = q, c
    else:
        q *= scratch
        modulus, scale = np.abs(q, out=scratch.real), np.abs(c)
    np.multiply(scale[rows, None], scale[None, cols], out=ratio)
    ratio *= modulus
    ratio /= _distance_sq(ws.zeta, rows)
    np.fill_diagonal(q, 1.0)
    np.fill_diagonal(ratio, np.inf)
    return q, ratio


def pair_sweep(
    ws: KernelWorkspace,
    grid: SpectralGrid,
    sums: Callable[[PairBlock], Iterable[tuple[NDArray, NDArray]]] | None = None,
    floor: float | None = None,
) -> tuple[list[NDArray], tuple[float, tuple[int, int]]]:
    """Row quadratures of kernel integrands and the chord-arc constant, in one sweep.

    For each row block of :meth:`SpectralGrid.pair_quadrature` this forms a
    :class:`PairBlock` (q once) and takes its chord-arc minimum
    |den| / distance^2, den = q_ij c_i c_j, before anything divides by q.
    ``sums(block)`` then yields the block's row sums and mirror column sums
    of each integrand, the same number for every block, which
    ``pair_quadrature`` adds up.  The block's arrays are reused by the next
    block and sweep on the same thread, so ``sums`` must not start another
    sweep.

    Args:
        ws: Node samples.
        grid: Collocation grid.
        sums: Block sums; None for the chord-arc constant alone.
        floor: Chord-arc floor, or None to accept any geometry.

    Returns:
        The quadratures (none without ``sums``), and the chord-arc constant
        with its node pair (i < j).

    Raises:
        DegenerateGeometryError: chord-arc constant below the floor, with
            the offending node pair and ratio.  From the first block under
            the floor on, no integrand is built; the sweep finishes the
            minimum on the geometry alone.
    """
    n = len(ws.zeta)
    minima, pairs = [], []
    degenerate = False

    def block_sums(rows: slice):
        # eager, not a generator: with no integrands nothing would run it
        nonlocal degenerate
        r0 = rows.start
        q, ratio = _block_geometry(ws, rows, (rows.stop - r0, n - r0))
        k = int(np.argmin(ratio))
        minima.append(ratio.flat[k])
        pairs.append((r0 + k // (n - r0), r0 + k % (n - r0)))
        degenerate = degenerate or (floor is not None and minima[-1] < floor)
        if sums is None or degenerate:
            return ()
        return sums(PairBlock(ws, rows, q))

    totals = grid.pair_quadrature(block_sums, ws.z1.dtype)
    best = int(np.argmin(minima))
    chord_arc, pair = float(minima[best]), pairs[best]
    if degenerate:
        raise DegenerateGeometryError(
            f"chord-arc constant {chord_arc:.3e} below floor {floor:.3e} at pair {pair}",
            pair=pair, ratio=chord_arc,
        )
    return totals, (chord_arc, pair)


def chord_arc_constant(
    state: InterfaceState, grid: SpectralGrid, contour: LiftedContour | None = None
) -> float:
    """Infimum over node pairs of |cosh(dz2) - cos(dz1)| / (||Re dzeta|| + |Im dzeta|)^2.

    Returns 0 for touching or self-intersecting curves; raises nothing.
    """
    _, (value, _) = pair_sweep(build_workspace(state, grid, contour, max_order=1), grid)
    return value


def rhs(
    state: InterfaceState,
    grid: SpectralGrid,
    floor: float = DEFAULT_CHORD_ARC_FLOOR,
) -> NDArray[np.complexfloating]:
    """Muskat right-hand side d/dt coeffs in coefficient space, shape (2, N).

    Trapezoid rule with analytic diagonal limits (spectrally accurate).  The
    normalization is (rho2 - rho1)/(2 pi) = 1, which all diagnostics assume;
    :func:`muskat.integrator.galerkin_rhs` applies any other density jump.

    Args:
        state: Interface state (coefficients).
        grid: Collocation grid.
        floor: Chord-arc floor; below it the evaluation is rejected.

    Raises:
        DegenerateGeometryError: chord-arc constant below the floor.
    """
    ws = build_workspace(state, grid, None, 2)
    values, _ = pair_sweep(ws, grid, kernel_difference_sums(ws, 1), floor)
    return grid.to_spectral(np.stack(values))


def kernel_difference_sums(
    ws: KernelWorkspace, order: int
) -> Callable[[PairBlock], list[tuple[NDArray, NDArray]]]:
    """Block sums of K(x, u) (d^k z_mu(x) - d^k z_mu(u)), mu = 1, 2, on the flat grid.

    ``ws`` holds derivatives up to k + 1.  Order 1 is the right-hand side in
    physical space, order 5 the dangerous term of its fourth derivative.
    With A = [1, d^k z1, d^k z2] (N x 3), sum_j K_ij (a_i - a_j) is
    a_i (K 1)_i - (K a)_i, so a block takes one matrix product for its rows
    and one for the columns beyond its diagonal sub-block; K and the
    difference are both antisymmetric, so the integrand is its own mirror.
    The row sums add the diagonal limit 2 z1' d^{k+1} z_mu / T,
    T = (z1')^2 + (z2')^2.
    """
    columns = np.column_stack([np.ones_like(ws.z1), ws.der[(1, order)], ws.der[(2, order)]])
    diagonals = np.column_stack([2.0 * ws.der[(1, 1)] * ws.der[(mu, order + 1)] / ws.tangent_sq
                                 for mu in (1, 2)])

    def sums(block: PairBlock) -> list[tuple[NDArray, NDArray]]:
        rows = block.rows
        by_row = block.kern @ columns[block.cols]
        by_column = block.kern[:, rows.stop - rows.start:].T @ columns[rows]
        by_row = columns[rows, 1:] * by_row[:, :1] - by_row[:, 1:] + diagonals[rows]
        by_column = by_column[:, 1:] - columns[rows.stop:, 1:] * by_column[:, :1]
        return [(by_row[:, 0], by_column[:, 0]), (by_row[:, 1], by_column[:, 1])]

    return sums


def kernel_pv_integral(
    ws: KernelWorkspace, grid: SpectralGrid, floor: float | None
) -> NDArray:
    """PV int K dw per node, from a workspace with derivatives up to order 2.

    a(z, w) = K(z, w) - [z1'/( (z1')^2 + (z2')^2 )] cot((z - w)/2) is bounded,
    so the trapezoid applies; the diagonal limit is

        2 z1' (z1' z1'' + z2' z2'') / T^2 - z1'' / T,   T = (z1')^2 + (z2')^2.

    Because the principal value of the bare cotangent over the full contour
    vanishes, the integral of a equals PV int K dw.  K and the cotangent are
    antisymmetric, so the mirror a(w, z) is [z1'/T](w) cot((z - w)/2) - K(z, w).

    Raises:
        DegenerateGeometryError: chord-arc constant below the floor.
    """
    tangent_sq = ws.tangent_sq
    ratio = ws.der[(1, 1)] / tangent_sq
    slope_sum = ws.der[(1, 1)] * ws.der[(1, 2)] + ws.der[(2, 1)] * ws.der[(2, 2)]
    diag = 2.0 * ws.der[(1, 1)] * slope_sum / tangent_sq**2 - ws.der[(1, 2)] / tangent_sq
    diag = diag * ws.jac

    def sums(block: PairBlock):
        # K in the half-angle form of dz1, dz2, like the cotangent: a cancels
        # their poles and with them the rounding of the node differences.
        # Against an mpmath trapezoid of the same samples at N = 128 this
        # form is 5.9e-15 off on the flat grid; the exp-map K with a table
        # cotangent is 1.0e-13 off (2.2e-14 against 1.9e-13 at N = 256)
        rows, cols = block.rows, block.cols
        dz1 = ws.z1[rows, None] - ws.z1[None, cols]
        dz2 = ws.z2[rows, None] - ws.z2[None, cols]
        den = 2.0 * (np.sin(dz1 / 2.0) ** 2 + np.sinh(dz2 / 2.0) ** 2)
        np.fill_diagonal(den, 1.0)
        kern = np.sin(dz1) / den
        cot = pairwise_cot(ws.zeta, rows)
        values = (kern - ratio[rows, None] * cot) * ws.jac[None, cols]
        mirror = (ratio[None, cols] * cot - kern) * ws.jac[rows, None]
        yield block_sums(values, mirror, diag[rows])

    (total,), _ = pair_sweep(ws, grid, sums, floor)
    return total


def a_tilde(
    state: InterfaceState,
    grid: SpectralGrid,
    contour: LiftedContour | None = None,
    floor: float = DEFAULT_CHORD_ARC_FLOOR,
) -> NDArray[np.complexfloating]:
    """Integral of the kernel minus its matched cotangent, per node.

    This is PV int K dw, the singular integral entering the generalized
    Rayleigh-Taylor function; see :func:`kernel_pv_integral`.

    Raises:
        DegenerateGeometryError: chord-arc constant below the floor.
    """
    return kernel_pv_integral(build_workspace(state, grid, contour, 2), grid, floor)
