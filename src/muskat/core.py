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
the upper triangle of node pairs in cache-sized row blocks, the grid's one
cached tiling.  No object is built per block: the sweep writes each
block's pair geometry into the calling thread's buffers by a plain
function and checks it against the chord-arc floor before any integrand
is formed, and the integrands form their kernels by explicit calls
(:func:`flat_kernel`, :func:`pv_terms`).

The flat sweep of the right-hand side takes its pair geometry from
w = e^{iZ}, Z = z1 + i z2, taken once per node, so it takes no
transcendental per pair.  With w = u + iv and q = |w_i - w_j|^2,

    K = 2 (v_i u_j - u_i v_j) / q,   cosh(dz2) - cos(dz1) = q e^{z2_i} e^{z2_j} / 2.

A block forms u_i - u_j, v_i - v_j, c_i c_j and the cross product as BLAS
products of O(N) factor tables (:attr:`KernelWorkspace.exp_factors`); the
first three have exact products, so q and the chord-arc ratio are the
broadcast forms bit for bit, exactly symmetric.  The cross product may
round K_ij and K_ji apart where BLAS fuses a multiply-add, so no sum relies
on K's exact antisymmetry: each mirror is -K_ij by construction, as the
column sums read the same block.  The chord-arc check is taken against the
grid-only wrapped distance, a view of an O(N) table.  A kernel-difference
integral sum_j K_ij (a_i - a_j) is a_i (K 1)_i - (K a)_i, linear in K, so
each block adds two matrix products to one (N, 3) sum, combined once after
the sweep.

The principal-value integral cancels K's pole against a cotangent's, and
takes K as cotangents too, so the rounding of the node differences cancels
with them: with Z+- = z1 +- i z2,

    K = (cot(dZ+/2) + cot(dZ-/2)) / 2,   cosh(dz2) - cos(dz1) = 2 sin(dZ+/2) sin(dZ-/2),

one primitive, :func:`muskat.contour_ops.pairwise_cot`, on both grids.  On
the flat grid Z- is the conjugate of Z+, so K = Re cot(dZ+/2), formed in
real arithmetic.  Every cotangent takes one tan of its real half
difference and sinh and cosh of the imaginary one, so no pair takes a
complex transcendental, nor numpy's float64 sin or cos, which run scalar
loops 4-7x slower than its vectorized tan, sinh and cosh.  A lifted block
takes all six half differences, of Z+, Z- and zeta, from one BLAS product
of O(N) factor tables (:attr:`KernelWorkspace.half_factors`), exact as
the exp-map ones are, and a flat block the halves of z1, z2 and the nodes
from tables of the same kind: no pair difference in the package is formed
by broadcast.  A lifted block's geometry is only the two denominators of
K's cotangents and its chord-arc ratio from them; the cotangents follow
from the same arrays when an integrand asks for them, and the PV sums
weight and reduce them by matrix-vector products.  A lifted
sample writes each wavenumber as a baby step plus a giant step, so its
phases, read from a cached table of the N-th roots of unity, take
O(N sqrt K) real exponentials for K live modes, not N K.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from numpy.typing import NDArray

from .contour_ops import (LiftedContour, _cot, _cot_denominator, _cot_from_denominator,
                          _sin_modulus, pairwise_cot)
from .errors import DegenerateGeometryError
from .grid import _BLOCK_BYTES, Block, SpectralGrid, difference, factor_tables

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


def evaluate_on_contour(
    coeffs: NDArray, grid: SpectralGrid, contour: LiftedContour
) -> NDArray[np.complexfloating]:
    """Evaluate a band-limited Fourier series at the contour nodes x + i*s*h(x).

    e^{ik(x + i s h)} = e^{ikx} e^{-k s h}; legitimate for band-limited
    coefficient arrays, which is how states are stored.  The modes live in
    any row of a stack (m, N) span some K wavenumbers; each is written
    k = B a + b, 0 <= b < B ~ sqrt(K), and e^{ik(x + i s h)} is a baby
    factor e^{ib(x + i s h)} times a giant one e^{iBa(x + i s h)}
    (baby-step giant-step, Paterson & Stockmeyer 1973), so the two O(N
    sqrt K) tables take N (B + A) real exponentials, not N K.  At
    x_j = 2 pi j/N each phase e^{ikx_j} is the root of unity
    e^{2 pi i m/N}, m = jk mod N, read from a table, so it carries no
    rounding of k x_j.  A row's samples are the baby table times its
    (B, A) coefficient table, one matrix product per block of nodes,
    times the giant table and summed over a.  A block's product stays
    within ``_BLOCK_BYTES`` and small enough that BLAS keeps it on one
    thread, so the samples do not depend on the thread count.

    Raises:
        SizeMismatchError: the coefficients or the contour do not have the
            grid's N nodes.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    grid._check_length(coeffs, stacked=True)
    grid._check_length(contour.h)
    n = grid.n_modes
    rows = coeffs.reshape(-1, n)
    live = (np.abs(rows) > 0.0).any(axis=0)
    # an all-zero stack samples mode 0, so every table below has an entry
    live[0] |= not live.any()
    k = grid.wavenumbers[live]
    baby = math.isqrt(k.max() - k.min() + 1)
    giant, k_baby = np.divmod(k, baby)
    # the wavenumbers of the baby table's columns, then of the giant table's
    steps = np.concatenate([np.arange(baby), baby * np.arange(giant.min(), giant.max() + 1)])
    table = np.zeros((len(rows), baby, len(steps) - baby), dtype=complex)
    table[:, k_baby, giant - giant.min()] = rows[:, live]
    out = np.empty_like(rows)
    step = max(1, _BLOCK_BYTES // (16 * len(steps)))
    for start in range(0, n, step):
        nodes = slice(start, start + step)
        # N is a power of two, so & (N - 1) is the residue mod N, also for k < 0
        index = np.outer(np.arange(n)[nodes], steps)
        index &= n - 1
        phases = _roots_of_unity(n)[index]
        decay = np.exp(np.outer(-contour.sign * contour.h[nodes], steps))
        phases.real *= decay
        phases.imag *= decay
        for values, coefficients in zip(out, table):
            samples = phases[:, :baby] @ coefficients
            samples *= phases[:, baby:]
            samples.sum(axis=1, out=values[nodes])
    return out.reshape(coeffs.shape)


@functools.lru_cache(maxsize=8)
def _roots_of_unity(n_modes: int) -> NDArray[np.complexfloating]:
    """Read-only e^{2 pi i m/N}, m = 0..N-1: an O(N) table."""
    roots = np.exp(1j * SpectralGrid(n_modes).nodes)
    roots.flags.writeable = False
    return roots


@dataclass
class KernelWorkspace:
    """Node samples shared by the singular quadratures: O(N) arrays only.

    On the flat grid every array is real float64; on a lifted contour they
    are complex.  The pairwise quantities are formed block by block in
    :func:`pair_sweep` and never held as N x N arrays.

    zeta: node positions (real grid nodes, or complex lifted-contour nodes).
    jac: dw/du weights (ones on the flat torus).
    der: node samples, shape (max_order + 1, 2, N): der[k] = (d^k z1, d^k z2),
        identity parts included, so der[0] is the curve and der[1, 0] = z1'.
    flat: whether the samples are real (the flat grid), set from ``der``.
    chord_arc: the chord-arc constant and its node pair, kept by every
        :func:`pair_sweep` of the workspace; None before the first
        (:func:`chord_arc_of` sweeps then).
    """

    zeta: NDArray
    jac: NDArray
    der: NDArray = field(repr=False)
    flat: bool = field(init=False)
    chord_arc: tuple[float, tuple[int, int]] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.flat = not np.iscomplexobj(self.der)

    @property
    def z1(self) -> NDArray:
        return self.der[0, 0]

    @property
    def z2(self) -> NDArray:
        return self.der[0, 1]

    @property
    def tangent_sq(self) -> NDArray:
        return self.der[1, 0] ** 2 + self.der[1, 1] ** 2

    @functools.cached_property
    def exp_map(self) -> tuple[NDArray, NDArray, NDArray]:
        """Flat grid: per-node factors of the pair geometry, from w = e^{iZ}, Z = z1 + i z2.

        Returns (u, v, c) with u + iv = w and c = e^{z2} / sqrt(2), so that
        den_ij = cosh(dz2) - cos(dz1) = q_ij c_i c_j, q = |w_i - w_j|^2.
        O(N) transcendentals, taken once.
        """
        scale = np.exp(-self.z2)
        return scale * np.cos(self.z1), scale * np.sin(self.z1), np.sqrt(0.5) / scale

    @functools.cached_property
    def exp_factors(self) -> tuple[tuple[NDArray, NDArray], tuple[NDArray, NDArray]]:
        """Flat grid: factor tables of the pair geometry, for :meth:`Block.product`.

        Four rank-2 entries (:func:`factor_tables`): u_i - u_j and v_i - v_j,
        the broadcast differences bit for bit up to a zero's sign, which q
        squares away; c_i c_j, the broadcast outer product bit for bit
        (c > 0) and about 2.5x faster; and 2 (v_i u_j - u_i v_j), K's cross
        product, where a fused multiply-add may round once where the
        broadcast form rounds twice.  Returns the tables of the first three,
        which :func:`_flat_geometry` forms by one product, and those of the
        cross product, which :func:`flat_kernel` forms.  O(N), formed once.
        """
        u, v, c = self.exp_map
        # factor_tables' layout, filled in place: its terms difference(u),
        # difference(v), ([c, 0], [c, 0]) and ([2v, -2u], [u, v]), row by row
        left, right = np.empty((4, 2, len(u))), np.empty((4, 2, len(u)))
        for table, rows in ((left, (u, 1.0, v, 1.0, c, 0.0, 2.0 * v, -2.0 * u)),
                            (right, (1.0, -u, 1.0, -v, c, 0.0, u, v))):
            for row, value in zip(table.reshape(8, -1), rows):
                row[...] = value
        return (left[:3].transpose(0, 2, 1), right[:3]), (left[3].T, right[3])

    @functools.cached_property
    def half_factors(self) -> tuple[NDArray, NDArray]:
        """Factor tables of the half differences of the PV kernel's cotangents, for :meth:`Block.product`.

        One term :func:`~muskat.grid.difference` of x/2 for each x in Re Z+,
        Re Z-, Im Z+, Im Z-, Re zeta and Im zeta, Z+- = z1 +- i z2, on a
        lifted contour; on the flat grid, where Z- is the conjugate of Z+
        and zeta is real, for z1, z2 and zeta.  Each entry is the broadcast
        (x_i - x_j)/2 bit for bit up to a zero's sign.  O(N), formed once.
        """
        plus, minus = self.z1 + 1j * self.z2, self.z1 - 1j * self.z2
        parts = (plus.real, minus.real, plus.imag, minus.imag, self.zeta.real, self.zeta.imag)
        return factor_tables(*(difference(0.5 * x) for x in (parts[::2] if self.flat else parts)))


def build_workspace(
    state: InterfaceState,
    grid: SpectralGrid,
    contour: LiftedContour | None = None,
    max_order: int = 2,
) -> KernelWorkspace:
    """Node samples of a state and its derivatives up to ``max_order``: the one sampler.

    With ``contour=None`` the workspace is real: the curve is real (the
    integrator symmetrizes every state), so taking ``.real`` of the sampled
    values only drops imaginary round-off, which up to six derivatives
    amplify to about 3e-7 relative.  On a lifted contour it is complex.
    """
    pair, n = state.coeffs, grid.n_modes
    grid._check_length(pair, stacked=True)
    # the derivatives in one multiply by the grid's (ik)^k rows, Nyquist zeroed
    # afterwards as SpectralGrid.derivative does; order 0 is the pair itself
    stack = np.empty((max_order + 1, 2, n), dtype=complex)
    stack[0] = pair
    np.multiply(pair, grid.derivative_multipliers[1:max_order + 1, None], out=stack[1:])
    stack[1:, :, n // 2] = 0.0
    stack = stack.reshape(-1, n)
    if contour is None:
        zeta, jac = grid.nodes, np.ones(n)
        # a copy, so the workspace does not keep the complex transform alive
        samples = grid.from_spectral(stack).real.copy()
    else:
        zeta, jac = contour.complex_nodes(grid), contour.jacobian()
        samples = evaluate_on_contour(stack, grid, contour)
    der = samples.reshape(max_order + 1, 2, n)
    # z1's identity part: the node position at order 0, slope 1 at order 1 (none if max_order = 0)
    der[0, 0] += zeta
    der[1:2, 0] += 1.0
    return KernelWorkspace(zeta=zeta, jac=jac, der=der)


def _flat_geometry(ws: KernelWorkspace, block: Block) -> NDArray:
    """The exp-map geometry of a flat block, one (3, *shape) stack in the calling thread's buffers.

    q = |w_i - w_j|^2, diagonal 1, so that cosh(dz2) - cos(dz1) = q_ij c_i c_j
    (:attr:`KernelWorkspace.exp_map`); a scratch array, which
    :func:`flat_kernel` takes over; and the chord-arc ratio
    (c_i c_j) q / distance^2, diagonal inf.  Delta u, Delta v and c_i c_j
    come from one product of :attr:`KernelWorkspace.exp_factors`.
    """
    q, scratch, ratio = stack = block.product(*ws.exp_factors[0], out=block.buffers("geometry", 3))
    np.square(stack[:2], out=stack[:2])
    q += scratch
    ratio *= q
    block.fill_diagonal(q, 1.0)
    ratio /= block.distance[1]
    block.fill_diagonal(ratio, np.inf)
    return stack


def _lifted_geometry(ws: KernelWorkspace, block: Block) -> tuple[NDArray, ...]:
    """The cotangent geometry of a lifted block: (halves, cotangents, parts, ratio).

    From one product of :attr:`KernelWorkspace.half_factors`, the
    cotangent geometry of Z+- = z1 +- i z2
    (:func:`muskat.contour_ops.pairwise_cot`):
    halves: the half differences of Re Z+, Re Z-, Im Z+, Im Z-, Re zeta and
        Im zeta, so a, then b, of Z+ and Z- stack; a becomes T = tan a.
    cotangents: six complex block arrays; the first two are free for
        :func:`pv_terms`, the rest hold ``parts``.
    parts: (den, 1 + T^2, sinh b, |sin|) of Z+ and Z-, the two
        denominators of K's cotangents.
    ratio: 2 |sin(dZ+/2)| |sin(dZ-/2)| / distance^2, that is
        |cosh(dz2) - cos(dz1)| / distance^2, each |sin| read from its
        cotangent's denominator (:func:`muskat.contour_ops._sin_modulus`),
        diagonal inf.
    Every array lives in the calling thread's block buffers, those of the
    flat sweep, float arrays two to a complex one.
    """
    halves = block.buffers("geometry", 3, complex).view(float).reshape(6, *block.shape)
    cotangents = block.buffers("integrands", 6, complex)
    parts = cotangents[2:].view(float).reshape(4, 2, *block.shape)
    block.product(*ws.half_factors, out=halves)
    tan_a = np.tan(halves[:2], out=halves[:2])
    _cot_denominator(tan_a, halves[2:4], block, parts)
    sin_plus, sin_minus = _sin_modulus(*parts[:2], out=parts[3])
    # |sin| by |sin|: the product of their squares may overflow
    ratio = np.multiply(sin_minus, sin_plus, out=sin_minus)
    ratio *= 2.0
    ratio /= _lifted_distance_sq(block, halves[5], out=sin_plus)
    block.fill_diagonal(ratio, np.inf)
    return halves, cotangents, parts, ratio


def _lifted_distance_sq(block: Block, b_zeta: NDArray, out: NDArray | None = None) -> NDArray:
    """(||Re(zi - zj)|| + |Im(zi - zj)|)^2 over a lifted block's pairs, diagonal 1.

    The real parts of the lifted nodes are the grid nodes, whose wrapped
    distance is the block's; |Im(zi - zj)| is twice ``b_zeta``, the half
    difference of Im zeta, exactly.  Into ``out`` when given.
    """
    out = np.multiply(np.abs(b_zeta, out=out), 2.0, out=out)
    return np.square(np.add(out, block.distance[0], out=out), out=out)


def flat_kernel(ws: KernelWorkspace, block: Block, geometry: NDArray) -> NDArray:
    """K(x_i, x_j) over a flat block in the exp-map form, zero on the diagonal.

    2 (v_i u_j - u_i v_j) / q, in the scratch array of the block's
    ``geometry`` (:func:`pair_sweep`): the cross product vanishes on the
    diagonal, where q = 1.  Its BLAS product may round K_ij and K_ji apart
    by an ulp; the sums take each pair's mirror from the pair, as -K_ij,
    so they do not rely on the cross product's antisymmetry.
    """
    kern = block.product(*ws.exp_factors[1], out=geometry[1])
    kern /= geometry[0]
    return kern


def pv_terms(ws: KernelWorkspace, block: Block, geometry) -> tuple[NDArray, NDArray]:
    """The PV integrand's two terms over a block: K and cot(dzeta/2).

    Both are cotangents, zero on the diagonal and exactly odd.  On the
    flat grid one product of :attr:`KernelWorkspace.half_factors` gives
    the halves of z1, z2 and the nodes, in the block's buffers; Z- is
    the conjugate of Z+, so K = Re cot(dZ+/2) = T / den in real
    arithmetic, the real part of :func:`muskat.contour_ops.pairwise_cot`
    by the same operations, and the second is ``pairwise_cot`` of the
    nodes.  A lifted block forms K = (cot(dZ+/2) + cot(dZ-/2)) / 2 from
    the T, b and denominators of its ``geometry`` (:func:`pair_sweep`;
    b takes cosh b), then cot(dzeta/2) from its halves of zeta in Z+'s
    arrays.
    """
    if ws.flat:
        a, b, a_zeta = block.product(*ws.half_factors, out=block.buffers("integrands", 3))
        kern = np.tan(a, out=a)
        kern /= _cot_denominator(kern, b, block)[0]
        return kern, pairwise_cot(a_zeta, None, block)
    halves, cotangents, parts, _ = geometry
    kern, cot = cotangents[:2]
    (tan_a, b), (tan_zeta, b_zeta) = halves[:4].reshape(2, 2, *block.shape), halves[4:]
    # cot(dZ+/2) in the cotangent's array and cot(dZ-/2) in K's
    _cot_from_denominator(tan_a, b, [*parts[:3], b], out=cotangents[1::-1])
    kern += cot
    kern *= 0.5
    return kern, _cot(np.tan(tan_zeta, out=tan_zeta), b_zeta, block, parts[:, 0], out=cot)


def pair_sweep(
    ws: KernelWorkspace,
    grid: SpectralGrid,
    sums: Callable[[Block, Any], Sequence[tuple[NDArray, NDArray]]] | None = None,
    floor: float | None = None,
) -> tuple[list[NDArray], tuple[float, tuple[int, int]]]:
    """Row quadratures of kernel integrands and the chord-arc constant, in one sweep.

    For each block of :meth:`SpectralGrid.pair_quadrature` this writes
    the pair geometry into the calling thread's buffers: the flat exp-map
    q and ratio (:func:`_flat_geometry`), or the lifted cotangent
    denominators and ratio (:func:`_lifted_geometry`), from the
    workspace's factor tables.  Its chord-arc minimum |den| / distance^2 is
    taken before anything divides by q.  ``sums(block, geometry)`` then
    returns the block's row sums and mirror column sums of each
    integrand, the same number for every block, which ``pair_quadrature``
    adds up; it forms K through :func:`flat_kernel` or :func:`pv_terms`.
    The geometry's arrays are reused by the next block and sweep on the
    same thread, so ``sums`` must not start another sweep.

    Args:
        ws: Node samples.
        grid: Collocation grid.
        sums: Block sums; None for the chord-arc constant alone.
        floor: Chord-arc floor, or None to accept any geometry.

    Returns:
        The quadratures (none without ``sums``), and the chord-arc constant
        with its node pair (i < j), which is also kept as ``ws.chord_arc``,
        raise or not: it depends on the geometry alone.  The constant is
        the running minimum over the blocks: the first block wins a tie,
        and the first block whose minimum is NaN wins over every other.

    Raises:
        DegenerateGeometryError: chord-arc constant below the floor, with
            the offending node pair and ratio.  From the first block under
            the floor on, no integrand is built; the sweep finishes the
            minimum on the geometry alone.
    """
    form = _flat_geometry if ws.flat else _lifted_geometry
    least, at, degenerate = None, None, False

    def sweep(block: Block):
        nonlocal least, at, degenerate
        geometry = form(ws, block)
        ratio = geometry[-1]
        k = ratio.argmin()
        value = ratio.flat[k]
        # np.argmin's rules over the block minima: the first wins a tie, and the first NaN
        if least is None or value < least or (math.isnan(value) and not math.isnan(least)):
            least, at = value, (block, k)
        degenerate = degenerate or (floor is not None and value < floor)
        return () if sums is None or degenerate else sums(block, geometry)

    totals = grid.pair_quadrature(sweep, ws.der.dtype)
    chord_arc, pair = float(least), at[0].pair(at[1])
    ws.chord_arc = (chord_arc, pair)
    if degenerate:
        raise DegenerateGeometryError(
            f"chord-arc constant {chord_arc:.3e} below floor {floor:.3e} at pair {pair}",
            pair=pair, ratio=chord_arc,
        )
    return totals, (chord_arc, pair)


def chord_arc_of(ws: KernelWorkspace, grid: SpectralGrid) -> tuple[float, tuple[int, int]]:
    """The chord-arc constant of a workspace with its node pair, as its sweeps kept it.

    A workspace that no sweep has read yet takes one over its geometry
    alone, with no floor.
    """
    if ws.chord_arc is None:
        pair_sweep(ws, grid)
    return ws.chord_arc


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
    workspace: KernelWorkspace | None = None,
) -> NDArray[np.complexfloating]:
    """Muskat right-hand side d/dt coeffs in coefficient space, shape (2, N).

    Trapezoid rule with analytic diagonal limits (spectrally accurate).  The
    normalization is (rho2 - rho1)/(2 pi) = 1, which all diagnostics assume;
    :func:`muskat.integrator.galerkin_rhs` applies any other density jump.

    Args:
        state: Interface state (coefficients).
        grid: Collocation grid.
        floor: Chord-arc floor; below it the evaluation is rejected.
        workspace: The state's flat order-2 sample, for a caller that keeps
            it: the sweep leaves the chord-arc constant on it
            (:attr:`KernelWorkspace.chord_arc`).  Built here when None.

    Raises:
        DegenerateGeometryError: chord-arc constant below the floor.
    """
    ws = build_workspace(state, grid, None, 2) if workspace is None else workspace
    sums, finish = kernel_difference_sums(ws, grid, 1)
    (total,), _ = pair_sweep(
        ws, grid, lambda block, geometry: [sums(block, flat_kernel(ws, block, geometry))], floor)
    return grid.to_spectral(finish(total))


def kernel_difference_sums(
    ws: KernelWorkspace, grid: SpectralGrid, order: int
) -> tuple[Callable[[Block, NDArray], tuple[NDArray, NDArray]],
           Callable[[NDArray], NDArray]]:
    """Block sums of K(x, u) (d^k z_mu(x) - d^k z_mu(u)), mu = 1, 2, on the flat grid, and their finish.

    ``ws`` holds derivatives up to k + 1.  Order 1 is the right-hand side in
    physical space, order 5 the dangerous term of its fourth derivative.
    With A = [1, d^k z1, d^k z2] (N x 3), sum_j K_ij (a_i - a_j) is
    a_i (K 1)_i - (K a)_i, linear in K.  So the sweep adds up one (N, 3)
    integrand: K A over each block, and for the mirror -K_ij of each pair
    beyond the diagonal sub-block, -K^T A over the tail, two matrix
    products per block and no other arithmetic.  ``sums(block, kern)``
    takes the block's K (:func:`flat_kernel`), so one K serves several
    orders, and returns the block's pair.  ``finish`` turns that
    quadrature into the two row quadratures, one (2, N) array, with the
    diagonal limit 2 z1' d^{k+1} z_mu / T, T = (z1')^2 + (z2')^2.
    """
    columns = np.empty((len(ws.z1), 3))
    columns[:, 0], columns[:, 1:] = 1.0, ws.der[order].T
    negated = -columns
    diagonals = 2.0 * ws.der[1, 0] * ws.der[order + 1] / ws.tangent_sq

    def sums(block: Block, kern: NDArray) -> tuple[NDArray, NDArray]:
        return kern @ columns[block.cols], kern[:, block.width:].T @ negated[block.rows]

    def finish(total: NDArray) -> NDArray:
        return columns[:, 1:].T * total[:, 0] - total[:, 1:].T + grid.dx * diagonals

    return sums, finish


def kernel_pv_integral(
    ws: KernelWorkspace, grid: SpectralGrid, floor: float | None
) -> NDArray:
    """PV int K dw per node, from a workspace with derivatives up to order 2.

    a(z, w) = K(z, w) - [z1'/( (z1')^2 + (z2')^2 )] cot((z - w)/2) is bounded,
    so the trapezoid applies; the diagonal limit is

        2 z1' (z1' z1'' + z2' z2'') / T^2 - z1'' / T,   T = (z1')^2 + (z2')^2.

    Because the principal value of the bare cotangent over the full contour
    vanishes, the integral of a equals PV int K dw.  K is the cotangent
    mean of :func:`pv_terms`, so both terms are cotangents of node
    differences, :func:`muskat.contour_ops.pairwise_cot`, and their poles
    and rounding cancel.  Both are exactly odd, so the mirror a(w, z) is
    [z1'/T](w) cot((z - w)/2) - K(z, w).  a and its mirror are formed
    elementwise, where the poles cancel; the weights dw/du and the sums are
    two matrix-vector products per block.

    Raises:
        DegenerateGeometryError: chord-arc constant below the floor.
    """
    tangent_sq = ws.tangent_sq
    (d1z1, d1z2), (d2z1, d2z2) = ws.der[1:3]
    ratio = d1z1 / tangent_sq
    slope_sum = d1z1 * d2z1 + d1z2 * d2z2
    diag = 2.0 * d1z1 * slope_sum / tangent_sq**2 - d2z1 / tangent_sq
    diag = diag * ws.jac

    def sums(block: Block, geometry) -> list[tuple[NDArray, NDArray]]:
        rows, cols = block.rows, block.cols
        kern, cot = pv_terms(ws, block, geometry)
        values = kern - ratio[rows, None] * cot
        # the mirror, in the cotangent's array; both vanish on the diagonal
        cot *= ratio[None, cols]
        cot -= kern
        return [(values @ ws.jac[cols] + diag[rows], ws.jac[rows] @ cot[:, block.width:])]

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
