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

The pairwise geometry lives in a :class:`KernelWorkspace`.  On the flat grid
it is real float64 (the curve is real), its denominator is evaluated in the
cancellation-free form 2 (sin^2(dz1/2) + sinh^2(dz2/2)), and the grid-only
wrapped-distance matrix of the chord-arc check is cached per N.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .contour_ops import LiftedContour, pairwise_cot
from .errors import DegenerateGeometryError
from .grid import SpectralGrid, conjugate_symmetrize, is_conjugate_symmetric

DEFAULT_CHORD_ARC_FLOOR = 1e-4


@dataclass
class InterfaceState:
    """Fourier representation of the curve: p1 = coeffs of z1(a) - a, p2 of z2."""

    p1: NDArray[np.complexfloating]
    p2: NDArray[np.complexfloating]
    time: float = 0.0

    def __post_init__(self):
        self.p1 = np.asarray(self.p1, dtype=complex)
        self.p2 = np.asarray(self.p2, dtype=complex)
        if self.p1.shape != self.p2.shape:
            raise ValueError("p1 and p2 must have equal length")

    @property
    def n_modes(self) -> int:
        return len(self.p1)

    @classmethod
    def flat(cls, grid: SpectralGrid, time: float = 0.0) -> "InterfaceState":
        zero = np.zeros(grid.n_modes, dtype=complex)
        return cls(zero, zero.copy(), time)

    def copy(self) -> "InterfaceState":
        return InterfaceState(self.p1.copy(), self.p2.copy(), self.time)

    def is_real(self, tol: float = 1e-10) -> bool:
        return is_conjugate_symmetric(self.p1, tol) and is_conjugate_symmetric(self.p2, tol)

    def symmetrized(self) -> "InterfaceState":
        """Project onto real-valued curves (conjugate-symmetric coefficients)."""
        return InterfaceState(
            conjugate_symmetrize(self.p1), conjugate_symmetrize(self.p2), self.time
        )

    def values(self, grid: SpectralGrid) -> tuple[NDArray, NDArray]:
        """(z1, z2) at the grid nodes, identity part included."""
        return grid.nodes + grid.from_spectral(self.p1), grid.from_spectral(self.p2)

    def derivative_values(self, grid: SpectralGrid, order: int = 1) -> tuple[NDArray, NDArray]:
        """(d^k z1, d^k z2) at the nodes; order 1 includes the identity slope."""
        d1 = grid.from_spectral(grid.derivative(self.p1, order))
        d2 = grid.from_spectral(grid.derivative(self.p2, order))
        if order == 1:
            d1 = d1 + 1.0
        return d1, d2


@dataclass
class Tendency:
    """Coefficient-space time derivatives of (p1, p2)."""

    d1: NDArray[np.complexfloating]
    d2: NDArray[np.complexfloating]


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
    """Pairwise geometry shared by the singular quadratures.

    On the flat grid every array is real float64; on a lifted contour they
    are complex.

    zeta: node positions (real grid nodes, or complex lifted-contour nodes).
    dz1, dz2: pairwise differences of z1, z2 at those positions.
    den: cosh(dz2) - cos(dz1), evaluated as 2 (sin^2(dz1/2) + sinh^2(dz2/2))
        so that nothing cancels near the diagonal; the diagonal is patched
        to 1.
    der: per-node derivative values d^k z_mu, orders 1..max_order.
    jac: dw/du weights (ones on the flat torus).
    """

    zeta: NDArray
    dz1: NDArray
    dz2: NDArray
    den: NDArray
    der: dict = field(repr=False, default_factory=dict)
    jac: NDArray | None = None

    @property
    def tangent_sq(self) -> NDArray:
        return self.der[(1, 1)] ** 2 + self.der[(2, 1)] ** 2

    def kernel_matrix(self) -> NDArray:
        """K(x_i, x_j) with zeros on the (removable) diagonal."""
        out = np.sin(self.dz1) / self.den
        np.fill_diagonal(out, 0.0)
        return out


def build_workspace(
    state: InterfaceState,
    grid: SpectralGrid,
    contour: LiftedContour | None = None,
    max_order: int = 2,
) -> KernelWorkspace:
    """Pairwise differences, denominator and node derivatives of a state.

    With ``contour=None`` the workspace is real: the curve is real (the
    integrator symmetrizes every state), so taking ``.real`` of the sampled
    values only drops imaginary round-off, which up to six derivatives
    amplify to about 3e-7 relative.  On a lifted contour it is complex.
    """
    pair = np.stack([state.p1, state.p2])
    stack = np.concatenate([pair] + [grid.derivative(pair, k) for k in range(1, max_order + 1)])
    if contour is None:
        zeta = grid.nodes
        samples = grid.from_spectral(stack).real
    else:
        zeta = contour.complex_nodes(grid)
        samples = evaluate_on_contour(stack, grid, contour)
    z1 = zeta + samples[0]
    z2 = samples[1]
    der = {(mu, order): samples[2 * order + mu - 1]
           for order in range(1, max_order + 1) for mu in (1, 2)}
    der[(1, 1)] = der[(1, 1)] + 1.0
    dz1 = z1[:, None] - z1[None, :]
    dz2 = z2[:, None] - z2[None, :]
    den = 2.0 * (np.sin(dz1 / 2.0) ** 2 + np.sinh(dz2 / 2.0) ** 2)
    np.fill_diagonal(den, 1.0)
    jac = contour.jacobian() if contour is not None else None
    return KernelWorkspace(zeta=zeta, dz1=dz1, dz2=dz2, den=den, der=der, jac=jac)


def _wrapped_distance_sq(zeta: NDArray) -> NDArray:
    """(||Re(zi - zj)|| + |Im(zi - zj)|)^2, distance to 2*pi*Z in the real part."""
    diff = zeta[:, None] - zeta[None, :]
    re = np.abs(np.mod(diff.real + np.pi, 2.0 * np.pi) - np.pi)
    return (re + np.abs(diff.imag)) ** 2


@functools.lru_cache(maxsize=8)
def _flat_distance_sq(n_modes: int) -> NDArray:
    """Read-only wrapped-distance matrix of the N-node grid, diagonal set to 1."""
    dist_sq = _wrapped_distance_sq(SpectralGrid(n_modes).nodes)
    np.fill_diagonal(dist_sq, 1.0)
    dist_sq.flags.writeable = False
    return dist_sq


def chord_arc_from_workspace(ws: KernelWorkspace) -> tuple[float, tuple[int, int]]:
    n = len(ws.zeta)
    if np.isrealobj(ws.zeta):
        dist_sq = _flat_distance_sq(n)
    else:
        dist_sq = _wrapped_distance_sq(ws.zeta)
        np.fill_diagonal(dist_sq, 1.0)
    ratio = np.abs(ws.den) / dist_sq
    np.fill_diagonal(ratio, np.inf)
    flat_index = int(np.argmin(ratio))
    pair = (flat_index // n, flat_index % n)
    return float(ratio[pair]), pair


def chord_arc_constant(
    state: InterfaceState, grid: SpectralGrid, contour: LiftedContour | None = None
) -> float:
    """Infimum over node pairs of |cosh(dz2) - cos(dz1)| / (||Re dzeta|| + |Im dzeta|)^2.

    Returns 0 for touching or self-intersecting curves; raises nothing.
    """
    ws = build_workspace(state, grid, contour, max_order=1)
    value, _ = chord_arc_from_workspace(ws)
    return value


def guarded_workspace(
    state: InterfaceState,
    grid: SpectralGrid,
    contour: LiftedContour | None,
    max_order: int,
    floor: float,
) -> KernelWorkspace:
    """Kernel workspace of a state whose chord-arc constant clears the floor.

    Raises:
        DegenerateGeometryError: chord-arc constant below the floor, with
            the offending node pair and ratio.
    """
    ws = build_workspace(state, grid, contour, max_order=max_order)
    ca, pair = chord_arc_from_workspace(ws)
    if ca < floor:
        raise DegenerateGeometryError(
            f"chord-arc constant {ca:.3e} below floor {floor:.3e} at pair {pair}",
            pair=pair, ratio=ca,
        )
    return ws


def rhs(
    state: InterfaceState,
    grid: SpectralGrid,
    floor: float = DEFAULT_CHORD_ARC_FLOOR,
    density_jump_over_2pi: float = 1.0,
) -> Tendency:
    """Muskat right-hand side d/dt (p1, p2) in coefficient space.

    Trapezoid rule with analytic diagonal limits (spectrally accurate).

    Args:
        state: Interface state (coefficients).
        grid: Collocation grid.
        floor: Chord-arc floor; below it the evaluation is rejected.
        density_jump_over_2pi: physical prefactor (rho2 - rho1)/(2 pi); the
            default 1 is the normalization all diagnostics assume, other
            values rescale to the raw-density convention.

    Raises:
        DegenerateGeometryError: chord-arc constant below the floor.
    """
    ws = guarded_workspace(state, grid, None, 2, floor)
    values = kernel_difference_integral(ws, grid, ws.kernel_matrix(), 1)
    return Tendency(*(density_jump_over_2pi * grid.to_spectral(v) for v in values))


def kernel_difference_integral(
    ws: KernelWorkspace, grid: SpectralGrid, kern: NDArray, order: int
) -> tuple[NDArray, NDArray]:
    """Row quadrature of K(x, u) (d^k z_mu(x) - d^k z_mu(u)), per component mu.

    ``kern`` is ``ws.kernel_matrix()``; ``ws`` holds derivatives up to k + 1.
    The diagonal limit is 2 z1' d^{k+1} z_mu / T, T = (z1')^2 + (z2')^2.
    Order 1 is the right-hand side in physical space, order 5 the dangerous
    term of its fourth derivative.
    """
    tangent_sq = ws.tangent_sq
    results = []
    for mu in (1, 2):
        dz = ws.der[(mu, order)]
        diag = 2.0 * ws.der[(1, 1)] * ws.der[(mu, order + 1)] / tangent_sq
        results.append(grid.row_quadrature(kern * (dz[:, None] - dz[None, :]), diag))
    return results[0], results[1]


def kernel_pv_integral(ws: KernelWorkspace, grid: SpectralGrid) -> NDArray:
    """PV int K dw per node, from a workspace with derivatives up to order 2.

    a(z, w) = K(z, w) - [z1'/( (z1')^2 + (z2')^2 )] cot((z - w)/2) is bounded,
    so the trapezoid applies; the diagonal limit is

        2 z1' (z1' z1'' + z2' z2'') / T^2 - z1'' / T,   T = (z1')^2 + (z2')^2.

    Because the principal value of the bare cotangent over the full contour
    vanishes, the integral of a equals PV int K dw.
    """
    tangent_sq = ws.tangent_sq
    ratio = ws.der[(1, 1)] / tangent_sq
    integrand = ws.kernel_matrix() - ratio[:, None] * pairwise_cot(ws.zeta)
    slope_sum = ws.der[(1, 1)] * ws.der[(1, 2)] + ws.der[(2, 1)] * ws.der[(2, 2)]
    diag = 2.0 * ws.der[(1, 1)] * slope_sum / tangent_sq**2 - ws.der[(1, 2)] / tangent_sq
    if ws.jac is not None:
        integrand = integrand * ws.jac[None, :]
        diag = diag * ws.jac
    return grid.row_quadrature(integrand, diag)


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
    return kernel_pv_integral(guarded_workspace(state, grid, contour, 2, floor), grid)
