"""Rayleigh-Taylor monitors and the H4 distance between interface states.

The sign of the Rayleigh-Taylor function decides which time direction the
linearized evolution damps: a graph has sigma < 0 everywhere and is stable
forward in time, an overturned interface changes sign.  The generalized
variant evaluates on a lifted contour and folds in the motion of the
contour itself, so it is the monitor for runs on a height schedule.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .contour_ops import LiftedContour
from .core import (
    DEFAULT_CHORD_ARC_FLOOR,
    InterfaceState,
    KernelWorkspace,
    build_workspace,
    evaluate_on_contour,
    kernel_pv_integral,
)
from .errors import DegenerateParametrizationError
from .grid import SpectralGrid

TANGENT_FLOOR = 1e-12


def rt_sigma(ws: KernelWorkspace) -> NDArray:
    """-2*pi*z1' / ((z1')^2 + (z2')^2) from a workspace's slopes; complex on a lifted contour."""
    tangent_sq = ws.tangent_sq
    smallest = np.abs(tangent_sq).min()
    if smallest < TANGENT_FLOOR:
        raise DegenerateParametrizationError(f"tangent norm vanishes (min {smallest:.3e})")
    return -2.0 * np.pi * ws.der[1, 0] / tangent_sq


def rt_unperturbed(state: InterfaceState, grid: SpectralGrid) -> NDArray[np.floating]:
    """sigma(x) = -2*pi*z1'(x) / ((z1'(x))^2 + (z2'(x))^2) on the real grid."""
    return rt_sigma(build_workspace(state, grid, None, 1))


def rt_generalized(
    state: InterfaceState,
    grid: SpectralGrid,
    contour: LiftedContour,
    h_t: NDArray,
    floor: float = DEFAULT_CHORD_ARC_FLOOR,
) -> NDArray[np.floating]:
    """Generalized Rayleigh-Taylor function on the upper contour.

    RT(zeta) = Re(-2*pi*z1'/( (z1')^2 + (z2')^2 ) * (1 + i h')^{-1})
             + Im((PV int K dw + i h_t) * (1 + i h')^{-1}),

    with the principal-value kernel integral evaluated through its bounded
    subtracted form (see :func:`muskat.core.kernel_pv_integral`).  Positivity of RT is
    the stability requirement for solving backward in time on the moving
    strip; runs stop as soon as it fails.
    """
    if contour.sign != +1:
        raise ValueError("the generalized RT monitor is defined on the upper contour")
    ws = build_workspace(state, grid, contour, 2)
    sigma = rt_sigma(ws)
    inv_jac = 1.0 / ws.jac
    pv_kernel = kernel_pv_integral(ws, grid, floor)
    first = (sigma * inv_jac).real
    second = ((pv_kernel + 1j * np.asarray(h_t)) * inv_jac).imag
    return first + second


def _h4_norm_sq_of_difference(
    diff: NDArray, grid: SpectralGrid, contour: LiftedContour | None
) -> float:
    """Squared H4 norm of the coefficient-space difference ``diff``, shape (2, N).

    ||f||^2 = sum_{+,-} int_{Gamma_pm} |f|^2 dRe + sum_{+,-} int |d^4 f|^2 dRe,
    summed over both curve components.  The flat case integrates over the
    torus twice, matching the h -> 0 limit of the two contours.
    """
    # rows dc1, d^4 dc1, dc2, d^4 dc2
    stack = np.stack([diff, grid.derivative(diff, 4)], axis=1).reshape(4, -1)
    if contour is None:
        samples, weight = grid.from_spectral(stack), 2.0
    else:
        lifts = (contour.with_sign(sign) for sign in (+1, -1))
        samples, weight = np.concatenate([evaluate_on_contour(stack, grid, s) for s in lifts]), 1.0
    return weight * sum(grid.quadrature(np.abs(vals) ** 2).real for vals in samples)


def h4_distance(
    s1: InterfaceState,
    s2: InterfaceState,
    grid: SpectralGrid,
    contour: LiftedContour | None = None,
) -> float:
    """H4 distance between two states on the strip bounded by Gamma_pm.

    The identity parts of z1 cancel in the difference, so band-limited
    coefficient evaluation on the contours is exact.  ``contour=None``
    integrates on the flat torus (both boundary curves collapsed).
    """
    return float(np.sqrt(_h4_norm_sq_of_difference(s1.coeffs - s2.coeffs, grid, contour)))

