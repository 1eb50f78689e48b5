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
    build_workspace,
    evaluate_on_contour,
    kernel_pv_integral,
)
from .errors import DegenerateParametrizationError
from .grid import SpectralGrid

TANGENT_FLOOR = 1e-12


def rt_unperturbed(state: InterfaceState, grid: SpectralGrid) -> NDArray[np.floating]:
    """sigma(x) = -2*pi*z1'(x) / ((z1'(x))^2 + (z2'(x))^2) on the real grid."""
    d1, d2 = state.derivative_values(grid)
    d1 = d1.real
    d2 = d2.real
    tangent_sq = d1**2 + d2**2
    if tangent_sq.min() < TANGENT_FLOOR:
        raise DegenerateParametrizationError(
            f"tangent norm vanishes (min {tangent_sq.min():.3e})"
        )
    return -2.0 * np.pi * d1 / tangent_sq


def turnover_indicator(state: InterfaceState, grid: SpectralGrid) -> float:
    """min over nodes of z1'; positive iff the sampled interface is a graph."""
    d1, _ = state.derivative_values(grid)
    return float(d1.real.min())


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
    tangent_sq = ws.tangent_sq
    if np.abs(tangent_sq).min() < TANGENT_FLOOR:
        raise DegenerateParametrizationError("complex tangent norm vanishes on contour")
    inv_jac = 1.0 / ws.jac
    pv_kernel = kernel_pv_integral(ws, grid, floor)
    first = (-2.0 * np.pi * ws.der[(1, 1)] / tangent_sq * inv_jac).real
    second = ((pv_kernel + 1j * np.asarray(h_t)) * inv_jac).imag
    return first + second


def _h4_norm_sq_of_difference(
    dc1: NDArray, dc2: NDArray, grid: SpectralGrid, contour: LiftedContour | None
) -> float:
    """Squared H4 norm of the coefficient-space difference (dc1, dc2).

    ||f||^2 = sum_{+,-} int_{Gamma_pm} |f|^2 dRe + sum_{+,-} int |d^4 f|^2 dRe,
    summed over both curve components.  The flat case integrates over the
    torus twice, matching the h -> 0 limit of the two contours.
    """
    stack = np.stack([dc1, grid.derivative(dc1, 4), dc2, grid.derivative(dc2, 4)])
    if contour is None:
        samples, weight = grid.from_spectral(stack), 2.0
    else:
        lifts = (LiftedContour(contour.h, sign) for sign in (+1, -1))
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
    dc1 = s1.p1 - s2.p1
    dc2 = s1.p2 - s2.p2
    return float(np.sqrt(_h4_norm_sq_of_difference(dc1, dc2, grid, contour)))


def h4_norm(
    state: InterfaceState,
    grid: SpectralGrid,
    contour: LiftedContour | None = None,
) -> float:
    """H4 size of the periodic parts (distance to the flat interface)."""
    return h4_distance(state, InterfaceState.flat(grid), grid, contour)
