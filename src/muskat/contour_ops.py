"""Singular integral operators on lifted contours x +/- i h(x).

The half-Laplacian has a contour analogue obtained by moving the cotangent
kernel onto the curve Gamma = {x + i s h(x)}:

    L_Gamma F(z) = -(1/pi) int_Gamma (1/2) cot((z - w)/2) (F'(z) - F'(w)) dw.

For constant h this reduces exactly to the flat operator acting on the
boundary trace.  The principal value of the bare cotangent kernel over a
full lifted contour vanishes; numerically we realize that through the
subtracted form, whose integrand is bounded with an explicit limit at the
diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidContourError
from .grid import SpectralGrid


@dataclass
class LiftedContour:
    """Curve {x + i*sign*h(x)} over the periodic grid.

    h must be strictly positive and h_prime must be consistent with the
    spectral derivative of h (checked on construction).
    """

    h: NDArray[np.floating]
    h_prime: NDArray[np.floating]
    sign: int = +1
    _h_second: NDArray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        self.h_prime = np.asarray(self.h_prime, dtype=float)
        if self.sign not in (+1, -1):
            raise InvalidContourError(f"sign must be +1 or -1, got {self.sign}")
        if self.h.min() <= 0.0:
            raise InvalidContourError(f"contour height must be positive, min={self.h.min()}")
        grid = SpectralGrid(len(self.h))
        spectral = grid.from_spectral(grid.derivative(grid.to_spectral(self.h))).real
        if np.abs(spectral - self.h_prime).max() > 1e-8 * max(1.0, np.abs(self.h_prime).max()):
            raise InvalidContourError("h_prime is not the spectral derivative of h")

    @classmethod
    def from_height(cls, grid: SpectralGrid, h_values: NDArray, sign: int = +1) -> "LiftedContour":
        """Build a contour from height samples, differentiating spectrally."""
        h_values = np.asarray(h_values, dtype=float)
        hp = grid.from_spectral(grid.derivative(grid.to_spectral(h_values))).real
        return cls(h_values, hp, sign)

    def h_second(self, grid: SpectralGrid) -> NDArray:
        if self._h_second is None:
            c = grid.to_spectral(self.h)
            self._h_second = grid.from_spectral(grid.derivative(c, 2)).real
        return self._h_second

    def complex_nodes(self, grid: SpectralGrid) -> NDArray[np.complexfloating]:
        return grid.nodes + 1j * self.sign * self.h

    def jacobian(self) -> NDArray[np.complexfloating]:
        """dw/du along the contour: 1 + i*sign*h'(u)."""
        return 1.0 + 1j * self.sign * self.h_prime


def pairwise_cot(zeta: NDArray) -> NDArray:
    """cot((zeta_i - zeta_j)/2) over node pairs, with a zero diagonal and no 0/0 formed."""
    half = (zeta[:, None] - zeta[None, :]) / 2.0
    sin_half = np.sin(half)
    np.fill_diagonal(sin_half, 1.0)
    out = np.cos(half) / sin_half
    np.fill_diagonal(out, 0.0)
    return out


def pv_cot_integral(grid: SpectralGrid, contour: LiftedContour | None = None) -> NDArray:
    """PV of int cot((z - w)/2) dw over the contour, per node z.

    On the flat torus the principal value vanishes by odd symmetry; the
    equispaced trapezoid with the diagonal node set to 0 realizes this
    exactly.  On a lifted contour the flat kernel is subtracted, leaving a
    bounded integrand whose diagonal limit is -i*sign*h''/(1 + i*sign*h').
    The result should vanish to quadrature accuracy.
    """
    flat = pairwise_cot(grid.nodes)
    if contour is None:
        return grid.row_quadrature(flat, 0.0)

    jac = contour.jacobian()
    integrand = pairwise_cot(contour.complex_nodes(grid)) * jac[None, :] - flat
    hpp = contour.h_second(grid)
    return grid.row_quadrature(integrand, -1j * contour.sign * hpp / jac)


def lambda_gamma(
    f_samples: NDArray,
    f_prime_samples: NDArray,
    contour: LiftedContour,
    grid: SpectralGrid,
) -> NDArray[np.complexfloating]:
    """Contour half-Laplacian applied to samples of a holomorphic function.

    Args:
        f_samples: F evaluated at the contour nodes x_j + i*sign*h(x_j)
            (kept for interface symmetry; only F' enters the kernel).
        f_prime_samples: F' at the same nodes, supplied by the caller.
        contour: The lifted contour.
        grid: Collocation grid carrying the parameter u.

    Returns:
        L_Gamma F at the contour nodes.  The integrand is bounded at the
        diagonal; its limit 2 F''(z) (1 + i*sign*h'(x)) is used there, with
        F'' recovered spectrally from the supplied F' samples.
    """
    f_prime_samples = np.asarray(f_prime_samples, dtype=complex)
    grid._check_length(f_prime_samples)
    jac = contour.jacobian()
    dfp = f_prime_samples[:, None] - f_prime_samples[None, :]
    integrand = pairwise_cot(contour.complex_nodes(grid)) * dfp * jac[None, :]
    # F''(z) = (d/du F'(w(u))) / w'(u)
    fpp = grid.from_spectral(grid.derivative(grid.to_spectral(f_prime_samples))) / jac
    return -(1.0 / (2.0 * np.pi)) * grid.row_quadrature(integrand, 2.0 * fpp * jac)


def garding_form(
    a_values: NDArray,
    b_values: NDArray,
    f_values: NDArray,
    grid: SpectralGrid,
) -> float:
    """Re <(a Lambda + b D) f, f> with D = (1/i) d/dx, by trapezoid.

    For real a >= |b| this is bounded below by -C ||f||^2 with a universal
    constant; the operators are applied spectrally to the samples of f.
    """
    f_values = np.asarray(f_values, dtype=complex)
    grid._check_length(f_values)
    c = grid.to_spectral(f_values)
    lam_f = grid.from_spectral(grid.lambda_op(c))
    d_f = grid.from_spectral(grid.derivative(c)) / 1j
    integrand = (np.asarray(a_values) * lam_f + np.asarray(b_values) * d_f) * np.conj(f_values)
    return float(grid.quadrature(integrand).real)
