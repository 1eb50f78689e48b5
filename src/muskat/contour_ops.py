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
from .grid import Block, SpectralGrid


@dataclass
class LiftedContour:
    """Curve {x + i*sign*h(x)} over the periodic grid of N = len(h) nodes.

    h must be finite and strictly positive.  Its spectral derivatives
    h_prime and h_second are derived once, on construction.
    """

    h: NDArray[np.floating]
    sign: int = +1
    h_prime: NDArray[np.floating] = field(init=False, repr=False)
    h_second: NDArray[np.floating] = field(init=False, repr=False)

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float)
        if self.sign not in (+1, -1):
            raise InvalidContourError(f"sign must be +1 or -1, got {self.sign}")
        if not np.isfinite(self.h).all():
            raise InvalidContourError("contour height must be finite")
        if self.h.min() <= 0.0:
            raise InvalidContourError(f"contour height must be positive, min={self.h.min()}")
        grid = SpectralGrid(len(self.h))
        c = grid.to_spectral(self.h)
        derived = grid.from_spectral(np.stack([grid.derivative(c, 1), grid.derivative(c, 2)]))
        self.h_prime, self.h_second = derived.real

    @classmethod
    def from_height(cls, grid: SpectralGrid, h_values: NDArray, sign: int = +1) -> "LiftedContour":
        """Build the contour of height samples taken at the nodes of ``grid``."""
        grid._check_length(np.asarray(h_values))
        return cls(h_values, sign)

    def complex_nodes(self, grid: SpectralGrid) -> NDArray[np.complexfloating]:
        return grid.nodes + 1j * self.sign * self.h

    def jacobian(self) -> NDArray[np.complexfloating]:
        """dw/du along the contour: 1 + i*sign*h'(u)."""
        return 1.0 + 1j * self.sign * self.h_prime


def half_angle_parts(re: NDArray, im: NDArray, block: Block) -> tuple[NDArray, ...]:
    """sin a, cos a, sinh b and cosh b over a block, a + ib = (w_i - w_j)/2, w = re + i im.

    A complex half-angle term is assembled from these four real arrays,
    whose float64 ufuncs are vectorized where the complex ones are not:
    sin(a + ib) = sin a cosh b + i cos a sinh b,
    cos(a + ib) = cos a cosh b - i sin a sinh b, and with the arguments
    swapped, sinh(b + ia) = sinh b cos a + i cosh b sin a.
    sin and sinh are exactly odd, cos and cosh exactly even, so the mirror
    pair's parts are the same up to sign.
    """
    a, b = block.diff(re), block.diff(im)
    a *= 0.5
    b *= 0.5
    sin_a, sinh_b = np.sin(a), np.sinh(b)
    return sin_a, np.cos(a, out=a), sinh_b, np.cosh(b, out=b)


def _flat_cot(sin_a: NDArray, cos_a: NDArray) -> NDArray:
    """cot a = cos a / sin a, diagonal 0; overwrites the diagonal of sin_a."""
    np.fill_diagonal(sin_a, 1.0)
    out = cos_a / sin_a
    np.fill_diagonal(out, 0.0)
    return out


def _lifted_cot(sin_a: NDArray, cos_a: NDArray, sinh_b: NDArray, cosh_b: NDArray) -> NDArray:
    """cot(a + ib) = (sin a cos a - i sinh b cosh b) / (sin^2 a + sinh^2 b), diagonal 0.

    Both identities are exact, so nothing cancels; the denominator's
    diagonal, where a = b = 0, is set to 1 before the division.  Overwrites
    sinh_b and cosh_b.
    """
    out = np.empty(sin_a.shape, dtype=complex)
    np.multiply(sin_a, cos_a, out=out.real)
    np.multiply(sinh_b, cosh_b, out=out.imag)
    den = np.square(sinh_b, out=sinh_b)
    den += np.square(sin_a, out=cosh_b)
    np.fill_diagonal(den, 1.0)
    out.real /= den
    out.imag /= den
    np.negative(out.imag, out=out.imag)
    return out


def pairwise_cot(zeta: NDArray, block: Block) -> NDArray:
    """cot((zeta_i - zeta_j)/2) over a block, with a zero diagonal and no 0/0 formed.

    cot is exactly odd, so its mirror is -cot.  Complex nodes take the real
    closed form of :func:`_lifted_cot`.
    """
    if np.iscomplexobj(zeta):
        return _lifted_cot(*half_angle_parts(zeta.real, zeta.imag, block))
    half = block.diff(zeta) / 2.0
    return _flat_cot(np.sin(half), np.cos(half))


def pv_cot_integral(grid: SpectralGrid, contour: LiftedContour | None = None) -> NDArray:
    """PV of int cot((z - w)/2) dw over the contour, per node z.

    On the flat torus the principal value vanishes by odd symmetry; the
    equispaced trapezoid with the diagonal node set to 0 realizes this to
    round-off.  On a lifted contour the flat kernel is subtracted, leaving a
    bounded integrand whose diagonal limit is -i*sign*h''/(1 + i*sign*h').
    The result should vanish to quadrature accuracy.
    """
    if contour is None:
        def flat_sums(block: Block):
            cot = pairwise_cot(grid.nodes, block)
            return [block.sums(cot, -cot, 0.0)]

        return grid.pair_quadrature(flat_sums, float)[0]

    jac = contour.jacobian()
    diag = -1j * contour.sign * contour.h_second / jac

    def sums(block: Block):
        # the lifted nodes' real parts are the grid nodes, so sin a and cos a
        # are the flat cotangent's own
        sin_a, cos_a, sinh_b, cosh_b = half_angle_parts(grid.nodes, contour.sign * contour.h, block)
        lifted = _lifted_cot(sin_a, cos_a, sinh_b, cosh_b)
        flat = _flat_cot(sin_a, cos_a)
        return [block.sums(lifted * jac[None, block.cols] - flat,
                           flat - lifted * jac[block.rows, None], diag[block.rows])]

    return grid.pair_quadrature(sums, complex)[0]


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
    fp = np.asarray(f_prime_samples, dtype=complex)
    grid._check_length(fp)
    jac = contour.jacobian()
    zeta = contour.complex_nodes(grid)
    # F''(z) = (d/du F'(w(u))) / w'(u)
    fpp = grid.from_spectral(grid.derivative(grid.to_spectral(fp))) / jac
    diag = 2.0 * fpp * jac

    def sums(block: Block):
        # cot and the F' difference are both odd, so their product is even
        even = pairwise_cot(zeta, block) * block.diff(fp)
        rows, cols = block.rows, block.cols
        return [block.sums(even * jac[None, cols], even * jac[rows, None], diag[rows])]

    return -(1.0 / (2.0 * np.pi)) * grid.pair_quadrature(sums, complex)[0]


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
