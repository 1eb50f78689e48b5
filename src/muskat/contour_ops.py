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

import copy
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidContourError
from .grid import Block, SpectralGrid, difference, factor_tables


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

    def with_sign(self, sign: int) -> "LiftedContour":
        """This height on the ``sign`` side of the axis, sharing h, h' and h'' (not re-derived)."""
        if sign == self.sign:
            return self
        if sign not in (+1, -1):
            raise InvalidContourError(f"sign must be +1 or -1, got {sign}")
        mirrored = copy.copy(self)
        mirrored.sign = sign
        return mirrored

    def complex_nodes(self, grid: SpectralGrid) -> NDArray[np.complexfloating]:
        """The nodes x_j + i*sign*h_j; SizeMismatchError unless the contour has the grid's N nodes."""
        grid._check_length(self.h)
        return grid.nodes + 1j * self.sign * self.h

    def jacobian(self) -> NDArray[np.complexfloating]:
        """dw/du along the contour: 1 + i*sign*h'(u)."""
        return 1.0 + 1j * self.sign * self.h_prime


def _cot(tan_a: NDArray, b: NDArray | None, block: Block, parts=None, out=None) -> NDArray:
    """cot(a + ib) over a block from T = tan a and b, diagonal 0, where a = b = 0.

    b = None is the flat cotangent 1/T; it overwrites ``tan_a``, so a caller
    that wants both forms takes the lifted one first.
    Dividing cot(a + ib) = (sin a cos a - i sinh b cosh b) / (sin^2 a + sinh^2 b)
    by cos^2 a = 1/(1 + T^2) gives

        cot(a + ib) = (T - i sinh b cosh b (1 + T^2)) / den,   den = T^2 + sinh^2 b (1 + T^2),

    which takes T^2 as formed, never fl(1 + T^2) - 1, and cancels nothing.
    Both forms are exactly odd, so the mirror pair's value is -cot.  The
    lifted form writes its denominator's ``parts`` (:func:`_cot_denominator`)
    and itself into ``out`` when given, and keeps T and b.
    """
    if b is None:
        block.fill_diagonal(tan_a, np.inf)
        return np.reciprocal(tan_a, out=tan_a)
    return _cot_from_denominator(tan_a, b, _cot_denominator(tan_a, b, block, parts), out)


def _cot_denominator(tan_a: NDArray, b: NDArray, block: Block, out=None) -> list[NDArray]:
    """:func:`_cot`'s den = T^2 + sinh^2 b (1 + T^2), diagonal 1, with 1 + T^2, sinh b and T^2.

    Into the four arrays ``out`` when given, else new ones; T and b may be
    one block array or a stack of them.
    """
    den, scale, sinh_b, t_sq = out if out is not None else [None] * 4
    t_sq = np.square(tan_a, out=t_sq)
    scale = np.add(1.0, t_sq, out=scale)
    sinh_b = np.sinh(b, out=sinh_b)
    den = np.square(sinh_b, out=den)
    den *= scale
    den += t_sq
    for array in den if den.ndim > 2 else (den,):
        block.fill_diagonal(array, 1.0)
    return [den, scale, sinh_b, t_sq]


def _cot_from_denominator(tan_a: NDArray, b: NDArray, parts: list[NDArray], out=None) -> NDArray:
    """:func:`_cot` from T, b and its denominator's parts, into ``out`` or a new complex array.

    cosh b takes the place of the parts' last array, and sinh b becomes
    the imaginary part's numerator.
    """
    den, scale, imag, cosh_b = parts
    imag *= np.cosh(b, out=cosh_b)
    imag *= scale
    imag /= den
    out = np.empty(tan_a.shape, dtype=complex) if out is None else out
    np.divide(tan_a, den, out=out.real)
    np.negative(imag, out=out.imag)
    return out


def _sin_modulus(den: NDArray, scale: NDArray, out: NDArray) -> NDArray:
    """|sin(a + ib)| = sqrt(den / (1 + T^2)) from :func:`_cot_denominator`, into ``out``.

    |sin(a + ib)|^2 = sin^2 a + sinh^2 b = den cos^2 a: exactly even, and 1
    on the diagonal.
    """
    return np.sqrt(np.divide(den, scale, out=out), out=out)


def pairwise_cot(a: NDArray, b: NDArray | None, block: Block) -> NDArray:
    """cot((zeta_i - zeta_j)/2) over a block, with a zero diagonal and no 0/0 formed.

    a and b are the block's half differences of Re zeta and Im zeta (None
    on real nodes), from a product of factor tables
    (:func:`muskat.grid.difference`).  One tan per pair, of a, which a
    then holds as T = tan a, and on complex nodes sinh and cosh of b
    (:func:`_cot`); no sin or cos.  cot is exactly odd, so its mirror is
    -cot.
    """
    return _cot(np.tan(a, out=a), b, block)


def pv_cot_integral(grid: SpectralGrid, contour: LiftedContour | None = None) -> NDArray:
    """PV of int cot((z - w)/2) dw over the contour, per node z.

    On the flat torus the principal value vanishes by odd symmetry; the
    equispaced trapezoid with the diagonal node set to 0 realizes this to
    round-off.  On a lifted contour the flat kernel is subtracted, leaving a
    bounded integrand whose diagonal limit is -i*sign*h''/(1 + i*sign*h').
    The result should vanish to quadrature accuracy.
    """
    if contour is None:
        tables = factor_tables(difference(0.5 * grid.nodes))

        def flat_sums(block: Block):
            cot = pairwise_cot(block.product(*tables)[0], None, block)
            return [block.sums(cot, -cot, 0.0)]

        return grid.pair_quadrature(flat_sums, float)[0]

    zeta = contour.complex_nodes(grid)
    jac = contour.jacobian()
    diag = -1j * contour.sign * contour.h_second / jac
    tables = factor_tables(difference(0.5 * zeta.real), difference(0.5 * zeta.imag))

    def sums(block: Block):
        a, b = block.product(*tables, out=block.buffers("integrands", 2))
        lifted = pairwise_cot(a, b, block)
        # a holds T = tan a, and the lifted nodes' real parts are the grid
        # nodes, so T is the flat cotangent's own
        flat = _cot(a, None, block)
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
    zeta = contour.complex_nodes(grid)
    jac = contour.jacobian()
    # F''(z) = (d/du F'(w(u))) / w'(u)
    fpp = grid.from_spectral(grid.derivative(grid.to_spectral(fp))) / jac
    diag = 2.0 * fpp * jac
    # real tables: the halves of zeta, then Re and Im of the F' difference
    tables = factor_tables(*map(difference, (0.5 * zeta.real, 0.5 * zeta.imag, fp.real, fp.imag)))

    def sums(block: Block):
        a, b, fp_re, fp_im = block.product(*tables, out=block.buffers("integrands", 4))
        # cot and the F' difference are both odd, so their product is even;
        # a product's entries are never -0.0, so a finite F' difference is
        # assembled exactly
        even = pairwise_cot(a, b, block)
        even *= fp_re + 1j * fp_im
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
