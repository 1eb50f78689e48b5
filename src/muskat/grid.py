"""Periodic spectral grid on [0, 2pi) with Fourier-multiplier operators.

Grid functions live either in physical space (values at the N collocation
nodes) or in frequency space (coefficients c_k such that
g(x) = sum_k c_k e^{ikx}, stored in FFT order).  All multiplier operators in
this module act on coefficient arrays; use :meth:`SpectralGrid.to_spectral`
and :meth:`SpectralGrid.from_spectral` to move between representations.
Those two, :meth:`SpectralGrid.project_modes`, :meth:`SpectralGrid.derivative`
and :func:`conjugate_symmetrize` also act row by row on a stack of shape
(m, N).
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Callable, Iterable

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidCutoffError, SizeMismatchError, UndefinedRadiusError

#: coefficients with modulus below this are treated as round-off noise
#: and excluded from decay fits
COEFF_FLOOR = 1e-14

#: Size of one pairwise array of a pair-quadrature block: 8192 real or 4096
#: complex pairs.  It keeps every block array cache-sized, and a temporary
#: one below glibc's default mmap threshold (128 KiB).
_BLOCK_BYTES = 64 * 1024

#: highest order of :meth:`SpectralGrid.derivative`
MAX_DERIVATIVE_ORDER = 8


class SpectralGrid:
    """Equispaced collocation grid for 2pi-periodic functions.

    Attributes:
        n_modes: Number of collocation nodes N (a power of two).
        nodes: Array of x_j = 2*pi*j/N.
        wavenumbers: Integer wavenumbers in FFT order
            [0, 1, ..., N/2-1, -N/2, ..., -1].
        dx: Node spacing 2*pi/N.
    """

    def __init__(self, n_modes: int):
        if n_modes < 4 or (n_modes & (n_modes - 1)) != 0:
            raise ValueError(f"n_modes must be a power of two >= 4, got {n_modes}")
        self.n_modes = n_modes
        self.dx = 2.0 * np.pi / n_modes
        self.nodes = self.dx * np.arange(n_modes)
        self.wavenumbers = np.fft.fftfreq(n_modes, d=1.0 / n_modes).astype(int)
        self._beyond: dict[int, NDArray[np.bool_]] = {}

    def __repr__(self) -> str:
        return f"SpectralGrid(n_modes={self.n_modes})"

    def _check_length(self, g: NDArray, stacked: bool = False) -> None:
        if g.shape[-1:] != (self.n_modes,) or g.ndim > 1 + stacked:
            raise SizeMismatchError(
                f"grid function has shape {g.shape}, expected ({self.n_modes},)"
                + (f" or (m, {self.n_modes})" if stacked else "")
            )

    # -- transform pair -------------------------------------------------

    def to_spectral(self, values: NDArray) -> NDArray[np.complexfloating]:
        """Return coefficients c_k with values[j] = sum_k c_k e^{ikx_j}."""
        values = np.asarray(values, dtype=complex)
        self._check_length(values, stacked=True)
        return np.fft.fft(values) / self.n_modes

    def from_spectral(self, coeffs: NDArray) -> NDArray[np.complexfloating]:
        """Evaluate the Fourier series on the grid (inverse of to_spectral)."""
        coeffs = np.asarray(coeffs, dtype=complex)
        self._check_length(coeffs, stacked=True)
        return np.fft.ifft(coeffs) * self.n_modes

    # -- multiplier operators (coefficient space) -----------------------

    def project_modes(self, coeffs: NDArray, cutoff: int) -> NDArray:
        """Zero all coefficients with |k| > cutoff (the Galerkin projection).

        Args:
            coeffs: Coefficient array.
            cutoff: Highest retained wavenumber; must satisfy cutoff <= N/2.

        Returns:
            The band-limited coefficient array.  Idempotent.
        """
        coeffs = np.asarray(coeffs, dtype=complex)
        self._check_length(coeffs, stacked=True)
        if not 0 < cutoff <= self.n_modes // 2:
            raise InvalidCutoffError(
                f"cutoff must lie in 1..{self.n_modes // 2}, got {cutoff}"
            )
        beyond = self._beyond.get(cutoff)
        if beyond is None:
            beyond = self._beyond[cutoff] = np.abs(self.wavenumbers) > cutoff
        out = coeffs.copy()
        out[..., beyond] = 0.0
        return out

    def derivative(self, coeffs: NDArray, order: int = 1) -> NDArray:
        """Differentiate by multiplying with (ik)^order.

        The Nyquist coefficient is zeroed afterwards so that derivatives of
        real grid functions stay exactly real.
        """
        if not 0 <= order <= MAX_DERIVATIVE_ORDER:
            raise ValueError(f"derivative order must be in 0..{MAX_DERIVATIVE_ORDER}, got {order}")
        coeffs = np.asarray(coeffs, dtype=complex)
        self._check_length(coeffs, stacked=True)
        out = coeffs * self.derivative_multipliers[order]
        out[..., self.n_modes // 2] = 0.0
        return out

    @functools.cached_property
    def derivative_multipliers(self) -> NDArray[np.complexfloating]:
        """Read-only (ik)^k for k = 0..MAX_DERIVATIVE_ORDER, one row per order, formed once.

        Row k is (1j * wavenumbers) ** k, Nyquist included: a derivative
        zeroes that coefficient after multiplying, as the product of a
        coefficient and 0 may carry a zero's sign.
        """
        table = np.stack([(1j * self.wavenumbers) ** k for k in range(MAX_DERIVATIVE_ORDER + 1)])
        table.flags.writeable = False
        return table

    def lambda_op(self, coeffs: NDArray) -> NDArray:
        """Half-Laplacian: multiply coefficient k by |k|."""
        coeffs = np.asarray(coeffs, dtype=complex)
        self._check_length(coeffs)
        return coeffs * np.abs(self.wavenumbers)

    def hilbert(self, coeffs: NDArray) -> NDArray:
        """Hilbert transform: multiply by -i sign(k); the mean is sent to 0."""
        coeffs = np.asarray(coeffs, dtype=complex)
        self._check_length(coeffs)
        return coeffs * (-1j * np.sign(self.wavenumbers))

    # -- quadrature and norms -------------------------------------------

    def quadrature(self, values: NDArray) -> complex:
        """Trapezoid rule over the period (spectrally accurate)."""
        values = np.asarray(values)
        self._check_length(values)
        return values.sum() * self.dx

    def pair_quadrature(
        self,
        sums: Callable[[Block], Iterable[tuple[NDArray, NDArray]]],
        dtype,
        block: Callable[[slice, int], Block] | None = None,
    ) -> list[NDArray]:
        """Trapezoid rule along the rows of pairwise integrands, in one triangle sweep.

        The pairs are tiled in blocks of at most ``_BLOCK_BYTES`` per
        ``dtype`` array, each described by one :class:`Block`, or by
        ``block(rows, N)`` for a caller that carries more per block.  For
        each integrand, ``sums(block)`` yields one pair, its row sums over
        the block and its mirror's column sums over the block's tail, which
        this adds up.

        An integrand's pair may carry trailing axes, (width, ...) and
        (N - r1, ...), for several quadratures summed at once.  The first
        block that yields anything sets the number of integrands;
        a later block that yields a different number raises ValueError, and
        one that yields nothing (a sweep stopped by its caller) is skipped.
        """
        n = self.n_modes
        block = block or Block
        totals: list[NDArray] = []
        per_block = _BLOCK_BYTES // np.dtype(dtype).itemsize
        r0 = 0
        while r0 < n:
            current = block(slice(r0, min(n, r0 + max(1, per_block // (n - r0)))), n)
            pairs = list(sums(current))
            if pairs:
                totals = totals or [np.zeros((n, *by_row.shape[1:]), dtype)
                                    for by_row, _ in pairs]
                for total, (by_row, by_column) in zip(totals, pairs, strict=True):
                    total[current.rows] += by_row
                    total[current.tail] += by_column
            r0 = current.rows.stop
        return [total * self.dx for total in totals]

    def norm_l2(self, values: NDArray) -> float:
        """L2 norm sqrt(int |g|^2 dx) by trapezoid."""
        return float(np.sqrt(self.quadrature(np.abs(np.asarray(values)) ** 2).real))

    # -- diagnostics ------------------------------------------------------

    def analyticity_radius(
        self, coeffs: NDArray, fit_band: tuple[int, int] | None = None
    ) -> float:
        """Estimate the analyticity-strip half-width from coefficient decay.

        Fits log|c_k| = a + b log k - w k over positive wavenumbers in
        ``fit_band`` (defaults to [N/8, N/3]) and returns w clamped at 0.
        The log k term absorbs algebraic prefactors such as the k^-5 of the
        log-singular datum, so pure power-law decay yields 0.  Coefficients
        below ``COEFF_FLOOR`` are excluded from the fit.

        Raises:
            UndefinedRadiusError: fewer than three usable coefficients.
        """
        coeffs = np.asarray(coeffs, dtype=complex)
        self._check_length(coeffs)
        if fit_band is None:
            fit_band = (self.n_modes // 8, self.n_modes // 3)
        lo, hi = fit_band
        if not 1 <= lo < hi <= self.n_modes // 2:
            raise ValueError(f"fit band {fit_band} outside 1..{self.n_modes // 2}")
        k = np.arange(lo, min(hi, self.n_modes // 2 - 1) + 1)
        mags = np.abs(coeffs[k])
        usable = mags > COEFF_FLOOR
        if usable.sum() < 3:
            raise UndefinedRadiusError(
                f"fit band {fit_band} lies below COEFF_FLOOR = {COEFF_FLOOR}: "
                f"only {int(usable.sum())} coefficients above it"
            )
        kk = k[usable].astype(float)
        y = np.log(mags[usable])
        design = np.column_stack([np.ones_like(kk), np.log(kk), -kk])
        sol, *_ = np.linalg.lstsq(design, y, rcond=None)
        return float(max(sol[2], 0.0))


class _BlockBuffers(threading.local):
    """The calling thread's block arrays, kept from one sweep to the next.

    Each is raw memory, allocated once at the full block budget per array
    of its largest request, and every block of every sweep reuses it.
    Block arrays allocated afresh and freed with each sweep left a heap top
    that glibc returned to the system and faulted back in on the next call,
    about 110 minor page faults per ``rhs`` at N=128.  The contents never
    outlive a block, so sweeps must not nest.
    """

    def __init__(self):
        self.arrays: dict = {}


_BUFFERS = _BlockBuffers()


class Block:
    """One block of :meth:`SpectralGrid.pair_quadrature`: rows r0:r1 against the columns r0:N.

    Column c holds node j = r0 + c, so the pair (r0 + k, r0 + k) sits at
    (k, k).  The first ``width`` = r1 - r0 columns are the diagonal
    sub-block, the pairs among the block's rows in both orders; the rest
    are the pairs i < j with j in ``tail`` = r1:N.  For an integrand F
    with mirror M(x_i, x_j) = F(x_j, x_i), the diagonal sub-block enters
    through F's row sums only, and a pair i < j beyond it enters row i
    through F and row j through M, as M's column sums over the tail.

    The layout is set once, as plain attributes: ``rows`` (r0:r1), ``cols``
    (r0:), ``tail`` (r1:), ``width`` and ``shape``.  A consumer forms its
    pairwise arrays and reductions through the methods, and takes scratch
    arrays from :meth:`buffers`.
    """

    def __init__(self, rows: slice, n: int):
        self.rows = rows
        self.cols = slice(rows.start, None)
        self.tail = slice(rows.stop, None)
        self.width = rows.stop - rows.start
        self.shape = (self.width, n - rows.start)

    def product(self, left: NDArray, right: NDArray, out: NDArray | None = None) -> NDArray:
        """sum_m left[i, m] right[m, j] over the block: one BLAS product of factor tables.

        ``left`` is (..., N, k) and ``right`` (..., k, N); a stack of tables
        gives the stack of block arrays in one call.  A broadcast over a
        block runs about 3x slower than a contiguous ufunc, a rank-2
        product about as fast; :func:`factor_tables` makes the tables.
        """
        return np.matmul(left[..., self.rows, :], right[..., self.cols], out=out)

    def fill_diagonal(self, values: NDArray, diag) -> None:
        """Overwrite the pairs (k, k) of a block array with ``diag``."""
        # the stride shape[1] + 1 meets exactly ``width`` entries, as shape[1] >= width
        values.flat[::self.shape[1] + 1] = diag

    def sums(self, values: NDArray, mirror: NDArray, diag) -> tuple[NDArray, NDArray]:
        """The block's pair for an elementwise integrand F with mirror M.

        ``values`` is F over the block and ``mirror`` M; a symmetric F is
        passed twice.  F's diagonal is overwritten with ``diag``, the
        analytic limit at the block's rows.  Returns F's row sums and M's
        column sums over the tail.
        """
        self.fill_diagonal(values, diag)
        return values.sum(axis=1), mirror[:, self.width:].sum(axis=0)

    def pair(self, k: int) -> tuple[int, int]:
        """The node pair (i, j) at flat index k of a block array."""
        i, j = divmod(int(k), self.shape[1])
        return self.rows.start + i, self.rows.start + j

    def buffers(self, name: str, count: int, dtype=np.float64) -> NDArray:
        """``count`` block arrays as one (count, *shape) view of the calling thread's buffer ``name``.

        One lookup serves all of a consumer's scratch for the block; the
        view is valid until the next block.  A buffer is ``count`` times
        ``_BLOCK_BYTES`` of memory whatever the dtype, and every request of
        one name shares it: sweeps that never run together, such as the
        flat and the lifted one, take the same bytes.
        """
        array = _BUFFERS.arrays.get(name)
        if array is None or len(array) < count * _BLOCK_BYTES:
            array = _BUFFERS.arrays[name] = np.empty(count * _BLOCK_BYTES, np.uint8)
        return array.view(dtype)[:count * self.shape[0] * self.shape[1]].reshape(count, *self.shape)


def factor_tables(*terms: tuple[list[NDArray], list[NDArray]]) -> tuple[NDArray, NDArray]:
    """Stacked factor tables for :meth:`Block.product`, one entry per term.

    A term (a, b) lists k left and k right node arrays; its entry forms
    sum_m a[m]_i b[m]_j over a block.  Returns left (terms, N, k), a
    transposed view, and right (terms, k, N).  Every pair difference in the
    package is such an entry, the term :func:`difference`; likewise
    ([a, 0], [b, 0]) is the outer product a_i b_j bit for bit, up to the
    sign of a zero product.
    """
    left = np.array([a for a, _ in terms]).transpose(0, 2, 1)
    return left, np.array([b for _, b in terms])


def difference(x: NDArray) -> tuple[list[NDArray], list[NDArray]]:
    """The :func:`factor_tables` term ([x, 1], [1, -x]) of the difference x_i - x_j, for real x.

    A complex x enters as two terms, of its real and imaginary parts, so
    the tables stay real.  Both products of a term are exact, so the one
    rounding of the sum gives the broadcast difference bit for bit, with or without a fused
    multiply-add, and exactly odd, except for a zero's sign: BLAS
    accumulates from +0.0, so -0.0 - (+0.0) comes out +0.0.  Halving is
    exact too, so the term of x/2 gives the half difference (x_i - x_j)/2.
    """
    one = np.ones_like(x)
    return [x, one], [one, -x]


def conjugate_symmetrize(coeffs: NDArray) -> NDArray:
    """Project onto conjugate-symmetric coefficients (real grid functions), row by row."""
    coeffs = np.asarray(coeffs, dtype=complex)
    n = coeffs.shape[-1]
    reflected = np.conj(coeffs[..., np.mod(-np.arange(n), n)])
    return 0.5 * (coeffs + reflected)
