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

from collections.abc import Callable, Iterable

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidCutoffError, SizeMismatchError, UndefinedRadiusError

#: coefficients with modulus below this are treated as round-off noise
#: and excluded from decay fits
COEFF_FLOOR = 1e-14

#: Size of one pairwise array of a pair-quadrature block: 8192 real or 4096
#: complex pairs.  It keeps every block array cache-sized and every buffer
#: below glibc's default mmap threshold (128 KiB).
_BLOCK_BYTES = 64 * 1024


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
        """Return coefficients c_k with values(x_j) = sum_k c_k e^{ikx_j}."""
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
        out = coeffs.copy()
        out[..., np.abs(self.wavenumbers) > cutoff] = 0.0
        return out

    def derivative(self, coeffs: NDArray, order: int = 1) -> NDArray:
        """Differentiate by multiplying with (ik)^order.

        The Nyquist coefficient is zeroed afterwards so that derivatives of
        real grid functions stay exactly real.
        """
        if not 0 <= order <= 8:
            raise ValueError(f"derivative order must be in 0..8, got {order}")
        coeffs = np.asarray(coeffs, dtype=complex)
        self._check_length(coeffs, stacked=True)
        out = coeffs * (1j * self.wavenumbers) ** order
        out[..., self.n_modes // 2] = 0.0
        return out

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
        self, sums: Callable[[slice], Iterable[tuple[NDArray, NDArray]]], dtype,
    ) -> list[NDArray]:
        """Trapezoid rule along the rows of pairwise integrands, in one triangle sweep.

        The pairs are tiled in row blocks rows = [r0, r1) against the columns
        [r0, N), of at most ``_BLOCK_BYTES`` per ``dtype`` array, so the pair
        (r0 + k, r0 + k) sits at (k, k).  For each integrand F, ``sums(rows)``
        yields one pair: F's row sums over the block, its removable diagonal
        taken at the analytic limit, and the column sums beyond the diagonal
        sub-block, [r1, N), of its mirror M(x_i, x_j) = F(x_j, x_i).  The
        diagonal sub-block enters through the row sums only; a pair i < j
        beyond it enters row i through F and row j through M.  A consumer
        reduces its block by :func:`block_sums` or by a matrix product.

        The first block that yields anything sets the number of integrands;
        a later block that yields a different number raises ValueError, and
        one that yields nothing (a sweep stopped by its caller) is skipped.
        """
        n = self.n_modes
        totals: list[NDArray] = []
        per_block = _BLOCK_BYTES // np.dtype(dtype).itemsize
        r0 = 0
        while r0 < n:
            r1 = min(n, r0 + max(1, per_block // (n - r0)))
            rows = slice(r0, r1)
            pairs = list(sums(rows))
            if pairs:
                totals = totals or [np.zeros(n, dtype=dtype) for _ in pairs]
                for total, (by_row, by_column) in zip(totals, pairs, strict=True):
                    total[rows] += by_row
                    total[r1:] += by_column
            r0 = r1
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


def block_sums(values: NDArray, mirror: NDArray, diag) -> tuple[NDArray, NDArray]:
    """One :meth:`SpectralGrid.pair_quadrature` block of an elementwise integrand.

    ``values`` is F over the block and ``mirror`` its mirror M; a symmetric
    F is passed twice.  F's diagonal is overwritten with ``diag``, the
    analytic limit at the block's rows.  Returns F's row sums and M's column
    sums beyond the diagonal sub-block.
    """
    np.fill_diagonal(values, diag)
    return values.sum(axis=1), mirror[:, len(mirror):].sum(axis=0)


def conjugate_symmetrize(coeffs: NDArray) -> NDArray:
    """Project onto conjugate-symmetric coefficients (real grid functions), row by row."""
    coeffs = np.asarray(coeffs, dtype=complex)
    n = coeffs.shape[-1]
    reflected = np.conj(coeffs[..., np.mod(-np.arange(n), n)])
    return 0.5 * (coeffs + reflected)


def is_conjugate_symmetric(coeffs: NDArray, tol: float = 1e-12) -> bool:
    """True if the coefficients describe a real grid function within tol."""
    coeffs = np.asarray(coeffs, dtype=complex)
    scale = max(np.abs(coeffs).max(), 1.0)
    return bool(np.abs(coeffs - conjugate_symmetrize(coeffs)).max() <= tol * scale)
