"""Periodic spectral grid on [0, 2pi) with Fourier-multiplier operators.

Grid functions live either in physical space (values at the N collocation
nodes) or in frequency space (coefficients c_k such that
g(x) = sum_k c_k e^{ikx}, stored in FFT order).  All multiplier operators in
this module act on coefficient arrays; use :meth:`SpectralGrid.to_spectral`
and :meth:`SpectralGrid.from_spectral` to move between representations.
Those two and :meth:`SpectralGrid.derivative` also act row by row on a
stack of shape (m, N).
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidCutoffError, SizeMismatchError, UndefinedRadiusError

#: coefficients with modulus below this are treated as round-off noise
#: and excluded from decay fits
COEFF_FLOOR = 1e-14


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
        self._check_length(coeffs)
        if not 0 < cutoff <= self.n_modes // 2:
            raise InvalidCutoffError(
                f"cutoff must lie in 1..{self.n_modes // 2}, got {cutoff}"
            )
        out = coeffs.copy()
        out[np.abs(self.wavenumbers) > cutoff] = 0.0
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

    def row_quadrature(self, integrand: NDArray, diag: NDArray) -> NDArray:
        """Trapezoid rule along each row of a pairwise N x N integrand.

        The removable diagonal is overwritten in place with its analytic
        limit ``diag`` before the rows are summed.
        """
        np.fill_diagonal(integrand, diag)
        return integrand.sum(axis=1) * self.dx

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
                f"only {int(usable.sum())} coefficients above {COEFF_FLOOR} in band {fit_band}"
            )
        kk = k[usable].astype(float)
        y = np.log(mags[usable])
        design = np.column_stack([np.ones_like(kk), np.log(kk), -kk])
        sol, *_ = np.linalg.lstsq(design, y, rcond=None)
        return float(max(sol[2], 0.0))


def conjugate_symmetrize(coeffs: NDArray) -> NDArray:
    """Project onto conjugate-symmetric coefficients (real grid functions)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    n = len(coeffs)
    reflected = np.conj(coeffs[np.mod(-np.arange(n), n)])
    return 0.5 * (coeffs + reflected)


def is_conjugate_symmetric(coeffs: NDArray, tol: float = 1e-12) -> bool:
    """True if the coefficients describe a real grid function within tol."""
    coeffs = np.asarray(coeffs, dtype=complex)
    scale = max(np.abs(coeffs).max(), 1.0)
    return bool(np.abs(coeffs - conjugate_symmetrize(coeffs)).max() <= tol * scale)
