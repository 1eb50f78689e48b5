"""Initial-data generators: the turnover family and the log-singular datum.

The turnover family is a synthetic odd curve satisfying the point conditions
of the unperturbed solution at its critical time: z1(0) = 0, z1'(0) = 0,
z1''(0) = 0, z1'''(0) > 0, z2'(0) > 0.  The default shape was tuned so that
the self-induced velocity keeps pushing the fold over, which a forward run
reproduces as a sign change of min z1'.

The singular datum f_kappa is defined by its fourth derivative, the mean-zero
logarithm log(sin^2(x/2) + sinh^2(kappa/2)); expanding the logarithm in the
geometric series of e^{-kappa} gives the closed cosine series

    f_kappa(x) = -2 sum_{k>=1} e^{-kappa k} k^{-5} cos(kx),

which is how the coefficients are built (no quadruple antiderivatives, no
integration constants).  At kappa = 0 the coefficients -2/k^5 make f0 a C3
function whose fourth derivative has a log singularity at x = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .core import InterfaceState
from .errors import InvalidFamilyError
from .grid import SpectralGrid


@dataclass(frozen=True)
class GraphFamilyParams:
    """Shape knobs for the synthetic turnover family.

    slope_amplitude: scales the odd part of z1; 1.0 puts min z1' exactly at 0.
    steepening_rate: weight of the (sin x - sin(Mx)/M) correction, which
        leaves z1'(0) untouched but feeds z1'''(0).
    mode_count: M above, and the number of sine modes in z2.
    vertical_amplitudes: sine coefficients of z2 (padded/truncated to
        mode_count modes).
    """

    slope_amplitude: float = 1.0
    steepening_rate: float = -0.3
    mode_count: int = 2
    vertical_amplitudes: tuple[float, ...] = (-0.5, 1.0)

    def __post_init__(self):
        if self.mode_count < 1 or self.mode_count > 8:
            raise InvalidFamilyError(f"mode_count must be 1..8, got {self.mode_count}")
        for name in ("slope_amplitude", "steepening_rate", "vertical_amplitudes"):
            if not np.isfinite(getattr(self, name)).all():
                raise InvalidFamilyError(f"{name} must be finite, got {getattr(self, name)}")
        third = self.slope_amplitude + self.steepening_rate * (self.mode_count**2 - 1)
        if third <= 0.0:
            raise InvalidFamilyError(
                f"slope_amplitude, steepening_rate: z1'''(0) = s + r (M^2 - 1) = {third} "
                "must be positive"
            )
        verticals = self.vertical_amplitudes[: self.mode_count]
        slope2 = sum((m + 1) * v for m, v in enumerate(verticals))
        if slope2 <= 0.0:
            raise InvalidFamilyError(f"vertical_amplitudes: z2'(0) = {slope2} must be positive")


def make_turnover_state(params: GraphFamilyParams, grid: SpectralGrid) -> InterfaceState:
    """Build the odd analytic state of the turnover family.

        z1(a) = a - s sin a + r (sin a - sin(Ma)/M)
        z2(a) = sum_m v_m sin(m a)

    Point conditions at a = 0: z1' = 1 - s (zero at critical amplitude),
    z1'' = 0 by oddness, z1''' = s + r (M^2 - 1), z2' = sum_m m v_m.
    :class:`GraphFamilyParams` guarantees z1'''(0) > 0 and z2'(0) > 0.
    """
    s = params.slope_amplitude
    r = params.steepening_rate
    m_top = params.mode_count
    a = grid.nodes
    z1_periodic = -s * np.sin(a) + r * (np.sin(a) - np.sin(m_top * a) / m_top)
    z2 = np.zeros_like(a)
    for m, v in enumerate(params.vertical_amplitudes[:m_top]):
        z2 += v * np.sin((m + 1) * a)
    return InterfaceState(grid.to_spectral(z1_periodic), grid.to_spectral(z2))


def f_kappa(kappa: float, grid: SpectralGrid) -> NDArray[np.complexfloating]:
    """Coefficients of the log-singular datum on the grid.

    Cosine coefficients are -2 e^{-kappa k} / k^5 for k >= 1 (split evenly
    between +-k in exponential form); the mean is zero, the function even
    and real.  kappa = 0 yields the limiting C3-but-not-C4 datum.
    """
    if kappa < 0.0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    n = grid.n_modes
    k = np.arange(1, n // 2)
    cos_coeff = -2.0 * np.exp(-kappa * k) / k.astype(float) ** 5
    coeffs = np.zeros(n, dtype=complex)
    coeffs[1 : n // 2] = cos_coeff / 2.0
    coeffs[-1 : -(n // 2) : -1] = cos_coeff / 2.0
    return coeffs


def log_datum(kappa: float, grid: SpectralGrid) -> NDArray[np.floating]:
    """log(sin^2(x/2) + sinh^2(kappa/2)) minus its exact mean (kappa - 2 log 2)."""
    x = grid.nodes
    value = np.log(np.sin(x / 2.0) ** 2 + np.sinh(kappa / 2.0) ** 2)
    return value - (kappa - 2.0 * np.log(2.0))


def perturb(base: InterfaceState, lam: float, f_coeffs: NDArray) -> InterfaceState:
    """Add lam * f to the horizontal component only (z1 -> z1 + lam f)."""
    if lam < 0.0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    f_coeffs = np.asarray(f_coeffs, dtype=complex)
    if f_coeffs.shape != base.p1.shape:
        raise ValueError("perturbation length does not match the state")
    return InterfaceState(base.p1 + lam * f_coeffs, base.p2, base.time)
