"""Explicit height schedules for the shrinking analyticity strip.

Two closed-form height functions cover the two time regimes: h(x, t) on
[tau^2, tau] pinches to kappa at (x, t) = (0, tau), and hbar(x, t) on
[-tau^2, tau^2] hands over to h at t = tau^2.  The schedule inequalities
(positivity, time-derivative bounds, ordering at the handover) hold when A
is large and tau is small enough relative to A; schedule_margins evaluates
them numerically and reports minima without failing, so callers can probe
any admissible parameter tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ScheduleDomainError
from .grid import SpectralGrid

DOMAIN_TOL = 1e-12

#: time samples per schedule domain in the margin scans
_T_SAMPLES = 64
#: constant c0 of the bound c0 tau^-1 hbar >= |dhbar/dt|
_C0 = 8.0
#: constants c1, c2 of the model Rayleigh-Taylor envelope
_RT_C1 = _RT_C2 = 1.0


@dataclass(frozen=True)
class HeightSchedule:
    """Parameters (A, tau, kappa) of the two height functions."""

    A: float = 10.0
    tau: float = 0.005
    kappa: float = 1e-6

    def __post_init__(self):
        for name in ("A", "tau", "kappa"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.A <= 1.0:
            raise ValueError(f"A must exceed 1, got {self.A}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")
        if self.A * self.tau**1.5 >= 1.0:
            raise ValueError(
                f"require A*tau^(3/2) < 1, got {self.A * self.tau ** 1.5:.4g}"
            )
        if self.kappa >= self.tau**2:
            raise ValueError(f"require kappa < tau^2, got kappa={self.kappa}")

    def _check_h_domain(self, t: float) -> None:
        if not self.tau**2 - DOMAIN_TOL <= t <= self.tau + DOMAIN_TOL:
            raise ScheduleDomainError(
                f"t={t} outside [tau^2, tau] = [{self.tau**2}, {self.tau}]"
            )

    def _check_hbar_domain(self, t: float) -> None:
        if not -self.tau**2 - DOMAIN_TOL <= t <= self.tau**2 + DOMAIN_TOL:
            raise ScheduleDomainError(
                f"t={t} outside [-tau^2, tau^2] = [{-self.tau**2}, {self.tau**2}]"
            )


def h_of(x, t: float, s: HeightSchedule):
    """h(x,t) = A^-1 (tau^2 - t^2) + (A^-1 - A (tau - t)) sin^2(x/2) + kappa."""
    s._check_h_domain(t)
    x = np.asarray(x, dtype=float)
    return (
        (s.tau**2 - t**2) / s.A
        + (1.0 / s.A - s.A * (s.tau - t)) * np.sin(x / 2.0) ** 2
        + s.kappa
    )


def h_t_of(x, t: float, s: HeightSchedule):
    """Time derivative of h: -2 A^-1 t + A sin^2(x/2)."""
    s._check_h_domain(t)
    x = np.asarray(x, dtype=float)
    return -2.0 * t / s.A + s.A * np.sin(x / 2.0) ** 2


def hbar_of(x, t: float, s: HeightSchedule):
    """hbar(x,t) = (A^-1 tau^2 + A^-1 sin^2(x/2))/4 + A^-2 tau t + A t sin^2(x/2)."""
    s._check_hbar_domain(t)
    x = np.asarray(x, dtype=float)
    sin_sq = np.sin(x / 2.0) ** 2
    return 0.25 * (s.tau**2 / s.A + sin_sq / s.A) + s.tau * t / s.A**2 + s.A * t * sin_sq


def hbar_t_of(x, t: float, s: HeightSchedule):
    """Time derivative of hbar: A^-2 tau + A sin^2(x/2)."""
    s._check_hbar_domain(t)
    x = np.asarray(x, dtype=float)
    return s.tau / s.A**2 + s.A * np.sin(x / 2.0) ** 2


@dataclass(frozen=True)
class ScheduleMargins:
    """Minima of the four schedule inequalities over the sampled box.

    h_positive:    min h on [tau^2, tau]
    h_t_bound:     min of 6 A^2 h - |dh/dt| where ||x|| >= 10 A^-1 sqrt(t)
    handover:      min of h(., tau^2) - hbar(., tau^2)
    hbar_t_bound:  min of c0 tau^-1 hbar - |dhbar/dt| on [-tau^2, tau^2]
    """

    h_positive: float
    h_t_bound: float
    handover: float
    hbar_t_bound: float

    def all_nonnegative(self) -> bool:
        return min(self.h_positive, self.h_t_bound, self.handover, self.hbar_t_bound) >= 0.0


def schedule_margins(s: HeightSchedule, grid: SpectralGrid) -> ScheduleMargins:
    """Evaluate the four testable schedule inequalities on an (x, t) box.

    Margins are reported, never raised on: a pinched schedule legitimately
    returns a zero or negative margin.
    """
    x = grid.nodes
    wrapped = np.abs(np.mod(x + np.pi, 2.0 * np.pi) - np.pi)

    h_min = np.inf
    bound_min = np.inf
    for t in np.linspace(s.tau**2, s.tau, _T_SAMPLES):
        h = h_of(x, t, s)
        h_min = min(h_min, h.min())
        outer = wrapped >= 10.0 / s.A * np.sqrt(t)
        if outer.any():
            margin = 6.0 * s.A**2 * h[outer] - np.abs(h_t_of(x, t, s)[outer])
            bound_min = min(bound_min, margin.min())

    handover = (h_of(x, s.tau**2, s) - hbar_of(x, s.tau**2, s)).min()

    hbar_bound_min = np.inf
    for t in np.linspace(-s.tau**2, s.tau**2, _T_SAMPLES):
        margin = _C0 / s.tau * hbar_of(x, t, s) - np.abs(hbar_t_of(x, t, s))
        hbar_bound_min = min(hbar_bound_min, margin.min())

    return ScheduleMargins(
        h_positive=float(h_min),
        h_t_bound=float(bound_min),
        handover=float(handover),
        hbar_t_bound=float(hbar_bound_min),
    )


def _model_rt_profile(x, t):
    """Built-in stand-in for the unperturbed Rayleigh-Taylor envelope.

    sigma(x, t) = c1 t - (c2/2) sin^2(x/2), matching the parabolic envelope
    the unperturbed solution satisfies near the turnover point.
    """
    return _RT_C1 * t - 0.5 * _RT_C2 * np.sin(np.asarray(x, dtype=float) / 2.0) ** 2


def rt_coupled_margins(s: HeightSchedule, grid: SpectralGrid) -> tuple[float, float]:
    """Minima of sigma + dh/dt - sqrt(A) h on both schedule domains.

    sigma is the built-in parabolic model.  Returns (margin on
    [tau^2, tau], margin on [-tau^2, tau^2]).
    """
    x = grid.nodes
    sqrt_a = np.sqrt(s.A)
    first = min(
        (_model_rt_profile(x, t) + h_t_of(x, t, s) - sqrt_a * h_of(x, t, s)).min()
        for t in np.linspace(s.tau**2, s.tau, _T_SAMPLES)
    )
    second = min(
        (_model_rt_profile(x, t) + hbar_t_of(x, t, s) - sqrt_a * hbar_of(x, t, s)).min()
        for t in np.linspace(-s.tau**2, s.tau**2, _T_SAMPLES)
    )
    return float(first), float(second)
