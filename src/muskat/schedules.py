"""Explicit height schedules for the shrinking analyticity strip.

Two closed-form height functions cover the two time regimes: h(x, t) on
[tau^2, tau] pinches to kappa at (x, t) = (0, tau), and hbar(x, t) on
[-tau^2, tau^2] hands over to h at t = tau^2.  The schedule inequalities
(positivity, time-derivative bounds, ordering at the handover) hold when A
is large and tau is small enough relative to A; schedule_margins evaluates
them numerically and reports minima without failing, so callers can probe
any admissible parameter tuple.  The evaluators take a scalar time or a
column of times that broadcasts against the nodes; every time must lie in
the function's domain.  HeightSchedule.at picks the function that owns a
time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def at(self, x, t: float):
        """(height, dheight/dt) at time t, or None outside [-tau^2, tau].

        h owns [tau^2, tau] and hbar the times below tau^2.
        """
        if self.tau**2 <= t <= self.tau:
            return h_of(x, t, self), h_t_of(x, t, self)
        if -self.tau**2 <= t <= self.tau**2:
            return hbar_of(x, t, self), hbar_t_of(x, t, self)
        return None


def _check_domain(t, lo: float, hi: float) -> None:
    if not np.all((lo - DOMAIN_TOL <= t) & (t <= hi + DOMAIN_TOL)):
        raise ScheduleDomainError(f"t={t} outside [{lo}, {hi}]")


def h_of(x, t, s: HeightSchedule):
    """h(x,t) = A^-1 (tau^2 - t^2) + (A^-1 - A (tau - t)) sin^2(x/2) + kappa."""
    _check_domain(t, s.tau**2, s.tau)
    x = np.asarray(x, dtype=float)
    # t * t, not t**2: a float's ** calls pow, which rounds differently from
    # the product an array's ** takes, and the two must agree
    return (
        (s.tau**2 - t * t) / s.A
        + (1.0 / s.A - s.A * (s.tau - t)) * np.sin(x / 2.0) ** 2
        + s.kappa
    )


def h_t_of(x, t, s: HeightSchedule):
    """Time derivative of h: -2 A^-1 t + A sin^2(x/2)."""
    _check_domain(t, s.tau**2, s.tau)
    x = np.asarray(x, dtype=float)
    return -2.0 * t / s.A + s.A * np.sin(x / 2.0) ** 2


def hbar_of(x, t, s: HeightSchedule):
    """hbar(x,t) = (A^-1 tau^2 + A^-1 sin^2(x/2))/4 + A^-2 tau t + A t sin^2(x/2)."""
    _check_domain(t, -s.tau**2, s.tau**2)
    x = np.asarray(x, dtype=float)
    sin_sq = np.sin(x / 2.0) ** 2
    return 0.25 * (s.tau**2 / s.A + sin_sq / s.A) + s.tau * t / s.A**2 + s.A * t * sin_sq


def hbar_t_of(x, t, s: HeightSchedule):
    """Time derivative of hbar: A^-2 tau + A sin^2(x/2)."""
    _check_domain(t, -s.tau**2, s.tau**2)
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


def _sampled_times(lo: float, hi: float):
    """_T_SAMPLES times spanning [lo, hi], as a column against the nodes."""
    return np.linspace(lo, hi, _T_SAMPLES)[:, None]


def schedule_margins(s: HeightSchedule, grid: SpectralGrid) -> ScheduleMargins:
    """Evaluate the four testable schedule inequalities on an (x, t) box.

    Margins are reported, never raised on: a pinched schedule legitimately
    returns a zero or negative margin, and the h_t bound is +inf when no
    sampled (x, t) lies in its outer region.
    """
    x = grid.nodes
    wrapped = np.abs(np.mod(x + np.pi, 2.0 * np.pi) - np.pi)
    t = _sampled_times(s.tau**2, s.tau)
    h = h_of(x, t, s)
    outer = wrapped >= 10.0 / s.A * np.sqrt(t)
    h_t_margin = np.where(outer, 6.0 * s.A**2 * h - np.abs(h_t_of(x, t, s)), np.inf)
    handover = h_of(x, s.tau**2, s) - hbar_of(x, s.tau**2, s)
    t = _sampled_times(-s.tau**2, s.tau**2)
    hbar_t_margin = _C0 / s.tau * hbar_of(x, t, s) - np.abs(hbar_t_of(x, t, s))
    return ScheduleMargins(
        h_positive=float(h.min()),
        h_t_bound=float(h_t_margin.min()),
        handover=float(handover.min()),
        hbar_t_bound=float(hbar_t_margin.min()),
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
    return tuple(
        float((_model_rt_profile(x, t) + rate(x, t, s) - np.sqrt(s.A) * height(x, t, s)).min())
        for height, rate, t in ((h_of, h_t_of, _sampled_times(s.tau**2, s.tau)),
                                (hbar_of, hbar_t_of, _sampled_times(-s.tau**2, s.tau**2)))
    )
