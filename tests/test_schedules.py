import numpy as np
import pytest

from muskat import (
    HeightSchedule,
    ScheduleMargins,
    SpectralGrid,
    h_of,
    h_t_of,
    hbar_of,
    hbar_t_of,
    rt_coupled_margins,
    schedule_margins,
)
from muskat.errors import ScheduleDomainError

# tau small enough relative to A that the sign arguments go through
VALID = HeightSchedule(A=10.0, tau=0.005, kappa=1e-6)


class TestPointValues:
    def test_h_at_origin_final_time(self):
        assert h_of(0.0, VALID.tau, VALID) == pytest.approx(VALID.kappa)

    def test_h_at_pi_final_time(self):
        assert h_of(np.pi, VALID.tau, VALID) == pytest.approx(1.0 / VALID.A + VALID.kappa)

    def test_h_at_origin_initial_time(self):
        expected = (VALID.tau**2 - VALID.tau**4) / VALID.A + VALID.kappa
        assert h_of(0.0, VALID.tau**2, VALID) == pytest.approx(expected)

    def test_h_t_values(self):
        t = 0.5 * (VALID.tau**2 + VALID.tau)
        assert h_t_of(0.0, t, VALID) == pytest.approx(-2.0 * t / VALID.A)
        assert h_t_of(np.pi, t, VALID) == pytest.approx(-2.0 * t / VALID.A + VALID.A)

    def test_hbar_values(self):
        a_inv = 1.0 / VALID.A
        assert hbar_of(0.0, 0.0, VALID) == pytest.approx(a_inv * VALID.tau**2 / 4.0)
        assert hbar_of(0.0, -VALID.tau**2, VALID) == pytest.approx(
            a_inv * VALID.tau**2 / 4.0 - VALID.tau**3 / VALID.A**2
        )
        expected = (
            0.25 * (a_inv * VALID.tau**2 + a_inv)
            + VALID.tau**3 / VALID.A**2
            + VALID.A * VALID.tau**2
        )
        assert hbar_of(np.pi, VALID.tau**2, VALID) == pytest.approx(expected)

    def test_domain_errors(self):
        with pytest.raises(ScheduleDomainError):
            h_of(0.0, VALID.tau * 2.0, VALID)
        with pytest.raises(ScheduleDomainError):
            hbar_of(0.0, VALID.tau, VALID)

    def test_h_t_matches_finite_difference(self):
        t = 0.6 * VALID.tau
        eps = 1e-6 * VALID.tau
        x = np.linspace(0, 2 * np.pi, 17)
        fd = (h_of(x, t + eps, VALID) - h_of(x, t - eps, VALID)) / (2 * eps)
        assert np.abs(fd - h_t_of(x, t, VALID)).max() < 1e-8

    def test_hbar_t_matches_finite_difference(self):
        # hbar is linear in t, so the centered difference is exact
        t = 0.3 * VALID.tau**2
        eps = 0.1 * VALID.tau**2
        x = np.linspace(0, 2 * np.pi, 17)
        fd = (hbar_of(x, t + eps, VALID) - hbar_of(x, t - eps, VALID)) / (2 * eps)
        assert np.abs(fd - hbar_t_of(x, t, VALID)).max() < 1e-8


class TestParameterValidation:
    def test_rejects_large_tau(self):
        with pytest.raises(ValueError):
            HeightSchedule(A=10.0, tau=0.3, kappa=1e-6)

    def test_rejects_kappa_above_tau_squared(self):
        with pytest.raises(ValueError):
            HeightSchedule(A=10.0, tau=0.01, kappa=1e-3)

    def test_rejects_small_a(self):
        with pytest.raises(ValueError):
            HeightSchedule(A=0.5, tau=0.005, kappa=1e-6)


class TestSymmetries:
    @pytest.mark.parametrize("func,t", [
        (h_of, VALID.tau * 0.7), (h_t_of, VALID.tau * 0.7),
        (hbar_of, VALID.tau**2 * 0.5), (hbar_t_of, VALID.tau**2 * 0.5),
    ])
    def test_even_and_periodic(self, func, t):
        x = np.linspace(0.1, 3.0, 7)
        assert np.abs(func(x, t, VALID) - func(-x, t, VALID)).max() == 0.0
        assert np.abs(func(x, t, VALID) - func(x + 2 * np.pi, t, VALID)).max() < 1e-12

    def test_h_lower_envelope(self):
        x = np.linspace(0, 2 * np.pi, 257)
        for t in np.linspace(VALID.tau**2, VALID.tau * 0.999, 33):
            envelope = 0.5 / VALID.A * np.sin(x / 2.0) ** 2 + VALID.kappa
            assert (h_of(x, t, VALID) - envelope).min() >= -1e-15

    def test_hbar_lower_envelope(self):
        x = np.linspace(0, 2 * np.pi, 257)
        for t in np.linspace(-VALID.tau**2, VALID.tau**2, 33):
            envelope = (VALID.tau**2 / VALID.A + np.sin(x / 2.0) ** 2 / VALID.A) / 8.0
            assert (hbar_of(x, t, VALID) - envelope).min() >= -1e-15


class TestMargins:
    def test_all_margins_nonnegative_in_regime(self):
        grid = SpectralGrid(256)
        margins = schedule_margins(VALID, grid)
        assert margins.h_positive >= 0.0
        assert margins.h_t_bound >= 0.0
        assert margins.handover >= 0.0
        assert margins.hbar_t_bound >= 0.0
        assert margins.all_nonnegative()

    def test_handover_margin_exceeds_an_eighth(self):
        grid = SpectralGrid(256)
        margins = schedule_margins(VALID, grid)
        assert margins.handover >= VALID.tau**2 / (8.0 * VALID.A)

    def test_pinched_schedule_reports_zero_margin(self):
        pinched = HeightSchedule(A=10.0, tau=0.005, kappa=0.0)
        grid = SpectralGrid(256)
        margins = schedule_margins(pinched, grid)
        # h(0, tau) = 0 exactly: reported, not an error
        assert abs(h_of(0.0, pinched.tau, pinched)) < 1e-15
        assert margins.h_positive >= 0.0
        assert margins.h_positive < 1e-6

    def test_out_of_regime_parameters_report_negative(self):
        # tau too large for A: the schedule dips negative and the verifier
        # must say so rather than fail
        loose = HeightSchedule(A=10.0, tau=0.05, kappa=1e-6)
        grid = SpectralGrid(256)
        margins = schedule_margins(loose, grid)
        assert margins.h_positive < 0.0
        assert not margins.all_nonnegative()

    def test_rt_coupled_margins_positive_in_regime(self):
        grid = SpectralGrid(256)
        first, second = rt_coupled_margins(VALID, grid)
        assert first > 0.0
        assert second > 0.0


H_DOMAIN = (VALID.tau**2, VALID.tau)
HBAR_DOMAIN = (-VALID.tau**2, VALID.tau**2)
EVALUATORS = [(h_of, H_DOMAIN), (h_t_of, H_DOMAIN), (hbar_of, HBAR_DOMAIN),
              (hbar_t_of, HBAR_DOMAIN)]


class TestArrayTimes:
    X = np.linspace(0.0, 2.0 * np.pi, 33)

    @pytest.mark.parametrize("func,domain", EVALUATORS)
    def test_column_of_times_matches_scalar_calls(self, func, domain):
        times = np.linspace(*domain, 9)
        # hbar_t does not depend on t: its one row broadcasts over the times
        column = np.broadcast_to(func(self.X, times[:, None], VALID),
                                 (len(times), len(self.X)))
        for row, t in zip(column, times.tolist()):
            assert np.array_equal(row, func(self.X, t, VALID))

    @pytest.mark.parametrize("func,domain", EVALUATORS)
    def test_one_time_outside_the_domain_raises(self, func, domain):
        lo, hi = domain
        for stray in (lo - 1e-9, hi + 1e-9):
            with pytest.raises(ScheduleDomainError):
                func(self.X, np.array([[lo], [stray], [hi]]), VALID)


def looped_margins(s: HeightSchedule, grid: SpectralGrid):
    """schedule_margins and rt_coupled_margins one sampled time at a time."""
    x = grid.nodes
    wrapped = np.abs(np.mod(x + np.pi, 2.0 * np.pi) - np.pi)
    h_min = bound_min = hbar_bound_min = first = second = np.inf
    for t in np.linspace(s.tau**2, s.tau, 64).tolist():
        h = h_of(x, t, s)
        h_min = min(h_min, h.min())
        outer = wrapped >= 10.0 / s.A * np.sqrt(t)
        if outer.any():
            margin = 6.0 * s.A**2 * h[outer] - np.abs(h_t_of(x, t, s)[outer])
            bound_min = min(bound_min, margin.min())
        sigma = t - 0.5 * np.sin(x / 2.0) ** 2
        first = min(first, (sigma + h_t_of(x, t, s) - np.sqrt(s.A) * h).min())
    for t in np.linspace(-s.tau**2, s.tau**2, 64).tolist():
        hbar, hbar_t = hbar_of(x, t, s), hbar_t_of(x, t, s)
        hbar_bound_min = min(hbar_bound_min, (8.0 / s.tau * hbar - np.abs(hbar_t)).min())
        sigma = t - 0.5 * np.sin(x / 2.0) ** 2
        second = min(second, (sigma + hbar_t - np.sqrt(s.A) * hbar).min())
    handover = (h_of(x, s.tau**2, s) - hbar_of(x, s.tau**2, s)).min()
    return ScheduleMargins(float(h_min), float(bound_min), float(handover),
                           float(hbar_bound_min)), (float(first), float(second))


class TestArrayMargins:
    @pytest.mark.parametrize("a,tau", [(10.0, 0.005), (10.0, 0.05), (4.0, 0.01),
                                       (1.2, 0.5), (20.0, 0.002)])
    def test_equal_to_the_per_time_loop(self, a, tau):
        # (1.2, 0.5): no sampled point lies in the h_t bound's outer region
        s = HeightSchedule(A=a, tau=tau)
        grid = SpectralGrid(64)
        margins, coupled = looped_margins(s, grid)
        assert schedule_margins(s, grid) == margins
        assert rt_coupled_margins(s, grid) == coupled
        assert (margins.h_t_bound == np.inf) == (a == 1.2)


class TestAt:
    X = np.linspace(0.0, 2.0 * np.pi, 17)

    @pytest.mark.parametrize("t", H_DOMAIN)
    def test_h_owns_tau_squared_to_tau(self, t):
        heights, rates = VALID.at(self.X, t)
        assert np.array_equal(heights, h_of(self.X, t, VALID))
        assert np.array_equal(rates, h_t_of(self.X, t, VALID))

    def test_hbar_owns_the_times_below_tau_squared(self):
        t = np.nextafter(VALID.tau**2, 0.0)
        heights, rates = VALID.at(self.X, t)
        assert np.array_equal(heights, hbar_of(self.X, t, VALID))
        assert np.array_equal(rates, hbar_t_of(self.X, t, VALID))

    @pytest.mark.parametrize("t", [np.nextafter(-VALID.tau**2, -1.0), -1.0,
                                   np.nextafter(VALID.tau, 1.0), 0.5])
    def test_none_outside_the_schedule(self, t):
        assert VALID.at(self.X, t) is None
