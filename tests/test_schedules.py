import numpy as np
import pytest

from muskat import (
    HeightSchedule,
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
