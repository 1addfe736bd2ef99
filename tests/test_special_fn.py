import math

import numpy as np
import pytest
import scipy.special

from psilab.special_fn import (
    bessel_first_zero,
    bessel_j,
    gamma,
    log_gamma,
    log_unit_ball_volume,
    unit_ball_volume,
)


class TestGamma:
    def test_half_integer_values(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma(1.5) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-14)

    def test_integer_factorials(self):
        for n in range(1, 12):
            assert gamma(float(n)) == pytest.approx(math.factorial(n - 1), rel=1e-13)

    def test_against_stdlib_on_grid(self):
        for x in np.linspace(0.1, 30.0, 97):
            assert gamma(float(x)) == pytest.approx(math.gamma(x), rel=1e-12)

    def test_log_gamma_against_stdlib(self):
        for x in [0.2, 1.0, 7.3, 50.0, 171.0, 500.0, 5000.0]:
            assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-12, abs=1e-12)

    def test_large_argument_goes_through_logs(self):
        # Gamma(200) overflows naive intermediates but not the result path
        assert gamma(170.0) == pytest.approx(math.gamma(170.0), rel=1e-11)
        assert gamma(300.0) == math.inf or gamma(300.0) > 1e300

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma(0.0)
        with pytest.raises(ValueError):
            gamma(-2.5)
        with pytest.raises(ValueError):
            log_gamma(-1.0)


class TestBallVolume:
    def test_low_dimensions(self):
        assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
        assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)

    def test_recurrence(self):
        # omega_n = omega_{n-2} * 2 pi / n
        for n in range(3, 40):
            assert unit_ball_volume(n) == pytest.approx(
                unit_ball_volume(n - 2) * 2.0 * math.pi / n, rel=1e-12
            )

    def test_log_form_consistent(self):
        for n in [5, 50, 150, 199]:
            assert log_unit_ball_volume(n) == pytest.approx(
                math.log(unit_ball_volume(n)), rel=1e-12
            )

    def test_huge_dimension_finite(self):
        # the volume itself underflows doubles around n ~ 1000; the log stays usable
        assert unit_ball_volume(300) > 0.0
        assert math.isfinite(log_unit_ball_volume(100000))

    def test_domain(self):
        with pytest.raises(ValueError):
            unit_ball_volume(0)


class TestBesselJ:
    def test_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(1.0, 0.0) == 0.0
        assert bessel_j(0.5, 0.0) == 0.0

    def test_against_scipy(self):
        for order in [0.0, 1.0, 2.0, 0.5, 3.7]:
            for x in [0.3, 1.0, 2.5, 5.0, 8.0]:
                assert bessel_j(order, x) == pytest.approx(
                    float(scipy.special.jv(order, x)), rel=1e-11, abs=1e-13
                )

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_j(-1.0, 2.0)
        with pytest.raises(ValueError):
            bessel_j(0.0, -2.0)


class TestBesselFirstZero:
    def test_order_zero(self):
        assert abs(bessel_first_zero(0.0) - 2.404825557695773) < 1e-10

    def test_integer_orders_against_scipy(self):
        for order in (0, 1, 2, 3):
            expect = float(scipy.special.jn_zeros(order, 1)[0])
            assert bessel_first_zero(float(order)) == pytest.approx(expect, abs=1e-9)

    def test_half_order_is_pi(self):
        # J_{1/2} is proportional to sin(x)/sqrt(x)
        assert bessel_first_zero(0.5) == pytest.approx(math.pi, abs=1e-9)

    def test_three_halves_order_solves_tan_x_equals_x(self):
        # J_{3/2} is proportional to sin(x)/x - cos(x), which vanishes where tan x = x
        assert bessel_first_zero(1.5) == pytest.approx(4.493409457909064, abs=1e-12)

    def test_large_orders_against_scipy(self):
        # spectral-gap constants need order n/2 - 1 up to high dimensions
        for order in (30, 60, 100):
            expect = float(scipy.special.jn_zeros(order, 1)[0])
            assert bessel_first_zero(float(order)) == pytest.approx(expect, rel=1e-13)

    def test_root_is_actually_a_root(self):
        for order in (0.0, 1.3, 4.0):
            z = bessel_first_zero(order)
            assert abs(bessel_j(order, z)) < 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_first_zero(-0.5)

    def test_each_order_is_solved_once(self, monkeypatch):
        # the zero of an order is kept for the process: the scan and brentq run on its first call only, and a
        # refused order is not kept
        import scipy.optimize

        calls = []
        real = scipy.optimize.brentq
        monkeypatch.setattr(scipy.optimize, "brentq", lambda *a, **k: calls.append(a) or real(*a, **k))
        bessel_first_zero.cache_clear()
        try:
            first = bessel_first_zero(7.25)
            assert bessel_first_zero(7.25) == first == bessel_first_zero.__wrapped__(7.25)
            assert len(calls) == 2  # the first call and the unkept one
            for _ in range(2):
                with pytest.raises(ValueError):
                    bessel_first_zero(-0.5)
            assert bessel_first_zero.cache_info().currsize == 1
        finally:
            bessel_first_zero.cache_clear()
