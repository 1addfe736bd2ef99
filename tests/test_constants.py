import math

import pytest
from scipy.special import gammaln

from psilab import constants as const
from psilab.errors import ComplexValued, CurvatureBoundViolated, GammaPole
from psilab.special_fn import bessel_first_zero, unit_ball_volume


class TestIsoperimetricChoice:
    def test_brendle_low_codimension_value(self):
        for n in range(2, 8):
            expect = 1.0 / (n * unit_ball_volume(n) ** (1.0 / n))
            assert const.brendle_constant(n, 1) == pytest.approx(expect, rel=1e-13)
            assert const.brendle_constant(n, 2) == pytest.approx(expect, rel=1e-13)

    def test_brendle_euclidean_product_is_exactly_one(self):
        for m in (1, 2):
            for n in range(2, 11):
                assert const.brendle(m).euclidean_product(n) == 1.0

    def test_michael_simon_bound(self):
        n = 3
        expect = 5.0**3 / unit_ball_volume(3) ** (1.0 / 3.0)
        assert const.ic_upper_bound(n) == pytest.approx(expect, rel=1e-13)
        assert const.michael_simon().value(n) == const.ic_upper_bound(n)

    def test_brendle_high_codimension_never_exceeds_michael_simon(self):
        for n in (2, 3, 5):
            for m in (3, 4, 10):
                assert const.brendle_constant(n, m) <= const.ic_upper_bound(n) + 1e-15

    def test_labels(self):
        assert const.michael_simon().label() == "michael-simon"
        assert const.brendle(2).label() == "brendle:2"

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            const.brendle(0)
        with pytest.raises(ValueError):
            const.IsoperimetricChoice(const.IsoKind.MICHAEL_SIMON, m=1)
        with pytest.raises(ValueError):
            const.ic_upper_bound(1)


class TestCurvaturePenalizedConstants:
    def test_ps_is_one_at_flat_low_codimension(self):
        for m in (1, 2):
            for n in range(2, 11):
                assert const.ps_constant(n, 0.0, const.brendle(m)) == 1.0

    def test_ps_grows_with_curvature_bound(self):
        choice = const.brendle(1)
        vals = [const.ps_constant(2, k, choice) for k in (0.0, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_iso_constant_flat(self):
        choice = const.brendle(1)
        assert const.iso_constant(2, 0.0, choice) == pytest.approx(
            1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-13
        )

    def test_curvature_bound_enforced(self):
        choice = const.brendle(1)
        limit = 1.0 / choice.value(2)
        with pytest.raises(CurvatureBoundViolated):
            const.ps_constant(2, limit, choice)
        with pytest.raises(ValueError):
            const.ps_constant(2, -0.1, choice)


class TestTalentiAndSobolev:
    def test_talenti_3_2(self):
        assert const.talenti_constant(3, 2.0) == pytest.approx(0.4272605428625268, rel=1e-12)

    def test_sobolev_conjugate(self):
        assert const.sobolev_conjugate(3, 2.0) == pytest.approx(6.0, rel=1e-15)
        assert const.sobolev_conjugate(2, 1.5) == pytest.approx(6.0, rel=1e-15)

    def test_domains(self):
        with pytest.raises(ValueError):
            const.talenti_constant(3, 1.0)
        with pytest.raises(ValueError):
            const.talenti_constant(3, 3.0)
        with pytest.raises(ValueError):
            const.sobolev_conjugate(2, 2.0)


class TestGagliardoNirenberg:
    def test_theta_in_unit_interval(self):
        for n, p, q in [(3, 2.0, 3.0), (4, 2.0, 2.5), (5, 3.0, 4.0)]:
            th = const.gn_theta(n, p, q)
            assert 0.0 < th <= 1.0

    def test_theta_is_one_at_endpoint(self):
        # q = p(n-1)/(n-p) makes the inequality purely gradient-driven
        assert const.gn_theta(3, 2.0, 4.0) == pytest.approx(1.0, rel=1e-13)
        assert const.gn_theta(4, 2.0, 3.0) == pytest.approx(1.0, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            const.gn_theta(3, 2.0, 4.5)  # q above the endpoint
        with pytest.raises(ValueError):
            const.gn_theta(3, 2.0, 2.0)  # q must exceed p
        with pytest.raises(ValueError):
            const.gn_theta(3, 1.0, 2.0)

    def test_corrected_constant_degenerates_to_talenti(self):
        assert const.egn_constant(3, 2.0, 4.0) == pytest.approx(
            const.talenti_constant(3, 2.0), rel=1e-10
        )

    def test_frozen_value(self):
        assert const.egn_constant(4, 2.0, 3.0) == pytest.approx(0.31218920569777797, rel=1e-12)

    def test_literal_reading_hits_gamma_pole_at_integer_q(self):
        with pytest.raises(GammaPole):
            const.egn_constant(3, 2.0, 4.0, const.EgnReading.LITERAL)

    def test_literal_reading_evaluable_at_non_integer_q(self):
        v = const.egn_constant(3, 2.0, 3.5, const.EgnReading.LITERAL)
        assert math.isfinite(v)
        # and it genuinely disagrees with the corrected constant
        w = const.egn_constant(3, 2.0, 3.5)
        assert abs(v - w) / w > 1e-3

    def test_literal_reading_complex_where_gamma_is_negative(self):
        # the literal numerator is gamma(-q), negative for q in (2, 3)
        with pytest.raises(ComplexValued):
            const.egn_constant(3, 2.0, 2.5, const.EgnReading.LITERAL)
        table = const.build_constants_table(3, 0.0, const.brendle(1), p=2.0, q=2.5).as_dict()
        assert table["EGN_literal"] == "complex"

    def test_corrected_reading_finite_as_q_approaches_p(self):
        # the gamma arguments grow like 1/(q - p): gamma(2001) overflows a double
        n, p, q = 3, 2.0, 2.001
        beta = n * p - q * (n - p)
        theta = n * (q - p) / ((q - 1.0) * beta)
        r = p * (q - 1.0) / (p - 1.0)
        log_ratio = (
            gammaln(q * (p - 1.0) / (q - p)) + gammaln(0.5 * n + 1.0)
            - gammaln((p - 1.0) * beta / (p * (q - p))) - gammaln(n * (p - 1.0) / p + 1.0)
        )
        expect = (
            ((q - p) / (p * math.sqrt(math.pi))) ** theta
            * (p * q / (n * (q - p))) ** (theta / p)
            * (beta / (p * q)) ** (1.0 / r)
            * math.exp(log_ratio * theta / n)
        )
        assert const.egn_constant(n, p, q) == pytest.approx(expect, rel=1e-12)
        table = const.build_constants_table(n, 0.5, const.brendle(1), p=p, q=q).as_dict()
        assert math.isfinite(table["EGN"]) and math.isfinite(table["GN"])


class TestLogSobolev:
    def test_p2_closed_form(self):
        for n in (3, 4, 5, 6):
            assert const.log_sobolev_constant(n, 2.0) == pytest.approx(
                2.0 / (n * math.pi * math.e), rel=1e-12
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            const.log_sobolev_constant(3, 1.0)
        with pytest.raises(ValueError):
            const.log_sobolev_constant(3, 3.0)


class TestSpectralGap:
    def test_flat_disk_faber_krahn_value(self):
        g = const.spectral_gap_constant(2, 0.0, const.brendle(1))
        j0 = bessel_first_zero(0.0)
        assert g == pytest.approx(j0 * j0 * math.pi, rel=1e-12)

    def test_literal_reading_is_unsquared(self):
        g = const.spectral_gap_constant(
            2, 0.0, const.brendle(1), const.SpectralReading.LITERAL
        )
        assert g == pytest.approx(bessel_first_zero(0.0) * math.pi, rel=1e-12)


class TestAsymptoticsAndSphere:
    def test_asymptotic_ratio_decreasing_to_one(self):
        vals = [const.asymptotic_ratio(n, 1.0) for n in (10, 100, 1000)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - 1.0) < 0.12
        assert vals[-1] == pytest.approx(1.0077421376889626, rel=1e-12)

    def test_asymptotic_ratio_domain(self):
        with pytest.raises(ValueError):
            const.asymptotic_ratio(2, -1.0)

    def test_tc_sphere_trace_value(self):
        assert const.tc_unit_sphere(2) == pytest.approx(4.0 * math.sqrt(math.pi), rel=1e-13)

    def test_tc_sphere_paper_formula(self):
        assert const.tc_unit_sphere(2, const.TcConvention.PAPER_FORMULA) == pytest.approx(
            2.0 * math.sqrt(2.0 * math.pi), rel=1e-13
        )

    def test_tc_conventions_converge_for_large_n(self):
        a = const.tc_unit_sphere(200)
        b = const.tc_unit_sphere(200, const.TcConvention.PAPER_FORMULA)
        assert abs(a / b - 1.0) < 0.02


class TestConstantsTable:
    def test_basic_keys(self):
        table = const.build_constants_table(2, 0.0, const.brendle(1))
        d = table.as_dict()
        assert d["PS"] == 1.0
        assert d["iso_choice"] == "brendle:1"
        for key in ("C", "I", "spectral_gap", "tc_sphere_trace", "tc_sphere_paper"):
            assert key in d

    def test_p_q_rows(self):
        table = const.build_constants_table(3, 0.0, const.brendle(1), p=2.0, q=4.0)
        d = table.as_dict()
        assert d["TA"] == pytest.approx(0.4272605428625268, rel=1e-12)
        assert d["EGN_literal"] == "gamma-pole"
        assert d["GN"] == pytest.approx(d["EGN"] * d["PS"], rel=1e-13)
