import json
import math

import numpy as np
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
        assert const.IsoperimetricChoice().value(n) == const.ic_upper_bound(n)

    def test_brendle_high_codimension_never_exceeds_michael_simon(self):
        for n in (2, 3, 5):
            for m in (3, 4, 10):
                assert const.brendle_constant(n, m) <= const.ic_upper_bound(n) + 1e-15

    def test_labels(self):
        assert const.IsoperimetricChoice().label() == "michael-simon"
        assert const.brendle(2).label() == "brendle:2"

    def test_labels_read_back(self):
        for choice in (const.IsoperimetricChoice(), *map(const.brendle, range(1, 6))):
            assert const.IsoperimetricChoice.from_label(choice.label()) == choice

    @pytest.mark.parametrize("text", ["bad", "brendle", "brendle:", "brendle:x", "michael_simon", "Brendle:1"])
    def test_a_label_of_no_choice_is_refused(self, text):
        with pytest.raises(ValueError, match=f"^--iso must be michael-simon or brendle:m, got '{text}'$"):
            const.IsoperimetricChoice.from_label(text)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            const.brendle(0)
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
            const.egn_constant(3, 2.0, 4.0, const.Reading.LITERAL)

    def test_literal_reading_evaluable_at_non_integer_q(self):
        v = const.egn_constant(3, 2.0, 3.5, const.Reading.LITERAL)
        assert math.isfinite(v)
        # and it genuinely disagrees with the corrected constant
        w = const.egn_constant(3, 2.0, 3.5)
        assert abs(v - w) / w > 1e-3

    def test_literal_reading_complex_where_gamma_is_negative(self):
        # the literal numerator is gamma(-q), negative for q in (2, 3)
        with pytest.raises(ComplexValued):
            const.egn_constant(3, 2.0, 2.5, const.Reading.LITERAL)
        table = const.build_constants_table(3, 0.0, const.brendle(1), p=2.0, q=2.5)
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
        table = const.build_constants_table(n, 0.5, const.brendle(1), p=p, q=q)
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
            2, 0.0, const.brendle(1), const.Reading.LITERAL
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
        d = const.build_constants_table(2, 0.0, const.brendle(1))
        assert d["PS"] == 1.0
        assert d["iso_choice"] == "brendle:1"
        for key in ("C", "I", "spectral_gap", "tc_sphere_trace", "tc_sphere_paper"):
            assert key in d

    def test_p_q_rows(self):
        d = const.build_constants_table(3, 0.0, const.brendle(1), p=2.0, q=4.0)
        assert d["TA"] == pytest.approx(0.4272605428625268, rel=1e-12)
        assert d["EGN_literal"] == "gamma-pole"
        assert d["GN"] == pytest.approx(d["EGN"] * d["PS"], rel=1e-13)

    @pytest.mark.parametrize("p, q", [(math.nan, None), (math.inf, None), (1.5, math.nan), (None, math.inf)])
    def test_non_finite_p_or_q_refused(self, p, q):
        with pytest.raises(ValueError, match="must be a finite number, got"):
            const.build_constants_table(2, 0.0, const.brendle(1), p, q)

    def test_p_outside_the_range_only_skips_its_rows(self):
        d = const.build_constants_table(2, 0.0, const.brendle(1), p=3.0)
        assert d["p"] == 3.0 and "TA" not in d and "LS" not in d


class TestLargeDimensions:
    """The paper's sharpness claims are about n -> infinity; the constants must stay finite there."""

    @pytest.mark.parametrize("n", [400, 1000, 5000])
    def test_finite_and_positive(self, n):
        values = [
            const.log_sobolev_constant(n, 1.5),
            const.brendle_constant(n, 3),
            const.tc_unit_sphere(n),
            const.tc_unit_sphere(n, const.TcConvention.PAPER_FORMULA),
        ]
        for m in (1, 3):
            for reading in const.Reading:
                values.append(const.spectral_gap_constant(n, 0.0, const.brendle(m), reading))
        assert all(math.isfinite(x) and x > 0 for x in values), values

    def test_michael_simon_bound_is_inf_past_the_double_range(self):
        assert math.isfinite(const.ic_upper_bound(400))
        for n in (440, 1000, 5000):
            assert const.ic_upper_bound(n) == math.inf
            # so Brendle's minimum takes its general form
            assert 0 < const.brendle_constant(n, 3) < math.inf

    def test_sphere_tc_times_brendle_tends_to_one(self):
        products = [const.tc_unit_sphere(n) * const.brendle_constant(n, 1) for n in (10, 100, 1000, 5000)]
        assert all(b < a for a, b in zip(products, products[1:]))
        assert 1.0 < products[-1] < 1.002

    def test_small_n_matches_the_gamma_forms(self):
        def omega(k):
            return math.pi ** (0.5 * k) / math.gamma(0.5 * k + 1.0)

        for n in range(2, 201):
            for p in (1.1, 1.5, 1.9):
                want = (
                    p / (n * math.pi ** (0.5 * p)) * ((p - 1.0) / math.e) ** (p - 1.0)
                    * (math.gamma(0.5 * n + 1.0) / math.gamma(n * (p - 1.0) / p + 1.0)) ** (p / n)
                )
                assert const.log_sobolev_constant(n, p) == pytest.approx(want, rel=1e-13)
            want = (1.0 / n) * (3 * omega(3) / ((n + 3) * omega(n + 3))) ** (1.0 / n)
            assert const.brendle_constant(n, 3) == pytest.approx(min(want, const.ic_upper_bound(n)), rel=1e-13)
            assert const.tc_unit_sphere(n) == pytest.approx(n * ((n + 1) * omega(n + 1)) ** (1.0 / n), rel=1e-13)
            paper = const.tc_unit_sphere(n, const.TcConvention.PAPER_FORMULA)
            assert paper == pytest.approx(n * (n * omega(n)) ** (1.0 / n), rel=1e-13)
            j = bessel_first_zero(0.5 * n - 1.0)
            gap = const.spectral_gap_constant(n, 0.0, const.brendle(1), const.Reading.LITERAL)
            assert gap == pytest.approx(j * omega(n) ** (2.0 / n), rel=1e-13)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_numpy_exponent_computes_in_double(dtype):
    # the exponent checks hand back a Python float, so a float32 p or q rounds no constant to float32
    p, q = dtype(1.5), dtype(2.5)
    for constant in (const.talenti_constant, const.log_sobolev_constant):
        assert constant(2, p).hex() == constant(2, 1.5).hex()
    for constant in (const.gn_beta, const.gn_theta, const.gn_r_exponent, const.egn_constant):
        assert constant(2, p, q).hex() == constant(2, 1.5, 2.5).hex()
    assert const.sobolev_conjugate(2, p).hex() == const.sobolev_conjugate(2, 1.5).hex()
    # the table keeps p and q as Python floats, so it serializes, row for row as from Python floats
    table = const.build_constants_table(3, 0.0, const.brendle(1), dtype(1.5), dtype(2.0))
    assert json.dumps(table) == json.dumps(const.build_constants_table(3, 0.0, const.brendle(1), 1.5, 2.0))
