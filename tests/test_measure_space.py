import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from psilab.errors import InterpolationMismatch
from psilab.measure_space import (
    DiscreteMeasuredFunction,
    Interpolation,
    RadialProfile,
    TargetKind,
    TargetMeasure,
    distribution_function,
    gradient_energy,
    lebesgue,
    lp_norm,
    model_space,
    profile_inverse_tau,
    rearrange,
)
from psilab.special_fn import unit_ball_volume

STEP = Interpolation.RIGHT_CONTINUOUS_STEP
LINEAR = Interpolation.PIECEWISE_LINEAR


def random_dmf(rng, size=None):
    n = size or rng.integers(1, 60)
    return DiscreteMeasuredFunction(
        rng.uniform(0.0, 5.0, n), rng.uniform(0.1, 2.0, n)
    )


class TestDiscreteMeasuredFunction:
    def test_validation(self):
        with pytest.raises(ValueError, match="equal length"):
            DiscreteMeasuredFunction(np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="at least one sample"):
            DiscreteMeasuredFunction(np.array([]), np.array([]))

    # (values, weights, the refusal): a non-finite entry anywhere is named first, then a negative value,
    # then a weight that is not positive
    REFUSALS = {
        "nan-value": ([1.0, math.nan], [1.0, 1.0], "sample values and weights must be finite"),
        "-inf-value": ([1.0, -math.inf], [1.0, 1.0], "sample values and weights must be finite"),
        "inf-value": ([math.inf, 1.0], [1.0, 1.0], "sample values and weights must be finite"),
        "inf-weight": ([1.0, 2.0], [1.0, math.inf], "sample values and weights must be finite"),
        "nan-weight-beside-negative-value": ([-1.0, 2.0], [1.0, math.nan], "sample values and weights must be finite"),
        "negative-value-zero-weight": ([1.0, -0.5], [0.0, 1.0], "sample values must be >= 0"),
        "zero-weight": ([1.0], [0.0], "sample weights must be > 0"),
        "negative-weight": ([1.0, 2.0], [1.0, -2.0], "sample weights must be > 0"),
    }

    @pytest.mark.parametrize("values, weights, message", REFUSALS.values(), ids=REFUSALS.keys())
    def test_refusal_precedence(self, values, weights, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DiscreteMeasuredFunction(np.array(values), np.array(weights))

    def test_csv_roundtrip(self):
        dmf = DiscreteMeasuredFunction.from_samples([(1.5, 0.25), (0.75, 1.0)])
        back = DiscreteMeasuredFunction.from_csv(dmf.to_csv())
        assert np.array_equal(back.values, dmf.values)
        assert np.array_equal(back.weights, dmf.weights)

    def test_csv_header_enforced(self):
        with pytest.raises(ValueError):
            DiscreteMeasuredFunction.from_csv("radius,value\n1,1\n")

    def test_csv_one_column_row_refused(self):
        with pytest.raises(ValueError):
            DiscreteMeasuredFunction.from_csv("value,weight\n1.0,0.5\n2.0\n")

    def test_csv_header_only_has_no_samples(self):
        with pytest.raises(ValueError, match="no samples"):
            DiscreteMeasuredFunction.from_csv("value,weight\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("value,weight\n1.0,0.5\nabc,1\n", 3),
            ("value,weight\n1.0,0.5\n2.0\n", 3),
            ("value,weight\n1.0,0.5\n\nabc,1\n", 4),
        ],
        ids=["bad-field", "one-field-row", "after-blank-line"],
    )
    def test_csv_error_names_the_file_line(self, text, line):
        bad = text.strip().splitlines()[-1]
        with pytest.raises(ValueError, match=f"^line {line}: expected value,weight numbers, got '{bad}'$"):
            DiscreteMeasuredFunction.from_csv(text)

    def test_csv_error_from_an_unseekable_stream(self):
        # a pipe cannot be read again, so it is read into memory once and the error names the line
        r, w = os.pipe()
        os.write(w, b"value,weight\n1.0,0.5\nabc,1\n")
        os.close(w)
        with open(r) as stream, pytest.raises(ValueError, match="^line 3: expected value,weight numbers, got 'abc,1'$"):
            DiscreteMeasuredFunction.from_csv(stream)

    def test_csv_blank_lines_skipped(self):
        dmf = DiscreteMeasuredFunction.from_csv("value,weight\n\n1.0,0.5\n\n2.0,0.25\n\n")
        assert dmf.values.tolist() == [1.0, 2.0]
        assert dmf.weights.tolist() == [0.5, 0.25]

    def test_scaled(self):
        dmf = DiscreteMeasuredFunction.from_samples([(2.0, 1.0)])
        assert dmf.scaled(3.0).values[0] == 6.0
        with pytest.raises(ValueError):
            dmf.scaled(0.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 6.0, 2.37])
    def test_lp_norm_leaves_read_only_samples_unchanged(self, p):
        rng = np.random.default_rng(7)
        values, weights = rng.uniform(0.0, 5.0, 1000), rng.uniform(0.1, 2.0, 1000)
        before = values.copy(), weights.copy()
        for arr in (values, weights):
            arr.setflags(write=False)
        assert lp_norm(DiscreteMeasuredFunction(values, weights), p) == float(np.sum(weights * values**p)) ** (1 / p)
        assert np.array_equal(values, before[0]) and np.array_equal(weights, before[1])

    def test_distribution_function(self):
        dmf = DiscreteMeasuredFunction.from_samples([(1.0, 2.0), (3.0, 0.5)])
        assert distribution_function(dmf, 0.5) == 2.5
        assert distribution_function(dmf, 1.0) == 0.5
        assert distribution_function(dmf, 5.0) == 0.0
        with pytest.raises(ValueError, match="t must be >= 0"):
            distribution_function(dmf, -0.1)


class TestStepRearrangement:
    def test_single_sample(self):
        dmf = DiscreteMeasuredFunction.from_samples([(2.0, math.pi)])
        prof = rearrange(dmf, lebesgue(2))
        # ball of radius 1 has area pi
        assert prof.radii[0] == pytest.approx(1.0, rel=1e-14)
        assert prof.values[0] == 2.0

    def test_equimeasurable_on_t_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            dmf = random_dmf(rng)
            prof = rearrange(dmf, lebesgue(2))
            levels = np.unique(dmf.values)
            grid = np.concatenate([levels, 0.5 * (levels[:-1] + levels[1:])])
            for t in grid:
                if t <= 0:
                    continue
                mu = distribution_function(dmf, float(t))
                assert prof.superlevel_measure(float(t)) == pytest.approx(
                    mu, rel=1e-12, abs=1e-12
                )

    def test_lp_preserved_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dmf = random_dmf(rng)
            prof = rearrange(dmf, lebesgue(2))
            for p in (1.0, 1.5, 2.0, 3.0):
                assert lp_norm(prof, p) == pytest.approx(lp_norm(dmf, p), rel=1e-12)

    def test_tie_order_invariance(self):
        a = DiscreteMeasuredFunction.from_samples([(1.0, 0.5), (2.0, 1.0), (1.0, 0.25)])
        b = DiscreteMeasuredFunction.from_samples([(1.0, 0.25), (1.0, 0.5), (2.0, 1.0)])
        pa = rearrange(a, lebesgue(2))
        pb = rearrange(b, lebesgue(2))
        assert np.allclose(pa.radii, pb.radii, rtol=1e-15)
        assert np.array_equal(pa.values, pb.values)

    def test_zero_values_carry_no_level(self):
        dmf = DiscreteMeasuredFunction.from_samples([(0.0, 1.0), (1.0, 1.0)])
        prof = rearrange(dmf, lebesgue(2))
        assert prof.values.tolist() == [1.0]

    def test_scaling_equivariance(self):
        dmf = DiscreteMeasuredFunction.from_samples([(1.0, 1.0), (3.0, 0.5)])
        p1 = rearrange(dmf, lebesgue(2))
        p2 = rearrange(dmf.scaled(2.0), lebesgue(2))
        assert np.array_equal(p2.values, 2.0 * p1.values)
        assert np.array_equal(p2.radii, p1.radii)


def _unique_merge_reference(dmf):
    """Distinct levels and cumulative weights by a second sort in np.unique, as rearrange once did."""
    order = np.argsort(-dmf.values, kind="stable")
    distinct, starts = np.unique(-dmf.values[order], return_index=True)
    levels = -distinct
    cum_w = np.cumsum(np.add.reduceat(dmf.weights[order], starts)[levels > 0])
    return levels[levels > 0], cum_w


@given(
    st.lists(
        st.tuples(st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0]), st.floats(0.01, 3.0, allow_nan=False)),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_one_sort_merge_matches_unique(samples):
    dmf = DiscreteMeasuredFunction.from_samples(samples)
    levels, cum_w = _unique_merge_reference(dmf)
    if not levels.size:
        return
    target = lebesgue(2)
    prof = rearrange(dmf, target)
    assert np.array_equal(prof.values, levels)
    assert np.array_equal(prof.radii, target.ball_radius(cum_w))


class TestModelSpaceTarget:
    def test_flat_model_reproduces_euclidean_radii(self):
        # C = 1/(n omega_n^(1/n)) at K = 0 makes the two volume laws coincide
        n = 2
        c = 1.0 / (2.0 * math.sqrt(math.pi))
        rng = np.random.default_rng(3)
        for _ in range(10):
            dmf = random_dmf(rng)
            pe = rearrange(dmf, lebesgue(n))
            pm = rearrange(dmf, model_space(n, 0.0, c))
            assert np.allclose(pm.radii, pe.radii, rtol=1e-12)
            assert np.array_equal(pm.values, pe.values)

    def test_positive_curvature_shrinks_volume(self):
        c = 1.0 / (2.0 * math.sqrt(math.pi))
        t0 = model_space(2, 0.0, c)
        t1 = model_space(2, 1.0, c)
        assert t1.ball_volume(1.0) < t0.ball_volume(1.0)
        assert t1.ball_radius(t1.ball_volume(0.7)) == pytest.approx(0.7, rel=1e-13)

    def test_volumes_in_log_space_at_large_n(self):
        # a = (1/C - K)^n / n^n leaves the double range from n = 144, and omega_n underflows near n = 500;
        # the volumes, densities and perimeters go through log a and stay finite
        for target in (model_space(144, 0.0, 1e-3), model_space(300, 0.5, 1e-3), lebesgue(500)):
            r = np.array([0.0, 0.5, 1.0, 2.0]) * float(target.ball_radius(1.0))
            vol, dens = target.ball_volume(r), target.density(r)
            assert np.isfinite(vol).all() and np.isfinite(dens).all() and vol[0] == dens[0] == 0.0
            assert target.ball_radius(vol[1:]) == pytest.approx(r[1:], rel=1e-12)
            assert vol[2] == pytest.approx(1.0, rel=1e-12)
            # I(v) = density(ball_radius(v))
            assert math.exp(target.log_perimeter(0.0)) == pytest.approx(dens[2], rel=1e-12)

    def test_profile_integrals_at_large_n(self):
        # the profiles ``psilab rearrange --n 500`` builds: the step one keeps the samples' norm, and the linear
        # one's norm and energy are finite
        dmf = DiscreteMeasuredFunction(np.array([2.0, 1.0]), np.array([0.5, 1.5]))
        step, linear = (rearrange(dmf, lebesgue(500), interpolation) for interpolation in (STEP, LINEAR))
        assert lp_norm(step, 2.0) == pytest.approx(lp_norm(dmf, 2.0), rel=1e-12)
        assert all(0.0 < x < math.inf for x in (lp_norm(linear, 2.0), gradient_energy(linear, 1.5)))

    def test_validation(self):
        with pytest.raises(ValueError):
            model_space(2, -0.1, 1.0)
        with pytest.raises(ValueError):
            model_space(2, 2.0, 1.0)  # K >= 1/C
        with pytest.raises(ValueError):
            lebesgue(0)

    @pytest.mark.parametrize(
        "kind, K, C, message",
        [
            (TargetKind.MODEL_SPACE, 0.0, None, "model space requires a positive constant C"),
            (TargetKind.MODEL_SPACE, 0.0, -1.0, "model space requires a positive constant C"),
            (TargetKind.LEBESGUE_RN, 0.5, None, "Lebesgue target takes no K or C"),
            (TargetKind.LEBESGUE_RN, 0.0, 1.0, "Lebesgue target takes no K or C"),
        ],
        ids=["model-no-C", "model-negative-C", "lebesgue-K", "lebesgue-C"],
    )
    def test_target_refusals(self, kind, K, C, message):
        with pytest.raises(ValueError) as caught:
            TargetMeasure(kind, 2, K, C)
        assert str(caught.value) == message


class TestRadialProfile:
    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            RadialProfile(lebesgue(2), np.array([0.0, 1.0]), np.array([1.0, 2.0]), LINEAR)
        with pytest.raises(ValueError):
            RadialProfile(lebesgue(2), np.array([1.0, 0.5]), np.array([2.0, 1.0]), LINEAR)

    def test_step_evaluation(self):
        prof = RadialProfile(lebesgue(2), np.array([1.0, 2.0]), np.array([3.0, 1.0]), STEP)
        assert prof(0.5) == 3.0
        assert prof(1.5) == 1.0
        assert prof(2.5) == 0.0

    def test_linear_evaluation(self):
        prof = RadialProfile(lebesgue(2), np.array([0.0, 2.0]), np.array([4.0, 0.0]), LINEAR)
        assert prof(1.0) == pytest.approx(2.0)
        assert prof(3.0) == 0.0

    def test_inverse_tau(self):
        prof = RadialProfile(lebesgue(2), np.array([0.0, 2.0]), np.array([4.0, 0.0]), LINEAR)
        assert profile_inverse_tau(prof, 2.0) == pytest.approx(1.0, rel=1e-13)
        with pytest.raises(ValueError):
            profile_inverse_tau(prof, 5.0)

    def test_json_roundtrip(self):
        prof = RadialProfile(
            model_space(2, 0.5, 0.1), np.array([0.0, 1.5]), np.array([2.0, 0.0]), LINEAR
        )
        back = RadialProfile.from_json(prof.to_json())
        assert back.target.K == 0.5
        assert np.array_equal(back.radii, prof.radii)
        assert back.interpolation is LINEAR

    def test_json_roundtrip_on_lebesgue(self):
        prof = RadialProfile(lebesgue(3), np.array([1.0, 2.0]), np.array([1.0, 0.5]), STEP)
        back = RadialProfile.from_json(prof.to_json())
        assert back.target == lebesgue(3) and back.interpolation is STEP
        assert np.array_equal(back.radii, prof.radii) and np.array_equal(back.values, prof.values)

    @pytest.mark.parametrize(
        "radii, values, message",
        [
            ([0.0, 1.0], [1.0], "radii and values must be 1-d arrays of equal length"),
            ([[0.0, 1.0]], [[1.0, 0.0]], "radii and values must be 1-d arrays of equal length"),
            ([], [], "profile needs at least one knot"),
            ([-1.0, 1.0], [1.0, 0.0], "radii must be nonnegative and strictly increasing"),
            ([0.0, 1.0, 1.0], [1.0, 0.5, 0.0], "radii must be nonnegative and strictly increasing"),
            ([0.0, 1.0], [1.0, -0.5], "values must be nonnegative and non-increasing"),
        ],
        ids=["lengths", "2-d", "no-knots", "negative-radius", "repeated-radius", "negative-value"],
    )
    def test_knot_refusals(self, radii, values, message):
        with pytest.raises(ValueError) as caught:
            RadialProfile(lebesgue(2), np.array(radii), np.array(values), LINEAR)
        assert str(caught.value) == message

    def test_superlevel_measure_of_a_linear_profile(self):
        # above the top value the set is empty, at or below the last value it is the whole support, and in
        # between the crossing radius is interpolated on its segment
        prof = RadialProfile(lebesgue(2), np.array([0.0, 1.0, 2.0]), np.array([4.0, 2.0, 1.0]), LINEAR)
        assert prof.superlevel_measure(4.0) == prof.superlevel_measure(5.0) == 0.0
        assert prof.superlevel_measure(1.0) == prof.superlevel_measure(0.5) == pytest.approx(4.0 * math.pi)
        assert prof.superlevel_measure(3.0) == pytest.approx(0.25 * math.pi)
        assert prof.superlevel_measure(1.5) == pytest.approx(2.25 * math.pi)
        assert prof.support_radius() == 2.0
        with pytest.raises(ValueError, match="t must be >= 0"):
            prof.superlevel_measure(-0.1)

    def test_csv_roundtrip(self):
        prof = RadialProfile(lebesgue(3), np.array([1.0, 2.0]), np.array([1.0, 0.5]), STEP)
        back = RadialProfile.from_csv(prof.to_csv(), lebesgue(3), STEP)
        assert np.array_equal(back.radii, prof.radii)
        assert np.array_equal(back.values, prof.values)

    def test_csv_one_column_row_refused(self):
        with pytest.raises(ValueError):
            RadialProfile.from_csv("radius,value\n1.0,0.5\n2.0\n", lebesgue(3), STEP)

    def test_non_finite_knots_refused(self):
        with pytest.raises(ValueError, match="finite"):
            RadialProfile.from_csv("radius,value\n1.0,nan\n", lebesgue(3), STEP)
        with pytest.raises(ValueError, match="finite"):
            RadialProfile(lebesgue(3), np.array([1.0, math.inf]), np.array([1.0, 0.5]), STEP)


class TestProfileIntegrals:
    def test_cone_lp_closed_form(self):
        # u(r) = 1 - r on the unit ball: the integral of u^p is n omega_n B(n, p + 1), 2 pi / ((p+1)(p+2)) at
        # n = 2; at fractional p, (1 - r)^p is not smooth at r = 1, where the segment's rule is graded
        for n in (2, 3, 10):
            prof = RadialProfile(lebesgue(n), np.array([0.0, 1.0]), np.array([1.0, 0.0]), LINEAR)
            for p in (1.0, 1.5, 2.0, 2.5, 3.0, 3.7):
                expect = n * unit_ball_volume(n) * special.beta(n, p + 1.0)
                assert lp_norm(prof, p) ** p == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("n", [100, 300])
    def test_cone_lp_at_large_n(self, n):
        # the density r^(n-1) takes a rule of n//2 + 8 nodes: 24 were 3.7e-6 (p = 1) to 2.1e-4 (p = 3.7) off
        # at n = 300
        prof = RadialProfile(lebesgue(n), np.array([0.0, 1.0]), np.array([1.0, 0.0]), LINEAR)
        for p in (1.0, 1.5, 3.7):
            expect = n * unit_ball_volume(n) * special.beta(n, p + 1.0)
            assert lp_norm(prof, p) ** p == pytest.approx(expect, rel=1e-12, abs=0.0)  # expect is ~1e-40 at n = 100

    def test_cone_gradient_energy(self):
        prof = RadialProfile(lebesgue(2), np.array([0.0, 2.0]), np.array([3.0, 0.0]), LINEAR)
        for p in (1.0, 1.5, 2.0):
            assert gradient_energy(prof, p) == pytest.approx(
                1.5**p * math.pi * 4.0, rel=1e-13
            )

    def test_linear_integrals_match_the_segment_loops(self):
        # one 24-node Gauss-Legendre rule per segment, in the variable s, r = b - (b - a) s^2, on a segment
        # that ends at 0; only the summation order differs
        nodes, weights = np.polynomial.legendre.leggauss(24)
        s, ds = 0.5 * (nodes + 1.0), 0.5 * weights

        def loop_lp(prof, p):
            radii, values, target = prof.radii, prof.values, prof.target
            total = values[0] ** p * target.ball_volume(radii[0]) if radii[0] > 0 else 0.0
            for k in range(radii.size - 1):
                a, b, v0 = radii[k], radii[k + 1], values[k]
                slope = (values[k + 1] - v0) / (b - a)
                if values[k + 1] == 0.0:
                    r, dr = b - (b - a) * s**2, 2.0 * (b - a) * s * ds
                else:
                    r, dr = a + (b - a) * s, (b - a) * ds
                total += np.sum(dr * (v0 + slope * (r - a)) ** p * target.density(r))
            return total ** (1.0 / p)

        def loop_energy(prof, p):
            vol = prof.target.ball_volume(prof.radii)
            slopes = np.diff(prof.values) / np.diff(prof.radii)
            return sum(abs(s) ** p * (vol[k + 1] - vol[k]) for k, s in enumerate(slopes))

        rng = np.random.default_rng(19)
        targets = [lebesgue(2), lebesgue(3), model_space(2, 0.1, 0.2)]
        for trial in range(30):
            knots = int(rng.integers(2, 40))
            radii = np.cumsum(rng.uniform(0.01, 1.0, knots))
            if trial % 2:  # half the profiles start at the origin
                radii -= radii[0]
            values = np.sort(rng.uniform(0.0, 3.0, knots))[::-1]
            if trial % 3:
                values[-1] = 0.0
            prof = RadialProfile(targets[trial % 3], radii, values, LINEAR)
            for p in (1.0, 1.5, 2.0, 3.7):
                assert lp_norm(prof, p) == pytest.approx(loop_lp(prof, p), rel=1e-12)
                assert gradient_energy(prof, p) == pytest.approx(loop_energy(prof, p), rel=1e-12)

    def test_step_profile_has_no_gradient(self):
        prof = RadialProfile(lebesgue(2), np.array([1.0]), np.array([1.0]), STEP)
        with pytest.raises(InterpolationMismatch):
            gradient_energy(prof, 2.0)


class TestLinearRearrangement:
    def test_starts_at_zero_ends_at_zero(self):
        rng = np.random.default_rng(5)
        dmf = random_dmf(rng, size=300)
        prof = rearrange(dmf, lebesgue(2), LINEAR)
        assert prof.radii[0] == 0.0
        assert prof.values[-1] == 0.0
        assert prof.values[0] == pytest.approx(dmf.max_value(), rel=1e-13)

    def test_lp_close_to_step(self):
        # the quantile sketch trades exactness for slope stability
        rng = np.random.default_rng(9)
        dmf = random_dmf(rng, size=4000)
        step = rearrange(dmf, lebesgue(2), STEP)
        lin = rearrange(dmf, lebesgue(2), LINEAR)
        for p in (1.0, 2.0):
            assert lp_norm(lin, p) == pytest.approx(lp_norm(step, p), rel=0.05)

    def test_hat_energy_matches_continuum(self):
        # samples of 1 - r on the disk: gradient 2-energy of the profile is pi
        rng = np.random.default_rng(21)
        pts = rng.uniform(-1.0, 1.0, (120000, 2))
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) < 1.0]
        vals = 1.0 - np.hypot(pts[:, 0], pts[:, 1])
        w = np.full(len(vals), math.pi / len(vals))
        dmf = DiscreteMeasuredFunction(vals, w)
        prof = rearrange(dmf, lebesgue(2), LINEAR)
        assert gradient_energy(prof, 2.0) == pytest.approx(math.pi, rel=0.05)


def _stable_sort_reference(dmf, target, interpolation):
    """rearrange in one pass over a stable argsort, as it was written before its two stages."""
    order = np.argsort(-dmf.values, kind="stable")
    v_sorted = dmf.values[order]
    starts = np.flatnonzero(np.concatenate(([True], v_sorted[1:] != v_sorted[:-1])))
    levels = v_sorted[starts]
    merged_w = np.add.reduceat(dmf.weights[order], starts)
    keep = levels > 0
    levels, merged_w = levels[keep], merged_w[keep]
    if levels.size == 0:
        zero_r = target.ball_radius(dmf.total_weight())
        if interpolation is STEP:
            return np.array([zero_r]), np.array([0.0])
        return np.array([0.0, zero_r]), np.array([0.0, 0.0])
    cum_w = np.cumsum(merged_w)
    radii = np.asarray(target.ball_radius(cum_w), dtype=float)
    if interpolation is STEP:
        return radii, levels
    budget = max(16, round(math.sqrt(dmf.values.size) / 8.0))
    if levels.size <= budget:
        return np.concatenate([[0.0], radii]), np.concatenate([levels, [0.0]])
    cuts = cum_w[-1] * np.arange(1, budget + 1) / budget
    idx = np.searchsorted(cum_w, cuts * (1.0 - 1e-15), side="left")
    knot_v = np.concatenate([[levels[0]], np.minimum.accumulate(levels[np.minimum(idx, levels.size - 1)])])
    knot_v[-1] = 0.0
    return np.concatenate([[0.0], np.asarray(target.ball_radius(cuts), dtype=float)]), knot_v


def _sample_values(kind, size, rng):
    if kind == "ties":
        return rng.integers(0, 4, size) * 0.75
    if kind == "signed-zeros":  # +0.0 and -0.0 mixed with positive levels
        return np.where(rng.random(size) < 0.5, np.copysign(0.0, rng.random(size) - 0.5), rng.integers(1, 3, size) / 3)
    if kind == "all-zero":
        return np.copysign(0.0, rng.random(size) - 0.5)
    if kind == "distinct":
        return rng.uniform(0.0, 5.0, size)
    return np.round(rng.uniform(0.0, 1.0, size) * 20) / 20  # quantized: 21 levels


@pytest.mark.parametrize("interpolation", [STEP, LINEAR], ids=["step", "linear"])
@pytest.mark.parametrize("target", [lebesgue(2), lebesgue(3), lebesgue(500), model_space(3, 0.5, 0.3)],
                         ids=["lebesgue-2", "lebesgue-3", "lebesgue-500", "model-3"])
@pytest.mark.parametrize("kind", ["ties", "signed-zeros", "all-zero", "distinct", "quantized"])
@pytest.mark.parametrize("size", [1, 40, 3000])
def test_matches_the_stable_sort_to_the_last_bit(size, kind, target, interpolation):
    # the unstable sort with its runs put back in input order sums each level's weights as a stable sort does
    rng = np.random.default_rng(size)
    dmf = DiscreteMeasuredFunction(_sample_values(kind, size, rng), rng.uniform(0.1, 2.0, size))
    prof = rearrange(dmf, target, interpolation)
    radii, values = _stable_sort_reference(dmf, target, interpolation)
    assert prof.radii.tobytes() == radii.tobytes()
    assert prof.values.tobytes() == values.tobytes()


def test_sort_peak_memory():
    # the largest transient of rearrange on tie-heavy samples, as a mesh field's samples are, stays at
    # the 3.25 sample-sized float64 arrays of the stable-sort version it replaced
    rng = np.random.default_rng(3)
    size = 200_000
    dmf = DiscreteMeasuredFunction(_sample_values("quantized", size, rng), rng.uniform(0.1, 2.0, size))
    tracemalloc.start()
    try:
        rearrange(dmf, lebesgue(2), LINEAR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * 8 * size


@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 10.0, allow_nan=False),
            st.floats(0.01, 3.0, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),
)
@settings(max_examples=60, deadline=None)
def test_property_lp_preservation(samples, p):
    dmf = DiscreteMeasuredFunction.from_samples(samples)
    prof = rearrange(dmf, lebesgue(2))
    assert lp_norm(prof, p) == pytest.approx(lp_norm(dmf, p), rel=1e-12, abs=1e-12)


@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 10.0, allow_nan=False),
            st.floats(0.01, 3.0, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    ),
    st.floats(0.001, 9.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_property_equimeasurability(samples, t):
    dmf = DiscreteMeasuredFunction.from_samples(samples)
    prof = rearrange(dmf, lebesgue(3))
    assert prof.superlevel_measure(t) == pytest.approx(
        distribution_function(dmf, t), rel=1e-12, abs=1e-12
    )
