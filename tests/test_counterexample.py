import math

import numpy as np
import pytest

from psilab import constants as const
from psilab.counterexample import (
    asymptotic_check,
    find_lambda_bar,
    sweep,
    sweep_to_csv,
)
from psilab.errors import ConvergenceFailure, is_divergent
from psilab.mesh import total_mean_curvature
from psilab.analytic import example51_gradient_integrals, example51_surface_lp, make_sphere


class TestSweep:
    def test_argument_checks(self):
        with pytest.raises(ValueError):
            sweep(0.5, [10.0])
        with pytest.raises(ValueError):
            sweep(1.5, [0.5])

    def test_divergent_rows_for_p2(self):
        rows = sweep(2.0, [5.0, 50.0])
        for row in rows:
            assert is_divergent(row.plane_grad_p)
            assert math.isinf(row.ratio)

    def test_subcritical_ratio_grows(self):
        rows = sweep(1.5, [10.0, 100.0, 1000.0])
        ratios = [r.ratio for r in rows]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_p1_full_ratio_limit(self):
        # plane -> 4 pi while surface -> 0 and the curvature term -> 8 pi,
        # so the full quotient settles at one half
        (row,) = sweep(1.0, [1e5])
        assert row.ratio == pytest.approx(0.5, rel=1e-3)
        assert row.plane_grad_p == pytest.approx(4.0 * math.pi, rel=1e-3)

    def test_gradient_ratio_slope_is_p(self):
        p = 1.5
        lams = [10.0 ** k for k in range(1, 5)]
        rows = sweep(p, lams)
        x = np.log([r.lam for r in rows])
        y = np.log([r.gradient_ratio for r in rows])
        slope = np.polyfit(x, y, 1)[0]
        assert abs(slope - p) / p < 0.1

    def test_sweep_is_deterministic(self):
        lams = [2.0, 5.0, 9.0]
        assert sweep(1.5, lams) == sweep(1.5, lams)

    def test_rows_match_scalar_closed_forms(self):
        lams = [1.0, 1.5, 10.0, 1e4, 1e9]
        for row, lam in zip(sweep(1.3, lams), lams):
            surface, plane = example51_gradient_integrals(lam, 1.3)
            curvature = 2.0**1.3 * example51_surface_lp(lam, 1.3)
            assert (row.lam, row.surface_grad_p, row.plane_grad_p) == (lam, surface, plane)
            assert row.curvature_term == curvature
            assert row.ratio == pytest.approx(plane / (surface + curvature), rel=1e-15)
            assert row.gradient_ratio == pytest.approx(plane / surface, rel=1e-15)
            assert type(row.surface_grad_p) is float and type(row.ratio) is float

    def test_mesh_cross_check(self):
        rows = sweep(1.5, [2.0, 30.0], mesh_check=True, subdiv=5)
        assert rows[0].mesh_surface is not None
        assert abs(rows[0].mesh_surface - rows[0].surface_grad_p) / rows[0].surface_grad_p < 0.05
        assert not rows[0].flagged
        assert rows[1].flagged  # lambda beyond what the mesh resolves

    def test_csv_output(self):
        text = sweep_to_csv(sweep(2.0, [3.0]))
        header, row = text.strip().split("\n")
        assert header.startswith("lambda,p,")
        assert "divergent" in row
        assert "inf" in row


class TestLambdaBar:
    def test_argument_checks(self):
        with pytest.raises(ValueError):
            find_lambda_bar(1.0, 1.0)
        with pytest.raises(ValueError):
            find_lambda_bar(0.0, 1.5)

    def test_supercritical_threshold_is_one(self):
        assert find_lambda_bar(10.0, 2.0) == 1.0
        assert find_lambda_bar(1e6, 3.0) == 1.0

    def test_finite_and_monotone_in_n(self):
        bars = [find_lambda_bar(N, 1.5) for N in (1.0, 10.0, 100.0)]
        assert all(math.isfinite(b) for b in bars)
        assert bars[0] < bars[1] < bars[2]

    def test_no_threshold_below_the_ceiling(self):
        # at p = 1.01 the quotient grows like lambda^0.02: far from 1e6 at 1e12
        with pytest.raises(ConvergenceFailure, match="no threshold below"):
            find_lambda_bar(1e6, 1.01)

    def test_threshold_is_one_when_lambda_one_crosses(self):
        assert find_lambda_bar(1e-3, 1.5) == 1.0

    def test_threshold_beyond_the_cancellation_point(self):
        # the root lies beyond 2^27, where 1 - 1/lambda^2 rounds to 1
        N, p = 2000.0, 1.2
        bar = find_lambda_bar(N, p)
        assert bar > 2.0**27
        (above,) = sweep(p, [bar])
        (below,) = sweep(p, [bar * (1.0 - 5e-4)])
        assert below.ratio < N < above.ratio

    def test_threshold_actually_crosses(self):
        N, p = 10.0, 1.5
        bar = find_lambda_bar(N, p)
        (above,) = sweep(p, [bar * 1.01])
        (below,) = sweep(p, [bar * 0.99])
        assert above.ratio > N
        assert below.ratio < N


class TestAsymptoticCheck:
    def test_corrected_constant_matches(self):
        surface_ratio, plane_ratio, plane_corrected = asymptotic_check(1.5, 1e5)
        assert surface_ratio == pytest.approx(1.0, rel=1e-4)
        assert plane_corrected == pytest.approx(1.0, rel=1e-3)
        # the printed constant is off by a fixed power of two
        assert abs(plane_ratio - 1.0) > 0.1

    def test_argument_checks(self):
        with pytest.raises(ValueError):
            asymptotic_check(2.5, 10.0)
        with pytest.raises(ValueError):
            asymptotic_check(1.5, 0.5)


class TestSphereExclusion:
    def test_sphere_curvature_exceeds_admissible_bound(self):
        tc = total_mean_curvature(make_sphere(4))
        limit = 1.0 / const.brendle_constant(2, 1)
        assert limit == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-12)
        assert tc == pytest.approx(4.0 * math.sqrt(math.pi), rel=0.02)
        assert tc > limit
