"""End-to-end acceptance checks tying the modules together.

Each test records its wall time and asserts it stays within the stated
budget, so regressions in either accuracy or speed surface here.
"""

import math
import time

import numpy as np
import pytest

from psilab import analytic, constants as const
from psilab.counterexample import find_lambda_bar, sweep
from psilab.errors import DIVERGENT, CurvatureBoundViolated
from psilab.measure_space import (
    DiscreteMeasuredFunction,
    distribution_function,
    lebesgue,
    lp_norm,
    model_space,
    rearrange,
)
from psilab.mesh import VertexField, hausdorff_measure, mean_curvature
from psilab.special_fn import bessel_first_zero, bessel_j
from psilab.verify import (
    verify_michael_simon_p1,
    verify_model_space_ps,
    verify_polya_szego,
    verify_spectral_gap,
)

from conftest import boundary_vanishing_field

B1 = const.brendle(1)


class Stopwatch:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            assert time.monotonic() - self.t0 < self.budget


def random_smooth_field(mesh, rng):
    """Boundary-vanishing field: random radial polynomial with a mild angular wobble."""
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    r = np.hypot(x, y)
    theta = np.arctan2(y, x)
    a, b, c = rng.uniform(0.2, 1.5, 3)
    k = rng.integers(1, 4)
    eps = rng.uniform(0.0, 0.15)
    base = a * (1.0 - r) + b * (1.0 - r**2) + c * (1.0 - r) ** 2
    vals = base * (1.0 + eps * np.cos(k * theta))
    return boundary_vanishing_field(mesh, vals)


def test_criterion_1_constants():
    with Stopwatch(1.0):
        for m in (1, 2):
            for n in range(2, 11):
                assert const.ps_constant(n, 0.0, const.brendle(m)) == 1.0
        for n in (3, 4, 7):
            assert abs(const.log_sobolev_constant(n, 2.0) - 2.0 / (n * math.pi * math.e)) < 1e-12
        assert abs(bessel_first_zero(0.0) - 2.404825557695773) < 1e-10
        vals = [const.asymptotic_ratio(n, 1.0) for n in (10, 100, 1000)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert abs(vals[-1] - 1.0) < 0.12


def test_criterion_2_rearrangement_engine():
    with Stopwatch(5.0):
        rng = np.random.default_rng(42)
        c_sharp = 1.0 / (2.0 * math.sqrt(math.pi))
        for _ in range(100):
            n = int(rng.integers(1, 50))
            dmf = DiscreteMeasuredFunction(
                rng.uniform(0.0, 4.0, n), rng.uniform(0.05, 2.0, n)
            )
            prof = rearrange(dmf, lebesgue(2))
            levels = np.unique(dmf.values)
            grid = np.concatenate([levels, 0.5 * (levels[:-1] + levels[1:])])
            for t in grid[grid > 0]:
                assert abs(
                    prof.superlevel_measure(float(t)) - distribution_function(dmf, float(t))
                ) <= 1e-12 * max(1.0, dmf.total_weight())
            for p in (1.0, 1.5, 2.0, 3.0):
                a, b = lp_norm(prof, p), lp_norm(dmf, p)
                assert abs(a - b) <= 1e-12 * max(1.0, b)
            pm = rearrange(dmf, model_space(2, 0.0, c_sharp))
            assert np.allclose(pm.radii, prof.radii, rtol=1e-12, atol=1e-12)


def test_criterion_3_blowup_surface_integral():
    with Stopwatch(10.0):
        surface, _ = analytic.example51_gradient_integrals(100.0, 1.0)
        assert abs(surface - math.pi / 100.0) / (math.pi / 100.0) < 0.05


def test_criterion_3_blowup_plane_integral_printed_value():
    # The printed closure of the planar limit is 2^(3/2) pi; the computed
    # integral settles at 4 pi instead (see the asymptotic_check diagnostics),
    # so this check documents the discrepancy rather than passing.
    with Stopwatch(10.0):
        _, plane = analytic.example51_gradient_integrals(100.0, 1.0)
        printed = 2.0 ** 1.5 * math.pi
        assert abs(plane - printed) / printed < 0.02


def test_criterion_3_blowup_slope_and_divergence():
    with Stopwatch(10.0):
        p = 1.5
        rows = sweep(p, [10.0 ** k for k in range(1, 5)])
        x = np.log([r.lam for r in rows])
        y = np.log([r.gradient_ratio for r in rows])
        slope = np.polyfit(x, y, 1)[0]
        assert abs(slope - p) / p < 0.1
        _, plane = analytic.example51_gradient_integrals(50.0, 2.0)
        assert plane is DIVERGENT


def test_criterion_4_counterexample_threshold():
    with Stopwatch(10.0):
        bars = [find_lambda_bar(N, 1.5) for N in (1.0, 10.0, 100.0)]
        assert all(math.isfinite(b) for b in bars)
        assert bars[0] < bars[1] < bars[2]
        tc = mean_curvature(analytic.make_sphere(4)).total
        limit = 1.0 / const.brendle_constant(2, 1)
        assert abs(tc - 4.0 * math.sqrt(math.pi)) / tc < 0.02
        assert tc > limit
        assert abs(limit - 2.0 * math.sqrt(math.pi)) < 1e-12


@pytest.fixture(scope="module")
def field_corpus(disk32):
    rng = np.random.default_rng(2024)
    return [random_smooth_field(disk32, rng) for _ in range(20)]


def test_criterion_5_polya_szego_verdicts(disk32, disk_hat, field_corpus):
    with Stopwatch(60.0):
        # equality case: radial decreasing hat
        rep = verify_polya_szego(disk32, disk_hat, 2.0, 0.0, B1)
        assert rep.passed and 0.97 < rep.ratio < 1.03
        # randomized corpus
        for f in field_corpus:
            for p in (1.0, 2.0):
                rep = verify_polya_szego(disk32, f, p, 0.0, B1)
                assert rep.passed
                assert rep.ratio <= 1.01
        # small-aperture cap with an honest curvature bound
        cap = analytic.make_cap(0.3, rings=12)
        tc = mean_curvature(cap).total
        z = cap.vertices[:, 2]
        f = boundary_vanishing_field(cap, z - float(z[cap.boundary_vertices()].min()))
        assert verify_polya_szego(cap, f, 2.0, tc * 1.2 + 0.01, B1).passed
        # the full sphere is refused for every admissible K
        sphere = analytic.make_sphere(3)
        ones = VertexField(np.ones(len(sphere.vertices)))
        limit = 1.0 / B1.value(2)
        for K in np.linspace(0.0, limit * 0.999, 5):
            with pytest.raises(CurvatureBoundViolated):
                verify_polya_szego(sphere, ones, 2.0, float(K), B1)


def test_criterion_6_model_space(disk32, field_corpus):
    with Stopwatch(60.0):
        for f in field_corpus:
            for p in (1.0, 2.0):
                model = verify_model_space_ps(disk32, f, p, 0.0, B1, tolerance=0.01)
                assert model.passed
                euclid = verify_polya_szego(disk32, f, p, 0.0, B1)
                # at K = 0 the model rearrangement energy equals the euclidean one
                assert abs(model.lhs - euclid.lhs**p) <= 1e-10 * max(1.0, euclid.lhs**p)


def test_criterion_7_sharp_constant_equality_oracles(disk32):
    with Stopwatch(30.0):
        for n, p, q in [(3, 2.0, 4.0), (4, 2.0, 3.0), (5, 3.0, 4.0)]:
            rep = analytic.verify_radial_gn(analytic.gn_extremal(n, p, q), p, q)
            assert abs(rep.ratio - 1.0) < 1e-6
        assert abs(const.egn_constant(3, 2.0, 4.0) - const.talenti_constant(3, 2.0)) < 1e-6
        for n, p in [(3, 2.0), (4, 2.0), (3, 1.5)]:
            for s in (0.5, 1.0, 2.0):
                rep = analytic.verify_radial_log_sobolev(analytic.logsobolev_extremal(n, p, s), p)
                assert abs(rep.lhs - rep.rhs) < 1e-6
        # first Dirichlet eigenfunction of the unit disk
        j0 = bessel_first_zero(0.0)
        r = np.hypot(disk32.vertices[:, 0], disk32.vertices[:, 1])
        f = boundary_vanishing_field(disk32, np.array([bessel_j(0.0, j0 * x) for x in r]))
        rep = verify_spectral_gap(disk32, f, 0.0, B1)
        assert abs(rep.lhs - j0 * j0) / (j0 * j0) < 0.01
        assert rep.passed
        assert 0.98 < rep.ratio < 1.05


def test_criterion_8_mesh_geometry_oracles(sphere5):
    with Stopwatch(30.0):
        assert abs(hausdorff_measure(sphere5) - 4.0 * math.pi) / (4.0 * math.pi) < 0.005
        rep = mean_curvature(sphere5)
        assert np.max(np.abs(rep.h_norm - 2.0)) / 2.0 < 0.02
        assert abs(rep.total - 4.0 * math.sqrt(math.pi)) / rep.total < 0.02
        a = mean_curvature(analytic.make_sphere(3, radius=1.0)).total
        b = mean_curvature(analytic.make_sphere(3, radius=4.0)).total
        assert abs(a - b) / a < 1e-6
        torus = mean_curvature(analytic.make_clifford_torus(48))
        assert np.max(np.abs(torus.h_norm - 2.0)) / 2.0 < 0.03


def test_criterion_9_michael_simon_on_the_full_sphere(sphere5):
    with Stopwatch(30.0):
        for lam in (1.0, 5.0, 10.0):
            f = VertexField(analytic.example51_field(lam, sphere5.vertices))
            rep = verify_michael_simon_p1(sphere5, f, B1)
            assert rep.passed
