import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from psilab import analytic
from psilab.errors import OutOfRange, is_divergent
from psilab.mesh import hausdorff_measure
from psilab.verify import verify_gn, verify_log_sobolev


def _loop_icosphere(subdiv):
    """The dict-of-midpoints icosphere, face by face: the reference for make_sphere."""
    verts = [tuple(v) for v in analytic._ICO_VERTS / np.linalg.norm(analytic._ICO_VERTS[0])]
    faces = [tuple(f) for f in analytic._ICO_FACES]
    for _ in range(subdiv):
        cache = {}

        def midpoint(a, b):
            key = (a, b) if a < b else (b, a)
            if key not in cache:
                p = 0.5 * (np.asarray(verts[a]) + np.asarray(verts[b]))
                p /= np.linalg.norm(p)
                cache[key] = len(verts)
                verts.append(tuple(p))
            return cache[key]

        nxt = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            nxt.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
        faces = nxt
    v = np.asarray(verts)
    return v / np.linalg.norm(v, axis=1, keepdims=True), np.asarray(faces, dtype=int)


# The generators' Python loops, vertex by vertex and quad by quad: the
# references the numpy grids must reproduce bit for bit.


def _loop_polar_triangles(rings, segments):
    def vid(j, k):
        return 1 + (j - 1) * segments + (k % segments)

    tris = [(0, vid(1, k), vid(1, k + 1)) for k in range(segments)]
    for j in range(1, rings):
        for k in range(segments):
            a, b = vid(j, k), vid(j, k + 1)
            c, d = vid(j + 1, k), vid(j + 1, k + 1)
            tris += [(a, c, d), (a, d, b)]
    return np.asarray(tris, dtype=int)


def _loop_disk(radius, rings, segments):
    pts = [(0.0, 0.0, 0.0)]
    for j in range(1, rings + 1):
        r = radius * j / rings
        for k in range(segments):
            a = 2.0 * math.pi * k / segments
            pts.append((r * math.cos(a), r * math.sin(a), 0.0))
    return np.asarray(pts), _loop_polar_triangles(rings, segments)


def _loop_cap(aperture, rings, segments):
    pts = [(0.0, 0.0, 1.0)]
    for j in range(1, rings + 1):
        phi = aperture * j / rings
        for k in range(segments):
            a = 2.0 * math.pi * k / segments
            pts.append((math.sin(phi) * math.cos(a), math.sin(phi) * math.sin(a), math.cos(phi)))
    return np.asarray(pts), _loop_polar_triangles(rings, segments)


def _loop_catenoid(t_max, nt, ntheta):
    pts = []
    for i in range(nt + 1):
        t = -t_max + 2.0 * t_max * i / nt
        c = math.cosh(t)
        for k in range(ntheta):
            a = 2.0 * math.pi * k / ntheta
            pts.append((c * math.cos(a), c * math.sin(a), t))
    tris = []
    for i in range(nt):
        for k in range(ntheta):
            a, b = i * ntheta + k, i * ntheta + (k + 1) % ntheta
            c, d = (i + 1) * ntheta + k, (i + 1) * ntheta + (k + 1) % ntheta
            tris += [(a, c, d), (a, d, b)]
    return np.asarray(pts), np.asarray(tris, dtype=int)


def _loop_clifford_torus(n):
    pts = np.empty((n * n, 4))
    for i in range(n):
        s = 2.0 * math.pi * i / n
        for j in range(n):
            t = 2.0 * math.pi * j / n
            pts[i * n + j] = (math.cos(s), math.sin(s), math.cos(t), math.sin(t))
    pts /= math.sqrt(2.0)
    tris = []
    for i in range(n):
        for j in range(n):
            a, b = i * n + j, i * n + (j + 1) % n
            c, d = ((i + 1) % n) * n + j, ((i + 1) % n) * n + (j + 1) % n
            tris += [(a, c, d), (a, d, b)]
    return pts, np.asarray(tris, dtype=int)


GRID_CASES = [
    (lambda: analytic.make_disk(2.5, 7, 9), lambda: _loop_disk(2.5, 7, 9)),
    *[(lambda r=r: analytic.make_disk(rings=r), lambda r=r: _loop_disk(1.0, r, max(16, 2 * r))) for r in (2, 12, 33)],
    *[(lambda ap=ap: analytic.make_cap(ap), lambda ap=ap: _loop_cap(ap, 16, 32)) for ap in (0.3, 0.7, 2.0)],
    *[
        (lambda a=args: analytic.make_catenoid(*a), lambda a=args: _loop_catenoid(*a))
        # at (2.5, 24, 16) np.cosh and math.cosh disagree on 7 of the 25 rows
        for args in ((1.0, 24, 48), (0.5, 2, 3), (1.3, 7, 11), (2.5, 24, 16))
    ],
    *[(lambda n=n: analytic.make_clifford_torus(n), lambda n=n: _loop_clifford_torus(n)) for n in (3, 16, 33)],
]
GRID_IDS = [
    "disk-2.5-7-9", "disk-2", "disk-12", "disk-33", "cap-0.3", "cap-0.7", "cap-2.0",
    "catenoid-1.0-24-48", "catenoid-0.5-2-3", "catenoid-1.3-7-11", "catenoid-2.5-24-16",
    "torus-3", "torus-16", "torus-33",
]


class TestSurfaceGenerators:
    @pytest.mark.parametrize("subdiv", range(6))
    def test_sphere_matches_loop_reference(self, subdiv):
        verts, faces = _loop_icosphere(subdiv)
        mesh = analytic.make_sphere(subdiv)
        assert np.array_equal(mesh.triangles, faces)
        np.testing.assert_allclose(mesh.vertices, verts, rtol=0, atol=1e-15)

    def test_sphere_built_once_per_arguments(self):
        mesh = analytic.make_sphere(3)
        assert analytic.make_sphere(3) is mesh
        assert analytic.make_sphere(subdiv=3, radius=1.0) is mesh
        assert analytic.make_sphere(3, radius=2.0) is not mesh
        verts, faces = _loop_icosphere(3)
        assert np.array_equal(mesh.triangles, faces)
        np.testing.assert_allclose(mesh.vertices, verts, rtol=0, atol=1e-15)
        with pytest.raises(ValueError, match="read-only"):
            mesh.vertices[0, 0] = 0.0

    def test_sphere_area(self):
        mesh = analytic.make_sphere(4)
        assert hausdorff_measure(mesh) == pytest.approx(4.0 * math.pi, rel=5e-3)

    def test_sphere_radius(self):
        mesh = analytic.make_sphere(2, radius=3.0)
        assert np.allclose(np.linalg.norm(mesh.vertices, axis=1), 3.0)

    def test_cap_area(self):
        ap = 0.8
        mesh = analytic.make_cap(ap, rings=24)
        assert hausdorff_measure(mesh) == pytest.approx(
            2.0 * math.pi * (1.0 - math.cos(ap)), rel=5e-3
        )

    def test_disk_flat(self):
        mesh = analytic.make_disk(2.0, 16)
        assert np.all(mesh.vertices[:, 2] == 0.0)
        assert hausdorff_measure(mesh) == pytest.approx(4.0 * math.pi, rel=1e-2)

    def test_catenoid_has_boundary(self):
        mesh = analytic.make_catenoid(1.0, 12, 24)
        assert not mesh.is_closed()
        assert mesh.boundary_vertices().size == 48

    def test_clifford_torus_closed_in_r4(self):
        mesh = analytic.make_clifford_torus(8)
        assert mesh.d == 4
        assert mesh.is_closed()
        # all points lie on the unit 3-sphere
        assert np.allclose(np.linalg.norm(mesh.vertices, axis=1), 1.0)

    def test_dispatch(self):
        mesh = analytic.make_surface("sphere", subdiv=1)
        assert mesh.is_closed()
        with pytest.raises(ValueError):
            analytic.make_surface("moebius")

    @pytest.mark.parametrize("make, loop", GRID_CASES, ids=GRID_IDS)
    def test_grid_generators_match_loop_reference(self, make, loop):
        mesh = make()
        verts, tris = loop()
        assert np.array_equal(mesh.vertices, verts)
        assert np.array_equal(mesh.triangles, tris)

    def test_generator_argument_checks(self):
        with pytest.raises(ValueError):
            analytic.make_cap(4.0)
        with pytest.raises(ValueError):
            analytic.make_disk(-1.0)
        with pytest.raises(ValueError):
            analytic.make_clifford_torus(2)
        with pytest.raises(ValueError, match="subdiv must be >= 0"):
            analytic.make_sphere(-1)
        with pytest.raises(ValueError, match="rings must be >= 2"):
            analytic.make_disk(rings=1)
        with pytest.raises(ValueError, match="nt >= 2"):
            analytic.make_catenoid(nt=1)


class TestBlowupFamily:
    def test_field_values(self):
        lam = 4.0
        # north pole: r = 0 on the cap
        assert analytic.example51_field(lam, [0.0, 0.0, 1.0]) == 0.0
        # south pole: off the cap
        assert analytic.example51_field(lam, [0.0, 0.0, -1.0]) == 1.0
        # cap edge: r = 1/lambda gives value 1, continuously
        z = math.sqrt(1.0 - 1.0 / lam**2)
        assert analytic.example51_field(lam, [1.0 / lam, 0.0, z]) == pytest.approx(1.0)

    @pytest.mark.parametrize("subdiv", [0, 3])
    def test_field_of_an_array_of_lambdas(self, subdiv):
        # row k is the scalar call's field of lambda k, bit for bit; one point gives one value per lambda
        points = analytic.make_sphere(subdiv).vertices
        lams = [1.0, 1.5, 7.3, 20.0, 1e8]
        stacked = analytic.example51_field(np.array(lams), points)
        assert stacked.shape == (len(lams), len(points))
        for lam, row in zip(lams, stacked):
            assert row.tobytes() == analytic.example51_field(lam, points).tobytes()
        at_pole = analytic.example51_field(lams, [0.0, 0.6, 0.8])
        assert at_pole.tolist() == [analytic.example51_field(lam, [0.0, 0.6, 0.8]) for lam in lams]
        assert analytic.example51_field([], points).shape == (0, len(points))

    def test_profile_shape(self):
        lam = 5.0
        prof = analytic.example51_profile(lam)
        s0 = math.sqrt(2.0 * (1.0 + math.sqrt(1.0 - 1.0 / lam**2)))
        assert prof.value(0.0) == 1.0
        assert prof.value(0.99 * s0) == 1.0
        assert prof.value(2.0) == 0.0
        assert prof.derivative(0.5 * s0) == 0.0
        assert prof.derivative(0.5 * (s0 + 2.0)) < 0.0

    def test_profile_refuses_lambda_whose_square_overflows(self):
        # 1/lambda^2 is taken on a Python float, which raised a bare OverflowError naming no argument
        assert analytic.example51_profile(1.3e154).slope_start == 2.0
        for lam in (1e155, 1e160):
            with pytest.raises(OutOfRange, match=r"^lambda must be at most 1\.3407807929942596e\+154, where"):
                analytic.example51_profile(lam)

    def test_profile_equimeasurable_with_sphere_field(self):
        # area{u > t} on the sphere equals pi * tau(t)^2 in the plane
        lam = 3.0
        prof = analytic.example51_profile(lam)
        for t in (0.3, 0.7, 0.95):
            # sphere: {u > t} misses the sub-cap r <= t/lambda (z > 0)
            cap = 2.0 * math.pi * (1.0 - math.sqrt(1.0 - (t / lam) ** 2))
            mu = 4.0 * math.pi - cap
            # invert the outer branch lambda sqrt(1 - w^2) = t
            w = math.sqrt(1.0 - (t / lam) ** 2)
            tau = math.sqrt(2.0 * (1.0 + w))
            assert math.pi * tau**2 == pytest.approx(mu, rel=1e-12)
            assert prof.value(tau - 1e-9) > t > prof.value(tau + 1e-9)

    def test_surface_lp_hemisphere_case(self):
        # lambda = 1: u = r on the upper hemisphere, 1 below;
        # the integral is 2 pi + pi^2 / 2
        assert analytic.example51_surface_lp(1.0, 1.0) == pytest.approx(
            2.0 * math.pi + 0.5 * math.pi**2, rel=1e-10
        )

    def test_gradient_surface_closed_form(self):
        # the tangential gradient of lambda*r is lambda*cos(phi); check the
        # closed form against direct quadrature of (lambda cos)^p over the cap
        import scipy.integrate

        lam, p = 7.0, 1.5
        surface, _ = analytic.example51_gradient_integrals(lam, p)
        phi0 = math.asin(1.0 / lam)
        expect, _ = scipy.integrate.quad(
            lambda phi: (lam * math.cos(phi)) ** p * 2.0 * math.pi * math.sin(phi),
            0.0,
            phi0,
        )
        assert surface == pytest.approx(expect, rel=1e-10)

    def test_gradient_surface_p1_exact_form(self):
        # at p = 1 the cap energy is exactly pi / lambda
        for lam in (2.0, 10.0, 100.0):
            surface, _ = analytic.example51_gradient_integrals(lam, 1.0)
            assert surface == pytest.approx(math.pi / lam, rel=1e-13)

    def test_plane_divergent_iff_p_at_least_two(self):
        _, plane = analytic.example51_gradient_integrals(10.0, 2.0)
        assert is_divergent(plane)
        _, plane = analytic.example51_gradient_integrals(10.0, 3.0)
        assert is_divergent(plane)
        _, plane = analytic.example51_gradient_integrals(10.0, 1.9)
        assert not is_divergent(plane) and plane > 0.0

    def test_plane_p1_large_lambda_limit(self):
        # p = 1: the planar energy tends to 4 pi as lambda grows
        _, plane = analytic.example51_gradient_integrals(1e6, 1.0)
        assert plane == pytest.approx(4.0 * math.pi, rel=1e-4)


class TestBlowupClosedForms:
    LAMS = np.array([1.0, 1.5, 10.0, 1e3, 1e5, 1e7, 1e9, 1e12])

    @pytest.mark.parametrize("p", [1.0, 1.3, 1.99, 2.0, 2.5])
    def test_array_call_matches_scalar_calls(self, p):
        surface, plane = analytic.example51_gradient_integrals(self.LAMS, p)
        lp = analytic.example51_surface_lp(self.LAMS, p)
        assert isinstance(surface, np.ndarray) and isinstance(lp, np.ndarray)
        for k, lam in enumerate(self.LAMS):
            s, pl = analytic.example51_gradient_integrals(float(lam), p)
            assert type(s) is float and s == surface[k]
            assert analytic.example51_surface_lp(float(lam), p) == lp[k]
            if p < 2.0:
                assert type(pl) is float and pl == plane[k]
            else:
                assert is_divergent(pl) and is_divergent(plane)

    def test_p1_surface_is_pi_over_lambda(self):
        surface, _ = analytic.example51_gradient_integrals(self.LAMS, 1.0)
        np.testing.assert_allclose(surface, math.pi / self.LAMS, rtol=1e-14)

    def test_p1_plane_elementary_form(self):
        # at p = 1 the integral of w (1-w)^(-1/2) over (w0, 1) is 2 sqrt(y0) - (2/3) y0^(3/2), y0 = 1 - w0
        _, plane = analytic.example51_gradient_integrals(self.LAMS, 1.0)
        y0 = 1.0 / (self.LAMS**2 * (1.0 + np.sqrt(1.0 - 1.0 / self.LAMS**2)))
        expect = 2.0 * math.sqrt(2.0) * math.pi * self.LAMS * (2.0 * np.sqrt(y0) - 2.0 / 3.0 * y0**1.5)
        np.testing.assert_allclose(plane, expect, rtol=1e-13)

    def test_no_collapse_near_p2(self):
        # (2 - p) * plane tends to 8 pi lambda^2 as p -> 2
        lams = np.array([1.5, 10.0, 1e3, 1e6])
        _, plane = analytic.example51_gradient_integrals(lams, 2.0 - 1e-6)
        np.testing.assert_allclose(1e-6 * plane, 8.0 * math.pi * lams**2, rtol=1e-3)

    @pytest.mark.parametrize("lam", [1.5, 10.0, 1e3])
    def test_surface_lp_matches_quadrature(self, lam):
        p = 1.5
        cap, _ = scipy.integrate.quad(
            lambda r: lam**p * r ** (p + 1.0) / math.sqrt(1.0 - r * r), 0.0, 1.0 / lam, epsabs=0.0, epsrel=1e-13
        )
        off_cap = 4.0 * math.pi - 2.0 * math.pi * (1.0 - math.sqrt(1.0 - 1.0 / lam**2))
        assert analytic.example51_surface_lp(lam, p) == pytest.approx(off_cap + 2.0 * math.pi * cap, rel=1e-12)

    def test_lambda_one_is_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            surface, plane = analytic.example51_gradient_integrals(1.0, 1.5)
            analytic.example51_gradient_integrals(np.array([1.0, 2.0]), 1.5)
            analytic.example51_surface_lp(1.0, 1.5)
        assert surface == pytest.approx(2.0 * math.pi / 2.5, rel=1e-15)
        assert math.isfinite(plane)

    def test_argument_checks(self):
        for lam, p in ((0.5, 1.5), (np.array([2.0, 0.9]), 1.5), (math.nan, 1.5), (math.inf, 1.5), (2.0, 0.5)):
            with pytest.raises(ValueError):
                analytic.example51_gradient_integrals(lam, p)
            with pytest.raises(ValueError):
                analytic.example51_surface_lp(lam, p)
        # lambda^p beyond the double range is an arithmetic error, not an inf in the output
        with pytest.raises(ArithmeticError):
            analytic.example51_gradient_integrals(1e12, 40.0)
        with pytest.raises(ArithmeticError):
            analytic.example51_surface_lp(1e12, 40.0)

    def test_lambda_limit_is_the_last_finite_square(self):
        limit = analytic._LAMBDA_MAX
        above = math.nextafter(limit, math.inf)
        assert math.isfinite(limit * limit) and math.isinf(above * above)

    @pytest.mark.parametrize("p", [1.0, 1.5, 1.9])
    def test_huge_lambda_ladder(self, p):
        # up to the last lambda whose square is a double, both energies sit on their leading terms, quietly;
        # beyond it x = 1/lambda^2 would round to 0, and every term with it, so lambda is refused
        limit = analytic._LAMBDA_MAX
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in [10.0**k for k in range(8, 155)] + [limit]:
                surface, plane = analytic.example51_gradient_integrals(lam, p)
                assert surface == pytest.approx(math.pi * lam ** (p - 2.0), rel=1e-14)
                assert plane == pytest.approx(2.0 ** (p + 1.0) / (2.0 - p) * math.pi * lam ** (2.0 * p - 2.0), rel=1e-14)
            for lam in (math.nextafter(limit, math.inf), 1e155, np.array([10.0, 1e160])):
                for closed_form in (analytic.example51_gradient_integrals, analytic.example51_surface_lp):
                    with pytest.raises(OutOfRange, match=r"^lambda must be at most 1\.3407807929942596e\+154, where"):
                        closed_form(lam, p)


class TestRadialFunctions:
    def test_gaussian_lp(self):
        # u = exp(-r^2) on R^2: integral of u^p is pi / p, and of |u'|^2 = 4 r^2 exp(-2 r^2) it is pi
        rf = analytic.RadialFunction(
            log_value=lambda r: -np.asarray(r) ** 2,
            log_slope=lambda r: np.log(2.0 * np.asarray(r)) - np.asarray(r) ** 2,
            n=2,
        )
        for p in (1.0, 2.0, 3.0):
            assert analytic.radial_lp(rf, p) ** p == pytest.approx(math.pi / p, rel=1e-9)
        assert analytic.radial_gradient_lp(rf, 2.0) == pytest.approx(math.pi, rel=1e-12)

    def test_gn_extremal_equality_is_dilation_invariant(self):
        for a, b in [(1.0, 1.0), (2.5, 0.3), (0.1, 4.0)]:
            rep = verify_gn(analytic.gn_extremal(3, 2.0, 3.0, a, b), 2.0, 3.0)
            assert rep.ratio == pytest.approx(1.0, abs=1e-6)

    def test_gn_extremal_equality_at_listed_parameters(self):
        for n, p, q in [(3, 2.0, 4.0), (4, 2.0, 3.0), (5, 3.0, 4.0)]:
            rep = verify_gn(analytic.gn_extremal(n, p, q), p, q)
            assert rep.ratio == pytest.approx(1.0, abs=1e-6)

    def test_logsobolev_extremal_is_normalized(self):
        for n, p, s in [(3, 2.0, 1.0), (4, 2.0, 0.5), (3, 1.5, 2.0)]:
            rf = analytic.logsobolev_extremal(n, p, s)
            assert analytic.radial_lp(rf, p) == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("n", [400, 1000, 5000])
    def test_logsobolev_extremal_is_normalized_at_large_n(self, n):
        p, s = 1.5, 1.0
        rf = analytic.logsobolev_extremal(n, p, s)
        pp = p / (p - 1.0)
        log_sphere = math.log(n) + 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)

        def log_density(r):  # log of u^p |S^(n-1)| r^(n-1), whose integral over r > 0 is 1
            return p * float(rf.log_value(r)) + log_sphere + (n - 1) * math.log(r)

        peak = ((n - 1) * s / (p * pp)) ** (1.0 / pp)
        mass, _ = scipy.integrate.quad(lambda r: math.exp(log_density(r) - log_density(peak)), 0.0, 3.0 * peak, points=[peak])
        assert math.log(mass) + log_density(peak) == pytest.approx(0.0, abs=1e-9)
        # u itself where it fits a double: C = exp(log_value(0)) exceeds the double range at n = 5000
        r = 0.7 if n < 5000 else 15.0
        assert 0 < float(rf.value(r)) < math.inf
        assert float(rf.value(r)) == pytest.approx(math.exp(float(rf.log_value(r))), rel=1e-15)

    @pytest.mark.parametrize("n", [100, 150, 200, 250, 300])
    def test_logsobolev_equality_past_n_100(self, n):
        # far out the extremal is 0 while r^(n-1) would leave the double range
        rep = verify_log_sobolev(analytic.logsobolev_extremal(n, 1.5, 1.0), 1.5)
        assert abs(rep.ratio - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 10, 100, 300, 400, 1000, 2000, 5000, 10_000])
    def test_sharp_as_n_grows(self, n):
        # equality for the extremals by one log-space quadrature at every n, far past the double range of u
        p = 1.5
        rf = analytic.logsobolev_extremal(n, p, 1.0)
        assert abs(verify_log_sobolev(rf, p).ratio - 1.0) < 1e-12
        assert abs(analytic.radial_lp(rf, p) - 1.0) < 1e-11
        if n in (3, 10, 100, 300):
            q_max = p * (n - 1.0) / (n - p)
            for q in (0.5 * (p + q_max), q_max):
                assert abs(verify_gn(analytic.gn_extremal(n, p, q), p, q).ratio - 1.0) < 1e-12

    def test_example51_profile_lp_matches_the_sphere(self):
        # the rearrangement keeps the L^p norm, also where the outer band (s0, 2) is narrower than 1e-3
        for lam in (1.0, 2.0, 10.0, 100.0):
            prof = analytic.example51_profile(lam)
            sphere = analytic.example51_surface_lp(lam, 1.5)
            assert analytic.radial_lp(prof, 1.5) ** 1.5 == pytest.approx(sphere, rel=1e-12)

    @pytest.mark.parametrize("lam", [2.0, 7.5, 10.0, 100.0, 1e4])
    def test_example51_profile_gradient_matches_the_closed_form(self, lam):
        # the band (s0, 2) is about 1/(4 lambda^2) wide: split at s0, with the (2 - s)^(-p/2) end in quad's weight
        prof = analytic.example51_profile(lam)
        for p in (1.0, 1.25, 1.5, 1.9):
            plane = analytic.example51_gradient_integrals(lam, p)[1]
            assert analytic.radial_gradient_lp(prof, p) == pytest.approx(plane, rel=1e-6)
        assert math.isfinite(verify_log_sobolev(prof, 1.5).rhs)  # its unit-norm copy keeps the band
        for p in (2.0, 3.0):  # divergent by the same exponent test as the closed form
            assert is_divergent(analytic.radial_gradient_lp(prof, p))
            assert is_divergent(analytic.example51_gradient_integrals(lam, p)[1])

    @pytest.mark.parametrize("lam", [3e4, 1e5, 1e7, 1e8])
    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_example51_profile_gradient_is_right_or_refused(self, lam, p):
        # the band (s0, 2) spans about 1.3e6 doubles at lambda = 3e4, 1.1e5 at 1e5, 11 at 1e7 and none at 1e8;
        # where it is too narrow to resolve, the integral is refused rather than read off a rounded band
        plane = analytic.example51_gradient_integrals(lam, p)[1]
        try:
            got = analytic.radial_gradient_lp(analytic.example51_profile(lam), p)
        except OutOfRange as exc:
            assert lam > 3e4 and "fewer than 524288 doubles wide" in str(exc)
        else:
            assert lam == 3e4 and got == pytest.approx(plane, rel=1e-6)

    def test_logsobolev_equality_invariant_in_s(self):
        for s in (0.5, 1.0, 2.0):
            rep = verify_log_sobolev(analytic.logsobolev_extremal(3, 2.0, s), 2.0)
            assert abs(rep.lhs - rep.rhs) < 1e-6

    def test_extremal_argument_checks(self):
        with pytest.raises(ValueError):
            analytic.gn_extremal(3, 2.0, 3.0, a=-1.0)
        with pytest.raises(ValueError):
            analytic.logsobolev_extremal(3, 2.0, 0.0)
        with pytest.raises(ValueError):
            analytic.logsobolev_extremal(3, 1.0, 1.0)
