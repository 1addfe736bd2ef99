import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from psilab import analytic, constants as const
from psilab import verify as verify_module
from psilab.errors import ConvergenceFailure, CurvatureBoundViolated, GammaPole, NotMinimal, OutOfRange, SpecInvalid
from psilab import mesh as mesh_module
from psilab.mesh import TriMesh, VertexField, mean_curvature
from psilab.special_fn import bessel_first_zero, bessel_j
from psilab.verify import (
    MonotoneSpec,
    VerificationReport,
    monotone_preset,
    reports_to_csv,
    select_egn_reading,
    superlevel_region,
    verify_gn,
    verify_isoperimetric,
    verify_log_sobolev,
    verify_michael_simon_p1,
    verify_model_space_ps,
    verify_monotonicity_principle,
    verify_p_sobolev,
    verify_polya_szego,
    verify_spectral_gap,
)

from conftest import boundary_vanishing_field

B1 = const.brendle(1)


class TestVerificationReport:
    def test_pass_rule_le(self):
        assert VerificationReport("x", 1.0, 1.0, 0.01).passed
        assert VerificationReport("x", 1.009, 1.0, 0.01).passed
        assert not VerificationReport("x", 1.02, 1.0, 0.01).passed

    def test_pass_rule_ge(self):
        assert VerificationReport("x", 1.0, 1.009, 0.01, direction="ge").passed
        assert not VerificationReport("x", 1.0, 1.02, 0.01, direction="ge").passed

    def test_vacuous_always_passes(self):
        assert VerificationReport("x", 5.0, 1.0, 0.01, vacuous=True).passed

    def test_ratio_with_zero_rhs(self):
        assert VerificationReport("x", 0.0, 0.0, 0.01).ratio == 1.0
        assert math.isinf(VerificationReport("x", 1.0, 0.0, 0.01).ratio)

    def test_direction_validated(self):
        with pytest.raises(ValueError):
            VerificationReport("x", 1.0, 1.0, 0.01, direction="eq")

    @pytest.mark.parametrize("tol", [-0.5, math.nan, math.inf, -math.inf])
    def test_tolerance_is_a_finite_number_at_least_zero(self, tol, disk32, disk_hat):
        with pytest.raises(ValueError, match=f"tolerance must be a finite number >= 0, got {tol}"):
            VerificationReport("x", 1.0, 1.0, tol)
        with pytest.raises(ValueError, match="tolerance must be"):
            verify_module.verify_polya_szego(disk32, disk_hat, 2.0, 0.0, B1, tolerance=tol)

    def test_json_roundtrip(self):
        rep = VerificationReport(
            "x", 1.5, 2.0, 0.05, inputs={"n": 2, "p": 1.5}, direction="ge", notes="hi"
        )
        back = VerificationReport.from_json(rep.to_json())
        assert back.lhs == rep.lhs
        assert back.direction == "ge"
        assert back.inputs["p"] == 1.5
        assert back.passed == rep.passed

    def test_csv_summary(self):
        rep = VerificationReport("x", 1.0, 2.0, 0.01, inputs={"n": 2, "K": 0.0})
        text = reports_to_csv([rep])
        header, row = text.strip().split("\n")
        assert header == "inequality_id,n,p,q,K,lhs,rhs,ratio,pass,levels,merged_levels"
        assert row.endswith(",1,,")

    def test_csv_writes_numpy_scalars_as_plain_floats(self):
        rep = VerificationReport("x", np.float64(1.0), np.float64(2.0), 0.01)
        assert reports_to_csv([rep]).splitlines()[1] == "x,,,,,1.0,2.0,0.5,1,,"

    def test_field_checks_report_their_levels(self):
        # the hat's rings tie up to rounding: 9 levels at rings 8, each ring's radii merged into one
        f = VertexField(HAT8)
        rep = verify_polya_szego(DISK8, f, 2.0, 0.0, B1)
        merged = np.unique(HAT8).size - 9
        assert (rep.inputs["levels"], rep.inputs["merged_levels"]) == (9, merged) and "subdivision" not in rep.inputs
        assert reports_to_csv([rep]).splitlines()[1].endswith(f",1,9,{merged}")
        assert VerificationReport.from_json(rep.to_json()).inputs == rep.inputs

    def test_reads_a_report_of_the_sampling_verifiers(self):
        # written before the verifiers integrated exactly, with the subdivision they sampled at
        text = (
            '{"schema_version": 1, "inequality_id": "PolyaSzego", "lhs": 1.780464461837742, '
            '"rhs": 1.7753098060421049, "ratio": 1.0029035246569888, "pass": true, "tolerance": 0.01, '
            '"direction": "le", "vacuous": false, "notes": "", '
            '"inputs": {"n": 2, "p": 2.0, "K": 0.0, "iso": "brendle:1", "subdivision": 2}}'
        )
        rep = VerificationReport.from_json(text)
        assert (rep.lhs, rep.passed, rep.inputs["subdivision"]) == (1.780464461837742, True, 2)
        assert reports_to_csv([rep]).splitlines()[1] == "PolyaSzego,2,2.0,,0.0,1.780464461837742,1.7753098060421049," \
                                                         "1.0029035246569888,1,,"

    def test_default_tolerance(self):
        # a mesh check given no tolerance allows 1%, as a sampled check did from subdivision 2 on
        f = VertexField(HAT8)
        reports = [verify_polya_szego(DISK8, f, 2.0, 0.0, B1), verify_log_sobolev(DISK8, 1.5, f=f),
                   verify_michael_simon_p1(DISK8, f, B1), *verify_isoperimetric(DISK8, 0.0, B1)]
        assert verify_module._MESH_TOLERANCE == 0.01
        assert [r.tolerance for r in reports] == [0.01] * 4
        assert verify_p_sobolev(DISK8, f, 1.5, 0.0, B1, tolerance=0.05).tolerance == 0.05


class TestPolyaSzego:
    def test_disk_hat_near_equality(self, disk32, disk_hat):
        rep = verify_polya_szego(disk32, disk_hat, 2.0, 0.0, B1)
        assert rep.passed
        assert 0.97 < rep.ratio < 1.03

    def test_closed_surface_refused(self, sphere4):
        f = VertexField(np.ones(len(sphere4.vertices)))
        for K in (0.0, 1.0, 3.0):
            with pytest.raises(CurvatureBoundViolated, match="closed"):
                verify_polya_szego(sphere4, f, 2.0, K, B1)

    def test_curvature_above_bound_refused(self):
        # a wide cap has TC well above K = 0
        cap = analytic.make_cap(1.2, rings=12)
        r = np.hypot(cap.vertices[:, 0], cap.vertices[:, 1])
        f = boundary_vanishing_field(cap, np.maximum(0.5 - r, 0.0))
        with pytest.raises(CurvatureBoundViolated, match="total mean curvature"):
            verify_polya_szego(cap, f, 2.0, 0.0, B1)

    def test_cap_with_honest_bound_passes(self):
        cap = analytic.make_cap(0.3, rings=12)
        tc = mean_curvature(cap).total
        z = cap.vertices[:, 2]
        f = boundary_vanishing_field(cap, z - z[cap.boundary_vertices()].min())
        rep = verify_polya_szego(cap, f, 2.0, tc * 1.2 + 0.01, B1)
        assert rep.passed

    def test_boundary_vanishing_enforced(self, disk32):
        f = VertexField(np.ones(len(disk32.vertices)))
        with pytest.raises(ValueError, match="vanish"):
            verify_polya_szego(disk32, f, 2.0, 0.0, B1)


NUMPY_EXPONENTS = {
    "ps": lambda p, q: verify_polya_szego(DISK8, VertexField(HAT8), p, 0.0, B1),
    "model": lambda p, q: verify_model_space_ps(DISK8, VertexField(HAT8), p, 0.0, B1),
    "sobolev": lambda p, q: verify_p_sobolev(DISK8, VertexField(HAT8), p, 0.0, B1),
    "gn": lambda p, q: verify_gn(DISK8, p, q, 0.0, B1, f=VertexField(HAT8)),
    "logsob": lambda p, q: verify_log_sobolev(DISK8, p, f=VertexField(HAT8)),
    "gn-radial": lambda p, q: verify_gn(analytic.gn_extremal(2, 1.5, 2.5), p, q),
    "logsob-radial": lambda p, q: verify_log_sobolev(analytic.logsobolev_extremal(2, 1.5, 1.0), p),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("check", NUMPY_EXPONENTS)
def test_a_numpy_exponent_gives_the_report_of_a_python_float(check, dtype):
    # the verifiers compute with the Python float the exponent checks hand back: the same bits, and JSON
    got, want = NUMPY_EXPONENTS[check](dtype(1.5), dtype(2.5)), NUMPY_EXPONENTS[check](1.5, 2.5)
    assert type(got.inputs["p"]) is float and got.to_json() == want.to_json()
    assert (got.lhs.hex(), got.rhs.hex()) == (want.lhs.hex(), want.rhs.hex())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_numpy_exponent_gives_the_preset_of_a_python_float(dtype):
    # the p-sobolev preset keeps p as a Python float, in its maps and its psi exponent
    got, want = monotone_preset("p-sobolev", 2, dtype(1.5)), monotone_preset("p-sobolev", 2, 1.5)
    assert got.f(2.0).hex() == want.f(2.0).hex() and type(got.psi_terms[0][1]) is float
    reports = [verify_monotonicity_principle(DISK8, VertexField(HAT8), spec, 0.0, B1) for spec in (got, want)]
    assert reports[0].to_json() == reports[1].to_json() and reports[0].lhs.hex() == reports[1].lhs.hex()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_custom_spec_keeps_python_floats(dtype):
    # a custom spec's coefficients and exponents become Python floats, so the PS constant raised to a float32
    # exponent cannot turn the report's side into float32
    def spec(number):
        return MonotoneSpec(f=lambda v: v, phi=lambda v: v, g_terms=[(number(-0.5), number(2.0))],
                            psi_terms=[(number(1.0), number(1.5))], L=lambda s, t: s, lam=lambda s, t: t)

    got, want = spec(dtype), spec(float)
    assert all(type(x) is float for terms in (got.g_terms, got.psi_terms) for term in terms for x in term)
    reports = [verify_monotonicity_principle(DISK8, VertexField(HAT8), s, 0.5, B1) for s in (got, want)]
    assert reports[0].rhs.hex() == reports[1].rhs.hex() and reports[0].to_json() == reports[1].to_json()


@pytest.mark.parametrize("call", [
    lambda mesh, f: verify_model_space_ps(mesh, f, 2.0, 0.0, B1),
    lambda mesh, f: verify_p_sobolev(mesh, f, 1.5, 0.0, B1),
    lambda mesh, f: verify_gn(mesh, 1.5, 2.5, 0.0, B1, f=f),
    lambda mesh, f: verify_spectral_gap(mesh, f, 0.0, B1),
    lambda mesh, f: verify_log_sobolev(mesh, 1.5, f=f),
    lambda mesh, f: verify_monotonicity_principle(mesh, f, monotone_preset("sobolev-l1", n=2), 0.0, B1),
], ids=["model", "sobolev", "gn", "spectral", "logsob", "mono"])
def test_field_checks_refuse_a_field_not_vanishing_on_the_boundary(disk32, call):
    # the Polya-Szego case is TestPolyaSzego's; ms1 takes any field
    with pytest.raises(ValueError, match="field must vanish on boundary vertices"):
        call(disk32, VertexField(np.ones(len(disk32.vertices))))


MODEL_MESHES = {"disk": analytic.make_disk(1.0, 16), **{f"cap-{a}": analytic.make_cap(a, 16) for a in (0.3, 0.6, 0.9)}}


class TestModelSpace:
    def test_flat_model_agrees_with_euclidean(self, disk32, disk_hat):
        rep = verify_model_space_ps(disk32, disk_hat, 2.0, 0.0, B1)
        assert rep.passed
        # at K = 0 the model lhs is the euclidean profile energy
        euclid = verify_polya_szego(disk32, disk_hat, 2.0, 0.0, B1)
        assert rep.lhs == pytest.approx(euclid.lhs**2, rel=1e-10)

    @pytest.mark.parametrize("t", [0.0, 0.01, 0.03, 0.2])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_tolerance_is_the_ps_allowance_in_energy_terms(self, p, t):
        # lhs^(1/p) <= (1 + t) rhs_ps is lhs <= (1 + t)^p rhs; at p = 1 the allowance is t itself, not 1 + t - 1
        rep = verify_model_space_ps(DISK8, VertexField(HAT8), p, 0.0, B1, tolerance=t)
        assert rep.tolerance == ((1.0 + t) ** p - 1.0 if p != 1.0 else t)

    def test_a_tolerance_whose_energy_allowance_overflows_is_refused(self):
        with pytest.raises(OutOfRange, match=r"tolerance 1e\+200 at p = 2.0 leaves the double range"):
            verify_model_space_ps(DISK8, VertexField(HAT8), 2.0, 0.0, B1, tolerance=1e200)
        assert verify_model_space_ps(DISK8, VertexField(HAT8), 1.0, 0.0, B1, tolerance=1e200).tolerance == 1e200

    @seed(21)
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(list(MODEL_MESHES)), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.floats(1.0, 4.0),
           st.floats(0.0, 0.999))
    def test_model_is_ps_to_the_power_p(self, name, field_seed, noise, p, k):
        # boundary-vanishing fields from the hat about the pole (ratios near 1 on the disk) to noise, with K in
        # [1.01 TC, 1/C): one ratio, one verdict, and PS holds
        mesh = MODEL_MESHES[name]
        low = 1.01 * mean_curvature(mesh).total
        K = low + k * (1.0 / B1.value(mesh.n) - low)
        r = np.linalg.norm(mesh.vertices - mesh.vertices[0], axis=1)
        noisy = 1.0 - r / r.max() + noise * np.random.default_rng(field_seed).random(len(mesh.vertices))
        f = boundary_vanishing_field(mesh, noisy)
        ps, model = verify_polya_szego(mesh, f, p, K, B1), verify_model_space_ps(mesh, f, p, K, B1)
        assert model.ratio == pytest.approx(ps.ratio**p, rel=1e-13, abs=0.0)
        assert model.passed is ps.passed
        assert ps.passed


def _with_unused_vertices(mesh: TriMesh, count: int, seed: int) -> TriMesh:
    """``mesh`` with ``count`` vertices in no triangle put at random places among its own."""
    rng = np.random.default_rng(seed)
    nv = len(mesh.vertices) + count
    unused = rng.choice(nv, count, replace=False)
    used = np.setdiff1d(np.arange(nv), unused)  # ascending, so the mesh's vertices keep their order
    vertices = np.empty((nv, mesh.d))
    vertices[used], vertices[unused] = mesh.vertices, rng.uniform(-1.0, 1.0, (count, mesh.d))
    return TriMesh(vertices, used[mesh.triangles])


WHOLE_MESHES = {
    "disk": analytic.make_disk(1.0, 16),
    "cap-0.6": analytic.make_cap(0.6, 16),
    "catenoid": analytic.make_catenoid(1.0, 12, 24),
    **{f"cap-{a}-unused-{seed}": _with_unused_vertices(analytic.make_cap(a, 12), 7, seed)
       for a, seed in ((0.3, 1), (0.6, 2), (0.6, 3), (1.0, 4), (1.0, 5))},
}


class TestIsoperimetric:
    @pytest.mark.parametrize("mesh", WHOLE_MESHES.values(), ids=WHOLE_MESHES.keys())
    def test_whole_mesh_is_the_region_of_every_triangle(self, mesh):
        (whole,) = verify_isoperimetric(mesh, 3.5, B1)
        (every,) = verify_isoperimetric(mesh, 3.5, B1, [np.arange(len(mesh.triangles))])
        assert whole.to_json() == every.to_json()

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4])
    def test_whole_closed_mesh_is_refused_as_the_region_of_every_triangle(self, seed):
        # the message holds the measured TC, so it shows the last digit of the sum; seeds add unused vertices
        sphere = analytic.make_sphere(2)
        sphere = sphere if seed is None else _with_unused_vertices(sphere, 7, seed)
        messages = []
        for regions in (None, [np.arange(len(sphere.triangles))]):
            with pytest.raises(CurvatureBoundViolated, match="region total mean curvature .* exceeds") as caught:
                verify_isoperimetric(sphere, 3.5, B1, regions)
            messages.append(str(caught.value))
        # both read the one TC of the mesh's curvature report
        tc = mean_curvature(sphere).total
        assert messages == [f"region total mean curvature {tc} exceeds the declared bound K = 3.5"] * 2

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_iso_and_the_other_checks_refuse_with_one_tc(self, seed):
        cap = _with_unused_vertices(analytic.make_cap(1.0, 12), 7, seed)
        tc = mean_curvature(cap).total
        with pytest.raises(CurvatureBoundViolated) as iso:
            verify_isoperimetric(cap, 0.5, B1)
        with pytest.raises(CurvatureBoundViolated) as sobolev:
            verify_p_sobolev(cap, VertexField(np.zeros(len(cap.vertices))), 1.5, 0.5, B1)
        assert str(iso.value) == f"region total mean curvature {tc} exceeds the declared bound K = 0.5"
        assert str(sobolev.value) == f"measured total mean curvature {tc} exceeds the declared bound K = 0.5"

    def test_full_disk_is_near_equality(self, disk32, disk_hat):
        reports = verify_isoperimetric(
            disk32, 0.0, B1, [np.arange(len(disk32.triangles))], tolerance=0.01
        )
        assert len(reports) == 1
        assert reports[0].passed
        assert reports[0].ratio == pytest.approx(1.0, abs=0.01)

    def test_superlevel_regions(self, disk32, disk_hat):
        regions = [superlevel_region(disk32, disk_hat, t) for t in (0.25, 0.5)]
        assert len(regions[0]) > len(regions[1]) > 0
        reports = verify_isoperimetric(disk32, 0.0, B1, regions)
        assert all(r.passed for r in reports)


class TestPSobolev:
    def test_disk_hat(self, disk32, disk_hat):
        rep = verify_p_sobolev(disk32, disk_hat, 1.5, 0.0, B1)
        assert rep.passed
        assert rep.ratio < 1.0

    def test_p_domain(self, disk32, disk_hat):
        with pytest.raises(ValueError):
            verify_p_sobolev(disk32, disk_hat, 2.0, 0.0, B1)


class TestGagliardoNirenberg:
    def test_mesh_input(self, disk32, disk_hat):
        rep = verify_gn(disk32, 1.5, 2.0, 0.0, B1, f=disk_hat)
        assert rep.passed

    def test_mesh_requires_field(self, disk32):
        with pytest.raises(ValueError):
            verify_gn(disk32, 1.5, 2.0, 0.0, B1)

    def test_select_reading_prefers_corrected(self):
        for n, p, q in [(3, 2.0, 4.0), (4, 2.0, 3.0), (5, 3.0, 4.0)]:
            assert select_egn_reading(n, p, q) is const.Reading.CORRECTED

    def test_select_reading_fails_as_a_psilab_error(self, monkeypatch):
        def pole(*args, **kwargs):
            raise GammaPole("pole")

        monkeypatch.setattr(verify_module, "verify_gn", pole)
        with pytest.raises(ConvergenceFailure, match="neither EGN reading"):
            select_egn_reading(3, 2.0, 4.0)

    @pytest.mark.parametrize("pole_at", [(), (const.Reading.CORRECTED,)], ids=["both", "literal-only"])
    def test_select_reading_falls_back_to_the_first_evaluable(self, monkeypatch, pole_at):
        # no reading meets the extremal's equality: the first that evaluates is returned
        def off_by_two(obj, p, q, reading, **kwargs):
            if reading in pole_at:
                raise GammaPole("pole")
            return VerificationReport("GagliardoNirenberg", 2.0, 1.0, 1e-6)

        monkeypatch.setattr(verify_module, "verify_gn", off_by_two)
        expect = const.Reading.LITERAL if pole_at else const.Reading.CORRECTED
        assert select_egn_reading(3, 2.0, 4.0) is expect

    def test_select_reading_lets_a_bug_through(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("a bug, not an unevaluable reading")

        monkeypatch.setattr(verify_module, "verify_gn", broken)
        with pytest.raises(TypeError, match="a bug"):
            select_egn_reading(3, 2.0, 4.0)


class TestSpectralGap:
    def eigen_field(self, disk32):
        j0 = bessel_first_zero(0.0)
        r = np.hypot(disk32.vertices[:, 0], disk32.vertices[:, 1])
        vals = np.array([bessel_j(0.0, j0 * x) for x in r])
        return boundary_vanishing_field(disk32, vals)

    def test_disk_eigenfunction_near_equality(self, disk32):
        f = self.eigen_field(disk32)
        rep = verify_spectral_gap(disk32, f, 0.0, B1)
        assert rep.direction == "ge"
        assert rep.passed
        j0 = bessel_first_zero(0.0)
        assert rep.lhs == pytest.approx(j0 * j0, rel=0.01)

    def test_literal_reading_is_weaker_but_passes(self, disk32):
        f = self.eigen_field(disk32)
        rep = verify_spectral_gap(
            disk32, f, 0.0, B1, reading=const.Reading.LITERAL
        )
        assert rep.passed
        assert rep.rhs < bessel_first_zero(0.0) ** 2

    def test_support_trend_recorded(self, disk32):
        f = self.eigen_field(disk32)
        rep = verify_spectral_gap(disk32, f, 0.0, B1)
        assert rep.inputs["rhs_at_area_fraction_0.5"] == pytest.approx(
            2.0 * rep.rhs, rel=1e-12
        )


@pytest.mark.parametrize("n, side", [(400, "rhs"), (1000, "lhs")])
def test_radial_gn_refuses_sides_outside_the_double_range(n, side):
    # the extremal's gradient integral underflows from n = 400, and its L^r norm by n = 1000
    p = 1.5
    q = 0.5 * (p + p * (n - 1.0) / (n - p))
    with pytest.raises(OutOfRange, match=f"^GagliardoNirenberg at n = {n}: the radial {side} leaves the double range$"):
        verify_gn(analytic.gn_extremal(n, p, q), p, q)


def _scaled_hat(height: float) -> VertexField:
    return VertexField(height * HAT8)


MS = const.IsoperimetricChoice()
POWER_250 = MonotoneSpec(f=lambda v: v, phi=lambda v: v, g_terms=[], psi_terms=[(1.0, 250.0)], L=lambda s, t: s,
                         lam=lambda s, t: t)
OUT_OF_RANGE = {  # a check on the hat scaled to a height, and the side that leaves the double range
    "gn-overflow": (lambda: verify_gn(DISK8, 1.5, 2.5, 0.0, B1, f=_scaled_hat(1e200)), "GagliardoNirenberg", "lhs"),
    "gn-underflow": (lambda: verify_gn(DISK8, 1.5, 2.5, 0.0, B1, f=_scaled_hat(1e-200)), "GagliardoNirenberg", "lhs"),
    "spectral-overflow": (lambda: verify_spectral_gap(DISK8, _scaled_hat(1e200), 0.0, B1), "SpectralGap", "lhs"),
    "spectral-underflow": (lambda: verify_spectral_gap(DISK8, _scaled_hat(1e-200), 0.0, B1), "SpectralGap", "lhs"),
    "logsob-overflow": (lambda: verify_log_sobolev(DISK8, 1.5, f=_scaled_hat(1e200)), "LogSobolev", "rhs"),
    "logsob-underflow": (lambda: verify_log_sobolev(DISK8, 1.5, f=_scaled_hat(1e-300)), "LogSobolev", "lhs"),
    "ms1-overflow": (lambda: verify_michael_simon_p1(DISK8, _scaled_hat(1e200), B1), "MichaelSimonP1", "rhs"),
    "ms1-underflow": (lambda: verify_michael_simon_p1(DISK8, _scaled_hat(1e-320), B1), "MichaelSimonP1", "lhs"),
    # PS^p and PS^250 with Michael-Simon's PS = 50 overflow a Python float
    "model-ps-power": (lambda: verify_model_space_ps(DISK8, _scaled_hat(1.0), 200.0, 0.0, MS), "PolyaSzegoModelSpace",
                       "lhs"),
    "mono-ps-power": (lambda: verify_monotonicity_principle(DISK8, _scaled_hat(1.0), POWER_250, 0.0, MS),
                      "MonotonicityPrinciple", "rhs"),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_mesh_checks_refuse_sides_outside_the_double_range(case):
    run, check, side = OUT_OF_RANGE[case]
    with pytest.raises(OutOfRange, match=f"^{check} at n = 2: the mesh {side} leaves the double range$"):
        run()


def test_radial_log_sobolev_refuses_a_gradient_integral_of_zero():
    # the indicator of the unit ball has u' = 0 wherever it is differentiable
    ball = analytic.RadialFunction(lambda r: np.zeros(np.shape(r)), lambda r: np.full(np.shape(r), -np.inf), 3, 1.0)
    with pytest.raises(OutOfRange, match="^LogSobolev at n = 3: the radial rhs leaves the double range$"):
        verify_log_sobolev(ball, 1.5)


class TestLogSobolev:
    def test_radial_extremal_equality(self):
        for n, p in [(3, 2.0), (4, 2.0), (3, 1.5)]:
            rep = verify_log_sobolev(analytic.logsobolev_extremal(n, p, 1.0), p)
            assert abs(rep.lhs - rep.rhs) < 1e-6

    def test_mesh_path_on_flat_disk(self, disk32, disk_hat):
        rep = verify_log_sobolev(disk32, 1.5, f=disk_hat)
        assert rep.passed

    def test_curved_mesh_rejected(self, sphere4):
        f = VertexField(np.ones(len(sphere4.vertices)))
        with pytest.raises(NotMinimal):
            verify_log_sobolev(sphere4, 1.5, f=f)

    def test_catenoid_counts_as_minimal(self):
        mesh = analytic.make_catenoid(1.0, 24, 48)
        z = mesh.vertices[:, 2]
        f = boundary_vanishing_field(mesh, (1.0 - np.abs(z)) ** 2)
        rep = verify_log_sobolev(mesh, 1.5, f=f)
        assert rep.inputs["max_interior_h"] < 1e-2
        assert rep.passed


class TestMichaelSimonP1:
    def test_closed_sphere_allowed_and_passes(self, sphere5):
        for lam in (1.0, 5.0):
            f = VertexField(analytic.example51_field(lam, sphere5.vertices))
            rep = verify_michael_simon_p1(sphere5, f, B1)
            assert rep.passed
            assert rep.ratio < 1.0

    def test_disk_hat(self, disk32, disk_hat):
        rep = verify_michael_simon_p1(disk32, disk_hat, B1)
        assert rep.passed


class TestMonotonicityPrinciple:
    def test_spec_validation(self):
        good = dict(
            f=lambda v: v,
            phi=lambda v: v,
            g_terms=[],
            psi_terms=[(1.0, 1.0)],
            L=lambda s, t: s,
            lam=lambda s, t: t,
        )
        MonotoneSpec(**good)
        with pytest.raises(SpecInvalid):
            MonotoneSpec(**{**good, "g_terms": [(0.5, 1.0)]})  # positive g coefficient
        with pytest.raises(SpecInvalid):
            MonotoneSpec(**{**good, "psi_terms": [(-1.0, 1.0)]})
        with pytest.raises(SpecInvalid):
            MonotoneSpec(**{**good, "psi_terms": [(1.0, 2.0), (1.0, 2.0)]})
        with pytest.raises(SpecInvalid):
            MonotoneSpec(**{**good, "f": lambda v: v + 1.0})  # f(0) != 0

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"g_terms": [(-1.0, 0.5)]}, "g exponent 0.5 must be >= 1"),
            ({"psi_terms": [(1.0, 0.5)]}, "psi exponent 0.5 must be >= 1"),
            ({"g_terms": [(-1.0, 2.0), (-1.0, 1.5)]}, "g exponents must be strictly increasing"),
            ({"phi": lambda v: np.minimum(v, 0.5)}, "phi must be strictly increasing"),
            ({"f": lambda v: -v}, "f must be strictly increasing"),
        ],
        ids=["g-exponent", "psi-exponent", "g-order", "phi-flat", "f-decreasing"],
    )
    def test_spec_exponent_and_monotonicity_refusals(self, change, message):
        good = dict(f=lambda v: v, phi=lambda v: v, g_terms=[], psi_terms=[(1.0, 1.0)], L=lambda s, t: s,
                    lam=lambda s, t: t)
        with pytest.raises(SpecInvalid) as caught:
            MonotoneSpec(**{**good, **change})
        assert str(caught.value) == message

    def test_p_sobolev_preset_needs_p(self):
        with pytest.raises(ValueError, match="p-sobolev preset needs a p"):
            monotone_preset("p-sobolev", n=2)

    def test_presets_pass(self, disk32, disk_hat):
        for name, p in [("sobolev-l1", None), ("p-sobolev", 1.5)]:
            spec = monotone_preset(name, n=2, p=p)
            rep = verify_monotonicity_principle(disk32, disk_hat, spec, 0.0, B1)
            assert rep.passed
            assert not rep.vacuous

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            monotone_preset("nope")

    def test_vacuous_when_euclidean_hypothesis_fails(self, disk32, disk_hat):
        spec = MonotoneSpec(
            f=lambda v: v,
            phi=lambda v: v,
            g_terms=[],
            psi_terms=[(0.0, 1.0)],
            L=lambda s, t: s,
            lam=lambda s, t: t,  # rhs is identically zero
        )
        rep = verify_monotonicity_principle(disk32, disk_hat, spec, 0.0, B1)
        assert rep.vacuous
        assert rep.passed
        assert "vacuous" in rep.notes


@pytest.mark.parametrize(
    "check",
    [
        lambda mesh: verify_polya_szego(mesh, None, 2.0, 0.0, B1),
        lambda mesh: verify_model_space_ps(mesh, None, 2.0, 0.0, B1),
        lambda mesh: verify_p_sobolev(mesh, None, 1.5, 0.0, B1),
        lambda mesh: verify_spectral_gap(mesh, None, 0.0, B1),
        lambda mesh: verify_michael_simon_p1(mesh, None, B1),
        lambda mesh: verify_monotonicity_principle(mesh, None, monotone_preset("sobolev-l1"), 0.0, B1),
    ],
    ids=["ps", "model", "sobolev", "spectral", "ms1", "mono"],
)
def test_mesh_checks_require_a_field(disk32, check):
    with pytest.raises(ValueError, match="mesh input needs a field"):
        check(disk32)


DISK8 = analytic.make_disk(1.0, 8)
HAT8 = boundary_vanishing_field(DISK8, 1.0 - np.linalg.norm(DISK8.vertices[:, :2], axis=1)).values


@pytest.mark.parametrize(
    "check",
    [
        lambda f: verify_polya_szego(DISK8, f, 2.0, 0.0, B1),
        lambda f: verify_model_space_ps(DISK8, f, 2.0, 0.0, B1),
        lambda f: verify_p_sobolev(DISK8, f, 1.5, 0.0, B1),
        lambda f: verify_gn(DISK8, 1.5, 2.5, 0.0, B1, f=f),
        lambda f: verify_spectral_gap(DISK8, f, 0.0, B1),
        lambda f: verify_log_sobolev(DISK8, 1.5, f=f),
        lambda f: verify_michael_simon_p1(DISK8, f, B1),
        lambda f: verify_monotonicity_principle(DISK8, f, monotone_preset("sobolev-l1"), 0.0, B1),
        lambda f: mesh_module.p1_gradient_lp(DISK8, f, 2.0),
        lambda f: superlevel_region(DISK8, f, 0.5),
        lambda f: mesh_module.sample_field(DISK8, f),
    ],
    ids=["ps", "model", "sobolev", "gn", "spectral", "logsob", "ms1", "mono", "p1_gradient_lp", "superlevel_region",
         "sample_field"],
)
@pytest.mark.parametrize(
    "values", [np.concatenate([HAT8, np.zeros(10)]), HAT8[:-10]], ids=["ten-values-more", "ten-values-fewer"]
)
def test_mesh_checks_refuse_a_field_of_another_length(check, values):
    # a field is checked against the mesh it is used on, by every function that reads it there
    with pytest.raises(ValueError, match="field length does not match vertex count"):
        check(VertexField(values))


def test_a_field_is_paired_again_on_another_mesh():
    f = VertexField(HAT8)
    verify_polya_szego(DISK8, f, 2.0, 0.0, B1)
    with pytest.raises(ValueError, match="field length does not match vertex count"):
        mesh_module.p1_gradient_lp(analytic.make_disk(1.0, 9), f, 2.0)
    assert f._derived[0] is DISK8 and "levels" in f._derived[1]  # a refused pairing leaves the last one
    # a mesh of the same vertex count takes the field, which drops what it kept for the last mesh
    same = TriMesh(DISK8.vertices.copy(), DISK8.triangles)
    assert np.array_equal(superlevel_region(same, f, 0.5), superlevel_region(DISK8, VertexField(HAT8), 0.5))
    assert f._derived == (same, {})


def test_the_largest_interior_h_is_measured_once_per_mesh(monkeypatch):
    mesh = TriMesh(DISK8.vertices, DISK8.triangles)
    calls = _count_calls(monkeypatch, verify_module, "_max_interior_h")
    reports = [verify_log_sobolev(mesh, 1.5, f=VertexField(values)) for values in (HAT8, 2.0 * HAT8, HAT8)]
    assert len(calls) == 1 and reports[0] == reports[2]
    assert {rep.inputs["max_interior_h"] for rep in reports} == {mesh._derived["max_interior_h"]}


INTEGRAL_CHECKS = {
    "sobolev": lambda f, **kw: verify_p_sobolev(DISK8, f, 1.5, 0.0, B1, **kw),
    "gn": lambda f, **kw: verify_gn(DISK8, 1.5, 2.5, 0.0, B1, f=f, **kw),
    "spectral": lambda f, **kw: verify_spectral_gap(DISK8, f, 0.0, B1, **kw),
    "logsob": lambda f, **kw: verify_log_sobolev(DISK8, 1.5, f=f, **kw),
    "mono": lambda f, **kw: verify_monotonicity_principle(DISK8, f, monotone_preset("sobolev-l1"), 0.0, B1, **kw),
}


def _count_calls(monkeypatch, module, name) -> list:
    calls, real = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("check", INTEGRAL_CHECKS)
def test_integrals_draw_no_samples(check, monkeypatch):
    # every integral comes from the field's distribution function, built once and kept
    f = VertexField(HAT8)
    draws = _count_calls(monkeypatch, mesh_module, "sample_field")
    builds = _count_calls(monkeypatch, mesh_module, "_build_levels")
    for _ in range(3):
        assert not INTEGRAL_CHECKS[check](f).vacuous
    assert (len(draws), len(builds)) == (0, 1)


WARM_MEASURES = {  # a check, the number it keeps and whether the mesh (else the field) keeps it, what it keeps on
    # the field in order, and where the number shows in its report
    "spectral": (lambda f: verify_spectral_gap(DISK8, f, 0.0, B1), "support_area", False,
                 ["support_area", "levels", "grad2", ("gradient_lp", 2)], lambda rep: rep.inputs["support_area"]),
    "logsob": (lambda f: verify_log_sobolev(DISK8, 1.5, f=f), "max_interior_h", True,
               ["levels", "grad2", ("gradient_lp", 1.5)], lambda rep: rep.inputs["max_interior_h"]),
    "ms1": (lambda f: verify_michael_simon_p1(DISK8, f, B1), "curvature_term", False,
            ["levels", "curvature_term", "grad2", ("gradient_lp", 1.0)], lambda rep: rep.rhs / B1.euclidean_product(2)),
}


@pytest.mark.parametrize("check", WARM_MEASURES)
def test_warm_checks_reuse_their_numbers(check, monkeypatch):
    # a second check of the same (mesh, field) reads what the first measured over the triangles: the same report,
    # and a kept number changed behind its back shows in the next one
    run, name, on_mesh, names, shown = WARM_MEASURES[check]
    f = VertexField(HAT8)
    first = run(f)
    kept_mesh, kept = f._derived
    assert kept_mesh is DISK8 and list(kept) == names
    assert run(f) == first and f._derived[1] is kept
    store = DISK8._derived if on_mesh else kept
    monkeypatch.setitem(store, name, store[name] + 1e-3)  # undone after the test: other tests share DISK8
    assert shown(run(f)) == pytest.approx(shown(first) + 1e-3, rel=0.0, abs=1e-12)
    # on another mesh the field measures afresh
    other = TriMesh(DISK8.vertices.copy(), DISK8.triangles)
    assert mesh_module.p1_gradient_lp(other, f, 2.0) == mesh_module.p1_gradient_lp(DISK8, VertexField(HAT8), 2.0)
    assert f._derived[0] is other and list(f._derived[1]) == ["grad2", ("gradient_lp", 2.0)]


@pytest.mark.parametrize("check", INTEGRAL_CHECKS)
def test_negative_subdivision_refused(check):
    # the checks integrate exactly, so they take no subdivision at all
    with pytest.raises(TypeError, match="unexpected keyword argument 'subdivision'"):
        INTEGRAL_CHECKS[check](VertexField(HAT8), subdivision=-1)


def test_profile_checks_share_one_draw_and_one_sort(monkeypatch):
    # ps, model, ms1 and mono read the one distribution function the field keeps, whatever their targets:
    # one build, whose one sort is of the vertex values, and no sample drawn
    f = VertexField(HAT8)
    draws = _count_calls(monkeypatch, mesh_module, "sample_field")
    builds = _count_calls(monkeypatch, mesh_module, "_build_levels")
    for K in (0.0, 0.5):
        verify_polya_szego(DISK8, f, 2.0, K, B1)
        verify_model_space_ps(DISK8, f, 1.5, K, B1)
        verify_michael_simon_p1(DISK8, f, B1)
        verify_monotonicity_principle(DISK8, f, monotone_preset("sobolev-l1"), K, B1)
    assert (len(draws), len(builds)) == (0, 1)
