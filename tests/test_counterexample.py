import math
import re
import tracemalloc

import numpy as np
import pytest

from psilab import constants as const
from psilab.counterexample import (
    _LAMBDA_CEILING,
    _LAMBDA_GRID,
    asymptotic_check,
    find_lambda_bar,
    sweep,
    sweep_to_csv,
)
from psilab import mesh as mesh_module
from psilab.errors import DIVERGENT, ConvergenceFailure
from psilab.mesh import VertexField, _stacked_gradient_lp, mean_curvature, p1_gradient_lp
from psilab.analytic import (
    example51_field,
    example51_gradient_integrals,
    example51_surface_lp,
    make_cap,
    make_disk,
    make_sphere,
)


class TestSweep:
    def test_argument_checks(self):
        with pytest.raises(ValueError):
            sweep(0.5, [10.0])
        with pytest.raises(ValueError):
            sweep(1.5, [0.5])

    def test_divergent_rows_for_p2(self):
        rows = sweep(2.0, [5.0, 50.0])
        for row in rows:
            assert row.plane_grad_p is DIVERGENT
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

    @pytest.mark.parametrize("scalar", [np.float64, np.float32])
    def test_csv_of_a_numpy_scalar_p_reads_back_as_its_json(self, scalar):
        rows = sweep(scalar(1.5), [2.0, 30.0], mesh_check=True, subdiv=2)
        assert rows == sweep(1.5, [2.0, 30.0], mesh_check=True, subdiv=2)
        header, *lines = sweep_to_csv(rows).splitlines()
        for line, row in zip(lines, rows, strict=True):
            cells = dict(zip(header.split(","), map(float, line.split(","))))
            assert cells == {**row.as_dict(), "flagged": float(row.flagged)}


# 65 lambdas from 1 to 1e8 with 20 among them, in no order; the cap of 1e8 holds no vertex at subdivision 0
# and only the north pole from subdivision 1 on
LAMBDAS_65 = np.random.default_rng(65).permutation(np.append(np.geomspace(1.0, 1e8, 64), 20.0)).tolist()
DRAWN_P = float(np.random.default_rng(20).uniform(1.0, 4.0))


PLATEAU_MESHES = {"disk": make_disk(1.0, 12), "cap": make_cap(0.9, 12), "ico2": make_sphere(2), "ico3": make_sphere(3)}


def _plateau_stacks(mesh):
    """Stacks of fields constant on most or all triangles, by name, as (fields, vertex) arrays."""
    nv = len(mesh.vertices)
    r = np.linalg.norm(mesh.vertices - mesh.vertices[0], axis=1)
    r /= r.max()

    def plateau(height, radius, width):  # height out to radius, a ramp down to 0 over width, 0 beyond
        return height * np.clip((radius + width - r) / width, 0.0, 1.0)

    signed = np.where(np.arange(nv) % 3 == 0, -0.0, 0.0)
    return {
        "one shared constant": np.full((4, nv), 0.75),  # no candidate triangle in any block
        "different constants": np.array([np.full(nv, c) for c in (0.0, 0.5, 2.0, 1e-300)]),
        "plateaus": np.array([plateau(1.0, 0.2, 0.2), np.full(nv, 1.0), plateau(2.0, 0.5, 0.05),
                              1.0 + plateau(1.0, 0.2, 0.2), plateau(3.0, 0.0, 0.5)]),
        "-0.0 entries": np.array([np.full(nv, -0.0), signed, np.zeros(nv),
                                  np.where(r < 0.4, plateau(1.0, 0.1, 0.3), signed)]),
    }


def _per_lambda(mesh, lams, p):
    """The mesh cross-check one lambda at a time, as ``float.hex`` strings."""
    return [p1_gradient_lp(mesh, VertexField(example51_field(lam, mesh.vertices)), p).hex() for lam in lams]


class TestStackedMeshCheck:
    @pytest.mark.parametrize("subdiv", range(6))
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, DRAWN_P])
    def test_bit_identical_to_the_per_lambda_energy(self, subdiv, p):
        mesh = make_sphere(subdiv)
        for lams in ([1.0], [20.0], [1e8], LAMBDAS_65):
            rows = sweep(p, lams, mesh_check=True, subdiv=subdiv)
            assert [r.mesh_surface.hex() for r in rows] == _per_lambda(mesh, lams, p)

    @pytest.mark.parametrize("entries", [1, 700, 1000, 1 << 16])
    def test_across_block_boundaries(self, monkeypatch, entries):
        # subdivision 2 has 320 triangles: one field per block, two, three with a last block of two, all 65
        monkeypatch.setattr(mesh_module, "_STACK_ENTRIES", entries)
        mesh = make_sphere(2)
        for p in (1.0, 1.5, DRAWN_P):
            rows = sweep(p, LAMBDAS_65, mesh_check=True, subdiv=2)
            assert [r.mesh_surface.hex() for r in rows] == _per_lambda(mesh, LAMBDAS_65, p)

    def test_a_block_holds_at_most_the_block_constant(self, monkeypatch):
        monkeypatch.setattr(mesh_module, "_STACK_ENTRIES", 1000)
        mesh, asked = make_sphere(2), []

        def rows(lo, hi):
            asked.append((lo, hi))
            return example51_field(np.array(LAMBDAS_65[lo:hi]), mesh.vertices)

        assert len(_stacked_gradient_lp(mesh, 65, rows, 1.5)) == 65
        assert asked == [(lo, min(lo + 3, 65)) for lo in range(0, 65, 3)]

    @pytest.mark.parametrize("name", PLATEAU_MESHES)
    @pytest.mark.parametrize("per_block", [1, 2, None])
    def test_plateau_stacks_skip_their_constant_triangles(self, monkeypatch, name, per_block):
        # one row, two rows and all rows per block: constant triangles are skipped, and only the (field,
        # triangle) entries where a field moves reach |grad u|^2, each row bit-identical to p1_gradient_lp
        mesh, formed = PLATEAU_MESHES[name], []
        real = mesh_module._gradient_sq
        monkeypatch.setattr(mesh_module, "_gradient_sq", lambda *args: formed.append(args[-1].size) or real(*args))
        for case, stack in _plateau_stacks(mesh).items():
            monkeypatch.setattr(mesh_module, "_STACK_ENTRIES", (per_block or len(stack)) * len(mesh.triangles))
            u0, u1, u2 = (stack[:, mesh.triangles[:, k]] for k in range(3))
            moving = int(np.sum((u1 != u0) | (u2 != u0)))
            for p in (1.0, 1.5, DRAWN_P):
                formed.clear()
                rows = _stacked_gradient_lp(mesh, len(stack), lambda lo, hi: stack[lo:hi], p)
                assert sum(formed) == moving, case
                if "constant" in case:
                    assert moving == 0 and rows == [0.0] * len(stack), case
                assert [x.hex() for x in rows] == [p1_gradient_lp(mesh, VertexField(u), p).hex() for u in stack], case

    def test_peak_memory(self):
        # blocks of at most 2^16 (lambda, triangle) entries: subdivision 6 has 81,920 triangles, so one lambda
        # per block; a loop of p1_gradient_lp over the lambdas peaks at 3.3 MB here, this pass at 4.97 MB, and
        # the bound leaves it the margin of 8e6 over the 5.30 MB of a pass that gathered every triangle
        make_sphere(6)  # built and kept outside the measurement
        tracemalloc.start()
        try:
            sweep(1.5, LAMBDAS_65, mesh_check=True, subdiv=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.5e6

    @pytest.mark.parametrize(
        "values, message",
        [
            (lambda u: u[:, :-1], "field length does not match vertex count"),
            (lambda u: u[0], "stacked field values must be a 2-d array"),
            (lambda u: np.where(np.arange(u.size).reshape(u.shape) == 7, np.nan, u), "field values must be finite"),
            (lambda u: np.where(np.arange(u.size).reshape(u.shape) == 7, np.inf, u), "field values must be finite"),
            (lambda u: np.where(np.arange(u.size).reshape(u.shape) == 7, -1e-300, u), "field values must be >= 0"),
        ],
        ids=["length", "1-d", "nan", "inf", "negative"],
    )
    def test_refuses_what_a_vertex_field_refuses(self, values, message):
        mesh = make_sphere(1)
        stacked = example51_field(np.array([2.0, 5.0]), mesh.vertices)
        with pytest.raises(ValueError, match=message):
            _stacked_gradient_lp(mesh, 2, lambda lo, hi: values(stacked[lo:hi]), 1.5)
        with pytest.raises(ValueError, match="p must be"):
            _stacked_gradient_lp(mesh, 2, lambda lo, hi: stacked[lo:hi], 0.5)


class TestLambdaBar:
    def test_argument_checks(self):
        with pytest.raises(ValueError, match="p must be a finite number >= 1, got 0.5"):
            find_lambda_bar(1.0, 0.5)
        with pytest.raises(ValueError):
            find_lambda_bar(0.0, 1.5)

    def test_p_one_is_searched(self):
        # at p = 1 the quotient rises from 0.463 at lambda = 1 toward 1/2, so only N < 1/2 is crossed
        bar = find_lambda_bar(0.49, 1.0)
        (above,) = sweep(1.0, [bar])
        (below,) = sweep(1.0, [bar * (1.0 - 5e-4)])
        assert below.ratio < 0.49 < above.ratio
        with pytest.raises(ConvergenceFailure, match="no threshold below"):
            find_lambda_bar(0.5, 1.0)

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


# 1 to 1e12: lambda = 1, the cancellation point 2^27 and the threshold walk's ceiling among them
BLOWUP_LAMBDAS = [1.0, 1.5, 2.0, 10.0, 123.456, 1e3, 2.0**27, 1e5, 1e8, 1e9, 1e12]


def _hex(x):
    return "divergent" if x is DIVERGENT else float(x).hex()


def _bisected_lambda_bar(N, p):
    """``find_lambda_bar`` walked one scalar call of the public closed forms at a time."""
    if p >= 2.0:
        return 1.0

    def excess(lam):
        surface, plane = example51_gradient_integrals(lam, p)
        return plane - N * (surface + 2.0**p * example51_surface_lp(lam, p))

    grid = _LAMBDA_GRID.tolist()
    k = next((k for k, lam in enumerate(grid) if excess(lam) > 0), None)
    if k is None:
        raise ConvergenceFailure(f"no threshold below lambda = {_LAMBDA_CEILING} for N = {N}, p = {p}")
    if k == 0:
        return 1.0
    lo, hi = grid[k - 1], grid[k]
    while hi - lo > 5e-4 * hi:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0:
            hi = mid
        else:
            lo = mid
    return hi


_rng = np.random.default_rng(25)
# 40 pairs over the whole range, then 10 with p so close to 1 that most find no threshold below the ceiling
LAMBDA_BAR_CASES = [(float(10.0 ** _rng.uniform(-1.0, 6.0)), float(_rng.uniform(1.001, 2.2))) for _ in range(40)] + [
    (float(10.0 ** _rng.uniform(3.0, 6.0)), float(1.0 + 10.0 ** _rng.uniform(-4.0, -1.5))) for _ in range(10)
]


class TestOneClosedFormPass:
    """``sweep`` and ``find_lambda_bar`` take the closed forms from one private pass per lambda array: their
    numbers must be those of the public functions, bit for bit."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 1.99, 2.0, 2.5])
    def test_sweep_columns_are_the_public_closed_forms(self, p):
        rows = sweep(p, BLOWUP_LAMBDAS)
        surfaces, planes = example51_gradient_integrals(BLOWUP_LAMBDAS, p)
        curvatures = 2.0**p * example51_surface_lp(BLOWUP_LAMBDAS, p)
        for k, (row, lam) in enumerate(zip(rows, BLOWUP_LAMBDAS)):
            surface, plane = example51_gradient_integrals(lam, p)
            curvature = 2.0**p * example51_surface_lp(lam, p)
            if plane is DIVERGENT:
                ratio = gradient_ratio = math.inf
                assert planes is DIVERGENT
            else:
                ratio, gradient_ratio = plane / (surface + curvature), plane / surface
                assert _hex(planes[k]) == _hex(plane)
            got = [row.lam, row.surface_grad_p, row.curvature_term, row.plane_grad_p, row.ratio, row.gradient_ratio]
            assert list(map(_hex, got)) == list(map(_hex, [lam, surface, curvature, plane, ratio, gradient_ratio]))
            assert [_hex(surfaces[k]), _hex(curvatures[k])] == [_hex(surface), _hex(curvature)]

    @pytest.mark.parametrize("N, p", LAMBDA_BAR_CASES)
    def test_lambda_bar_is_the_scalar_bisection(self, N, p):
        try:
            want = _bisected_lambda_bar(N, p).hex()
        except ConvergenceFailure as exc:
            with pytest.raises(ConvergenceFailure, match=f"^{re.escape(str(exc))}$"):
                find_lambda_bar(N, p)
        else:
            assert find_lambda_bar(N, p).hex() == want

    def test_the_cases_reach_every_outcome(self):
        outcomes = set()
        for N, p in LAMBDA_BAR_CASES:
            try:
                bar = _bisected_lambda_bar(N, p)
            except ConvergenceFailure:
                outcomes.add("no threshold")
            else:
                outcomes.add("one" if bar == 1.0 else "bisected")
        assert outcomes == {"no threshold", "one", "bisected"}


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
        tc = mean_curvature(make_sphere(4)).total
        limit = 1.0 / const.brendle_constant(2, 1)
        assert limit == pytest.approx(2.0 * math.sqrt(math.pi), rel=1e-12)
        assert tc == pytest.approx(4.0 * math.sqrt(math.pi), rel=0.02)
        assert tc > limit


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_numpy_exponent_computes_in_double(dtype):
    # the exponent check hands back a Python float, so a float32 p rounds no closed form to float32
    for got, want in ((example51_gradient_integrals(10.0, dtype(1.5)), example51_gradient_integrals(10.0, 1.5)),
                      (asymptotic_check(dtype(1.5), 100.0), asymptotic_check(1.5, 100.0))):
        assert [type(x) for x in got] == [float] * len(want)
        assert [x.hex() for x in got] == [x.hex() for x in want]
