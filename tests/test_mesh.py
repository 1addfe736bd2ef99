import dataclasses
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from psilab import analytic
from psilab import constants as const
from psilab import mesh as mesh_module
from psilab import verify
from psilab.errors import DegenerateTriangle, MeshParseError, NonManifoldMesh, OutOfRange
from psilab.mesh import (
    TriMesh,
    _cell_centroids,
    _distribution,
    VertexField,
    boundary_measure,
    hausdorff_measure,
    load_mesh,
    mean_curvature,
    p1_gradient_lp,
    sample_field,
)

from conftest import boundary_vanishing_field, mesh_to_off

SQUARE_OFF = """OFF
4 2 0
0 0 0
1 0 0
1 1 0
0 1 0
3 0 1 2
3 0 2 3
"""


class TestOffParsing:
    def test_square(self):
        mesh = load_mesh(SQUARE_OFF)
        assert len(mesh.vertices) == 4
        assert len(mesh.triangles) == 2
        assert hausdorff_measure(mesh) == pytest.approx(1.0, rel=1e-14)

    def test_counts_on_header_line(self):
        text = SQUARE_OFF.replace("OFF\n4 2 0", "OFF 4 2 0")
        mesh = load_mesh(text)
        assert len(mesh.vertices) == 4

    def test_comments_and_blanks(self):
        text = "# preamble\n\nOFF # inline\n4 2 0\n" + "\n".join(
            SQUARE_OFF.splitlines()[2:]
        )
        mesh = load_mesh(text)
        assert len(mesh.triangles) == 2

    def test_noff_roundtrip(self):
        torus = analytic.make_clifford_torus(6)
        back = load_mesh(mesh_to_off(torus))
        assert back.d == 4
        assert np.allclose(back.vertices, torus.vertices)

    def test_bad_header(self):
        with pytest.raises(MeshParseError) as ei:
            load_mesh("PLY\n")
        assert ei.value.line == 1

    def test_bad_vertex_line_number(self):
        text = "OFF\n4 2 0\n0 0 0\n1 0 oops\n1 1 0\n0 1 0\n3 0 1 2\n3 0 2 3\n"
        with pytest.raises(MeshParseError) as ei:
            load_mesh(text)
        assert ei.value.line == 4

    def test_quad_face_rejected(self):
        text = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
        with pytest.raises(MeshParseError) as ei:
            load_mesh(text)
        assert ei.value.line == 7

    def test_truncated_file(self):
        with pytest.raises(MeshParseError):
            load_mesh("OFF\n4 2 0\n0 0 0\n")

    @pytest.mark.parametrize("text", ["OFF\n", "# c\nnOFF 4\n\n"])
    def test_header_without_counts(self, text):
        with pytest.raises(MeshParseError, match="end of file"):
            load_mesh(text)

    def test_index_out_of_range(self):
        text = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 9\n"
        with pytest.raises(MeshParseError):
            load_mesh(text)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_names_its_line(self, token):
        text = SQUARE_OFF.replace("1 1 0\n", f"1 {token} 0\n")
        with pytest.raises(MeshParseError, match="non-finite") as ei:
            load_mesh(text)
        assert ei.value.line == 5

    def test_irregular_layout_parses_like_the_clean_file(self):
        # comments and blank lines are skipped, columns past the numbers a line needs ignored
        text = (
            "OFF\n4 2 0\n0 0 0\n# a comment\n1 0 0 0.5 0.5 0.5\n\n1 1 0 # inline\n0 1 0\n"
            "3 0 1 2 255 0 0\n3 0 2 3\n"
        )
        clean = load_mesh(SQUARE_OFF)
        mesh = load_mesh(text)
        assert np.array_equal(mesh.vertices, clean.vertices)
        assert np.array_equal(mesh.triangles, clean.triangles)

    def test_ragged_vertex_lines_rejected(self):
        # as many numbers as a clean block in total, but line 5 is one short
        text = SQUARE_OFF.replace("1 0 0\n1 1 0\n", "1 0 0 7\n1 1\n")
        with pytest.raises(MeshParseError) as ei:
            load_mesh(text)
        assert ei.value.line == 5


class TestMeshValidation:
    def test_degenerate_repeated_vertex(self):
        with pytest.raises(DegenerateTriangle):
            TriMesh(np.eye(3), np.array([[0, 1, 1]]))

    def test_degenerate_zero_area(self):
        v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(DegenerateTriangle):
            TriMesh(v, np.array([[0, 1, 2]]))

    def test_a_triangle_is_judged_by_its_own_edges(self):
        # a disk graded toward its center: its smallest triangles have area ~2e-17, far below 1e-12 of the
        # squared bounding-box diagonal, but are as well shaped as its largest
        segments, tris = analytic._polar_grid(56, 16)
        radii = np.geomspace(1e-8, 1.0, 56)
        graded = TriMesh(np.vstack([[0.0, 0.0, 0.0], analytic._rings(radii, np.zeros(56), segments)]), tris)
        assert graded.triangle_areas().min() < 1e-16
        assert graded.triangle_areas().sum() == pytest.approx(8.0 * math.sin(math.pi / 8.0), rel=1e-14)
        # a needle of unit edges and area 5e-14 is still refused
        needle = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1e-13, 0.0]])
        with pytest.raises(DegenerateTriangle, match=r"triangle \[0, 1, 2\] has \(near-\)zero area"):
            TriMesh(needle, np.array([[0, 1, 2]]))

    @pytest.mark.parametrize("scale", [1e78, 1e200])
    def test_coordinates_past_the_double_range_are_refused(self, scale):
        # at 1e78 the Gram entries are finite but their products overflow, so the areas read NaN; at 1e200 the
        # entries overflow too. Neither is a degenerate triangle, and neither warns.
        cap = analytic.make_cap(0.5, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OutOfRange, match="^vertex coordinates span too wide a range: "):
                TriMesh(cap.vertices * scale, cap.triangles)

    @pytest.mark.parametrize("width", [2e76, 2e77])
    def test_squared_edges_met_at_a_corner_stay_in_the_double_range(self, width):
        # a rectangle as two triangles: its Gram entries and areas are finite at both widths, but at 2e77 the two
        # long edges met at a corner have squared lengths whose product overflows, and the curvature kernel would
        # read every vertex area NaN; at 2e76 the product fits and the vertex areas sum to the area
        vertices = np.array([[0.0, 0.0, 0.0], [width, 0.0, 0.0], [0.0, 1e75, 0.0], [width, 1e75, 0.0]])
        triangles = np.array([[0, 1, 2], [1, 3, 2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if width > 1e77:
                with pytest.raises(OutOfRange, match=r"the squared edges met at a corner of triangle \[0, 1, 2\] "
                                                     r"multiply past the double range$"):
                    TriMesh(vertices, triangles)
            else:
                areas = mean_curvature(TriMesh(vertices, triangles)).vertex_areas
                assert areas.sum() == pytest.approx(width * 1e75, rel=1e-12)

    @pytest.mark.parametrize("mesh", [analytic.make_cap(0.5, 8), analytic.make_disk(1.0, 8)], ids=["cap", "disk"])
    def test_small_coordinates_keep_the_total_curvature_or_are_refused(self, mesh):
        # TC is scale-invariant; below triangle area 5e-151 the curvature kernel's floor on 4A^2 bends the
        # cotangents (the cap read TC 2.2456 at 1e-74 and 0.0332 at 1e-75), so such a mesh is refused instead
        tc = mean_curvature(mesh).total
        refused = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for e in range(-79, 1):
                try:
                    scaled = TriMesh(mesh.vertices * 10.0**e, mesh.triangles)
                except (OutOfRange, DegenerateTriangle):
                    refused.append(e)
                    continue
                assert abs(mean_curvature(scaled).total - tc) <= 1e-9 * max(tc, 1.0) + 1e-8, e
        assert -77 in refused and -70 not in refused
        with pytest.raises(OutOfRange, match=r"^vertex coordinates are too small: triangle \[\d+, \d+, \d+\] has area "
                                             r"\S+, below the 5e-151 the curvature kernel resolves$"):
            TriMesh(mesh.vertices * 1e-77, mesh.triangles)

    def test_meshes_and_fields_compare_by_identity(self):
        first, second = analytic.make_disk(1, 4), analytic.make_disk(1, 4)
        f, g = VertexField(np.ones(len(first.vertices))), VertexField(np.ones(len(first.vertices)))
        for a, b in ((first, second), (f, g)):
            assert a == a and not a != a
            assert a != b and not a == b
            assert hash(a) == hash(a) and len({a, b, a}) == 2

    def test_inconsistent_orientation(self):
        v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        # both triangles traverse edge (0, 1) in the same direction
        with pytest.raises(NonManifoldMesh):
            TriMesh(v, np.array([[0, 1, 2], [0, 1, 3]]))

    def test_disconnected_warns(self):
        v = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 0], [6, 5, 0], [5, 6, 0]],
            dtype=float,
        )
        with pytest.warns(UserWarning, match="not connected") as caught:
            TriMesh(v, np.array([[0, 1, 2], [3, 4, 5]]))
        # issued from mesh.py itself, not from the __init__ the dataclass generates
        assert [w.filename for w in caught] == [mesh_module.__file__]

    @pytest.mark.parametrize(
        "vertices, triangles, message",
        [
            (np.eye(3), np.zeros((0, 3), dtype=int), "mesh has no triangles"),
            (np.zeros((0, 3)), np.zeros((0, 3), dtype=int), "mesh has no triangles"),
            (np.eye(3), [], "mesh has no triangles"),
            (np.eye(3)[:, :2], [[0, 1, 2]], "vertices must be an (N, d) array with d >= 3"),
            (np.zeros(3), [[0, 1, 2]], "vertices must be an (N, d) array with d >= 3"),
            (np.eye(3), [0, 1, 2], "triangles must be an (M, 3) index array"),
            (np.eye(4), [[0, 1, 2, 3]], "triangles must be an (M, 3) index array"),
            (np.eye(3), [[0, 1, 3]], "triangle index out of range"),
            (np.eye(3), [[-1, 1, 2]], "triangle index out of range"),
        ],
        ids=["no-triangles", "empty", "empty-list", "d-2", "vertices-1d", "triangles-1d", "quad", "index-3",
             "index-negative"],
    )
    def test_shape_and_index_refusals(self, vertices, triangles, message):
        with pytest.raises(ValueError) as caught:
            TriMesh(vertices, np.asarray(triangles))
        assert str(caught.value) == message

    @pytest.mark.parametrize("bad", [1.7, -0.5, math.nan, math.inf])
    def test_non_integral_triangle_indices_refused(self, bad):
        with pytest.raises(ValueError, match="whole numbers"):
            TriMesh(np.eye(3), np.array([[0, bad, 2]]))

    def test_whole_float_triangle_indices_accepted(self):
        mesh = TriMesh(np.eye(3), np.array([[0.0, 1.0, 2.0]]))
        assert mesh.triangles.dtype == int and mesh.triangles.tolist() == [[0, 1, 2]]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_vertices_refused(self, bad):
        v = np.eye(3)
        v[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            TriMesh(v, np.array([[0, 1, 2]]))

    def test_cached_arrays_are_read_only(self, disk32):
        for arr in (disk32.triangle_areas(), disk32.boundary_edges(), disk32.boundary_vertices()):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("writeable", [True, False], ids=["writable", "read-only"])
    def test_inputs_are_read_only(self, writeable):
        vertices, triangles, values = np.eye(3), np.array([[0, 1, 2]]), np.ones(3)
        for own in (vertices, triangles, values):
            own.setflags(write=writeable)
        mesh = TriMesh(vertices, triangles)
        field = VertexField(values)
        for kept, own in ((mesh.vertices, vertices), (mesh.triangles, triangles), (field.values, values)):
            # a writable array is copied, so the caller cannot change it under the mesh; a read-only one is kept
            assert (kept is own) != writeable and np.array_equal(kept, own)
            assert own.flags.writeable == writeable  # the caller's array keeps its flags
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = kept[0]

    def test_changing_the_callers_arrays_changes_no_kept_result(self, disk32, disk_hat):
        vertices, values = disk32.vertices.copy(), disk_hat.values.copy()
        mesh = TriMesh(vertices, disk32.triangles)
        field = VertexField(values)
        choice = const.brendle(1)
        first = verify.verify_polya_szego(mesh, field, 1.5, 0.0, choice)
        areas = mean_curvature(mesh).vertex_areas.copy()
        vertices[:, 0] *= 2.0  # stretch the caller's copy of the disk
        values *= values  # and square the caller's copy of the field
        # the kept profile and curvature still describe the mesh and field as built
        assert verify.verify_polya_szego(mesh, field, 1.5, 0.0, choice).as_dict() == first.as_dict()
        assert np.array_equal(mean_curvature(mesh).vertex_areas, areas)
        # built again from the changed arrays, both sides see the changes
        stretched = TriMesh(vertices, disk32.triangles)
        again = verify.verify_polya_szego(stretched, VertexField(values), 1.5, 0.0, choice)
        assert again.lhs != first.lhs and again.rhs != first.rhs
        assert mean_curvature(stretched).vertex_areas.sum() == pytest.approx(2.0 * areas.sum())

    def test_curvature_measured_once(self, disk32, monkeypatch):
        mesh = TriMesh(disk32.vertices, disk32.triangles)
        calls = []
        real = mesh_module._curvature_report
        monkeypatch.setattr(mesh_module, "_curvature_report", lambda m: calls.append(m) or real(m))
        first = mean_curvature(mesh)
        assert mean_curvature(mesh) is first and mean_curvature(mesh).total == first.total
        assert calls == [mesh]


def _grid(n):
    """(n+1)^2 vertices of a unit grid in the plane, two triangles per square."""
    verts = np.array([(x, y, 0.0) for y in range(n + 1) for x in range(n + 1)])
    tris = []
    for y in range(n):
        for x in range(n):
            a = y * (n + 1) + x
            tris += [(a, a + 1, a + n + 2), (a, a + n + 2, a + n + 1)]
    return verts, np.array(tris)


def _loop_topology(triangles):
    """Reference: directed-edge dict and triangle DFS, one Python step at a time.

    Returns the boundary edges in triangle order and whether the triangles
    are edge-connected; raises NonManifoldMesh on the first repeated
    directed edge in triangle order.
    """
    directed = {}
    for ti, t in enumerate(triangles):
        for k in range(3):
            e = (int(t[k]), int(t[(k + 1) % 3]))
            if e in directed:
                raise NonManifoldMesh(
                    f"directed edge {e} appears twice; non-manifold or inconsistently oriented"
                )
            directed[e] = ti
    boundary = [e for e in directed if (e[1], e[0]) not in directed]
    adj = [[] for _ in triangles]
    for (a, b), ti in directed.items():
        if (b, a) in directed:
            adj[ti].append(directed[(b, a)])
    seen, stack = {0}, [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return boundary, len(seen) == len(triangles)


def _loop_across(triangles):
    """Reference: the triangle across each half-edge 3t+k from a directed-edge dict, -1 on the boundary."""
    owner = {(int(t[k]), int(t[(k + 1) % 3])): ti for ti, t in enumerate(triangles) for k in range(3)}
    return [owner.get((int(t[(k + 1) % 3]), int(t[k])), -1) for t in triangles for k in range(3)]


def _matches_loop_reference(vertices, triangles) -> bool:
    """TriMesh against the loop references: the same refusal (False), or the same boundary, twins and connectivity."""
    try:
        want_edges, want_connected = _loop_topology(triangles)
    except NonManifoldMesh as exc:
        with pytest.raises(NonManifoldMesh) as got:
            TriMesh(vertices, triangles)
        assert str(got.value) == str(exc)
        return False
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mesh = TriMesh(vertices, triangles)
    assert [tuple(e) for e in mesh.boundary_edges().tolist()] == want_edges
    assert mesh._across.tolist() == _loop_across(triangles)
    assert mesh.is_closed() == (not want_edges)
    assert any("not connected" in str(w.message) for w in caught) == (not want_connected)
    return True


def _loop_region_boundary(mesh, region):
    """Reference: undirected edge census over a triangle subset."""
    census = {}
    for ti in set(int(r) for r in region):
        t = mesh.triangles[ti]
        for k in range(3):
            e = frozenset((int(t[k]), int(t[(k + 1) % 3])))
            census[e] = census.get(e, 0) + 1
    return sum(
        float(np.linalg.norm(mesh.vertices[a] - mesh.vertices[b]))
        for a, b in (tuple(e) for e, c in census.items() if c == 1)
    )


GRID_V, GRID_T = _grid(4)
SMALL_DISK = analytic.make_disk(1.0, 4)


class TestTopologyAgainstLoopReference:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, len(GRID_T) - 1), st.booleans()),
            min_size=1,
            max_size=len(GRID_T),
            unique_by=lambda pick: pick[0],
        )
    )
    def test_random_grid_subsets(self, picks):
        # a flipped triangle next to an unflipped one repeats their shared directed edge
        _matches_loop_reference(GRID_V, np.array([GRID_T[i][::-1] if flip else GRID_T[i] for i, flip in picks]))

    def test_repeated_triangle(self):
        assert not _matches_loop_reference(GRID_V, np.array([GRID_T[0], GRID_T[1], GRID_T[0]]))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, len(SMALL_DISK.triangles) - 1), max_size=60))
    def test_region_boundary(self, region):
        if len(set(region)) < len(region):  # a region names each triangle once
            with pytest.raises(ValueError, match="appears more than once"):
                boundary_measure(SMALL_DISK, region)
            return
        assert boundary_measure(SMALL_DISK, region) == pytest.approx(
            _loop_region_boundary(SMALL_DISK, region), rel=1e-12, abs=1e-14
        )


def _shuffled(mesh, seed):
    """``mesh`` with its vertices renumbered, its triangles reordered and each one's corners rotated, all at random."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(mesh.vertices))
    vertices = np.empty_like(mesh.vertices)
    vertices[perm] = mesh.vertices
    tri = perm[mesh.triangles][rng.permutation(len(mesh.triangles))]
    roll = rng.integers(0, 3, (len(tri), 1))
    return vertices, np.take_along_axis(tri, (np.arange(3) + roll) % 3, axis=1)


SPHERE3 = analytic.make_sphere(3)  # 1280 triangles
CAP20 = analytic.make_cap(0.7, rings=20)  # 1560 triangles


class TestTopologyAtSortSize:
    """Thousands of half-edges, numbered at random: numpy sorts them with its vectorized kernels."""

    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_icosphere(self, seed):
        assert _matches_loop_reference(*_shuffled(SPHERE3, seed))

    @pytest.mark.parametrize(
        "removed, flipped, valid",
        [(0.1, 0, True), (0.6, 0, True), (0.1, 5, False), (0.6, 60, False)],
    )
    def test_cap_with_triangles_removed_and_flipped(self, removed, flipped, valid):
        rng = np.random.default_rng(int(100 * removed) + flipped)
        vertices, tri = _shuffled(CAP20, flipped)
        tri = tri[rng.random(len(tri)) >= removed]
        flips = rng.choice(len(tri), flipped, replace=False)
        tri[flips] = tri[flips, ::-1]
        assert _matches_loop_reference(vertices, tri) == valid

    @pytest.mark.parametrize("sheets", [3, 4])
    def test_edge_shared_by_more_than_two_triangles(self, sheets):
        # sheets on the edge (a, b) alternate direction, so two of any three run the same way
        vertices, tri = _shuffled(SPHERE3, sheets)
        a, b = len(vertices), len(vertices) + 1
        fin = [[0, 0, 5], [1, 0, 5], [0.5, 1, 5], [0.5, -1, 5], [0.5, 0, 6], [0.5, 0, 4]]
        sheet = [[a, b, a + 2], [b, a, a + 3], [a, b, a + 4], [b, a, a + 5]][:sheets]
        tri = np.vstack([tri, sheet])[np.random.default_rng(sheets).permutation(len(tri) + sheets)]
        assert not _matches_loop_reference(np.vstack([vertices, fin]), tri)

    def test_repeated_triangle_far_from_its_first_copy(self):
        vertices, tri = _shuffled(SPHERE3, 9)
        again = np.roll(tri[2], 1)  # the same triangle from another corner: the same three directed edges
        assert not _matches_loop_reference(vertices, np.vstack([tri, again]))


class TestBoundary:
    def test_disk_boundary(self, disk32):
        assert not disk32.is_closed()
        # 32 rings x 64 segments: the outer ring has 64 boundary vertices
        assert disk32.boundary_vertices().size == 64
        assert boundary_measure(disk32) == pytest.approx(2.0 * math.pi, rel=2e-3)

    def test_sphere_closed(self, sphere4):
        assert sphere4.is_closed()
        assert boundary_measure(sphere4) == 0.0

    def test_region_boundary(self):
        mesh = load_mesh(SQUARE_OFF)
        # only the first triangle: its boundary is the full triangle perimeter
        length = boundary_measure(mesh, [0])
        assert length == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-13)


M8 = len(analytic.make_disk(1.0, 8).triangles)


@pytest.mark.parametrize(
    "measure",
    [
        hausdorff_measure,
        boundary_measure,
        lambda mesh, region: mesh_module._region_tc(mesh, mean_curvature(mesh), region),
        lambda mesh, region: verify.verify_isoperimetric(mesh, 0.0, const.brendle(1), regions=[region]),
    ],
    ids=["hausdorff_measure", "boundary_measure", "region_tc", "verify_isoperimetric"],
)
@pytest.mark.parametrize(
    "region, message",
    [
        ([-1], f"triangle index -1 out of range [0, {M8})"),
        ([3, M8], f"triangle index {M8} out of range [0, {M8})"),
        ([0, 0, 1], "triangle index 0 appears more than once"),
        ([[5, 2], [7, 2]], "triangle index 2 appears more than once"),
        ([0.5], "triangle index 0.5 is not a whole number"),
        ([3.0, 1.7], "triangle index 1.7 is not a whole number"),
        ([float("nan")], "triangle index nan is not a whole number"),
        ([2, float("inf")], "triangle index inf is not a whole number"),
        ([True, False], "triangle indices are a boolean mask; pass np.flatnonzero(mask)"),
        ([True] + [False] * (M8 - 1), "triangle indices are a boolean mask; pass np.flatnonzero(mask)"),
    ],
    ids=["minus-one", "M", "repeated", "repeated-2d", "half", "fraction", "nan", "inf", "mask", "full-mask"],
)
def test_region_indices_are_distinct_and_in_range(measure, region, message):
    with pytest.raises(ValueError) as caught:
        measure(analytic.make_disk(1.0, 8), region)
    assert str(caught.value) == message


class TestAreasAndGradient:
    def test_disk_area(self, disk32):
        assert hausdorff_measure(disk32) == pytest.approx(math.pi, rel=2e-3)

    def test_region_area(self):
        mesh = load_mesh(SQUARE_OFF)
        assert hausdorff_measure(mesh, [0]) == pytest.approx(0.5, rel=1e-14)
        assert hausdorff_measure(mesh, []) == 0.0

    def test_affine_field_gradient_exact(self, disk32):
        # u = x + 2y + 5 has |grad u|^2 = 5 on a flat mesh
        x, y = disk32.vertices[:, 0], disk32.vertices[:, 1]
        f = VertexField(x + 2.0 * y + 5.0)
        area = hausdorff_measure(disk32)
        for p in (1.0, 2.0, 3.0):
            assert p1_gradient_lp(disk32, f, p) == pytest.approx(
                area * 5.0 ** (0.5 * p), rel=1e-12
            )

    def test_gradient_in_r4(self):
        torus = analytic.make_clifford_torus(12)
        f = VertexField(torus.vertices[:, 0] + 1.0)
        assert p1_gradient_lp(torus, f, 2.0) > 0.0


class TestMeanCurvature:
    def test_sphere(self, sphere4):
        rep = mean_curvature(sphere4)
        assert np.all(~rep.boundary_mask)
        assert np.max(np.abs(rep.h_norm - 2.0)) < 0.02
        assert rep.total == pytest.approx(4.0 * math.sqrt(math.pi), rel=0.01)

    def test_tc_scale_invariance(self):
        a = mean_curvature(analytic.make_sphere(3, radius=1.0)).total
        b = mean_curvature(analytic.make_sphere(3, radius=7.5)).total
        assert a == pytest.approx(b, rel=1e-6)

    def test_refinement_convergence(self):
        errs = []
        for s in (3, 4):
            rep = mean_curvature(analytic.make_sphere(s))
            errs.append(float(np.max(np.abs(rep.h_norm - 2.0))))
        assert errs[1] / errs[0] < 0.6

    def test_clifford_torus(self):
        rep = mean_curvature(analytic.make_clifford_torus(48))
        assert np.max(np.abs(rep.h_norm - 2.0)) / 2.0 < 0.03

    def test_catenoid_is_minimal(self):
        rep = mean_curvature(analytic.make_catenoid(1.0, 24, 48))
        interior = ~rep.boundary_mask
        assert float(np.max(rep.h_norm[interior])) < 0.01

    def test_disk_boundary_vertices_zeroed(self, disk32):
        rep = mean_curvature(disk32)
        assert np.all(rep.h_norm[rep.boundary_mask] == 0.0)
        assert rep.total == pytest.approx(0.0, abs=1e-6)

    def test_report_serialization(self, disk32):
        rep = mean_curvature(disk32)
        assert "total_mean_curvature" in rep.to_json()
        assert rep.to_csv().splitlines()[0] == "vertex_index,h_norm,vertex_area,is_boundary"


class TestVertexField:
    def test_nonnegativity(self, disk32):
        with pytest.raises(ValueError):
            VertexField(-np.ones(len(disk32.vertices)))

    def test_length_check(self, disk32):
        # a field holds no mesh: its length is checked on its first use on one
        field = VertexField(np.ones(3))
        with pytest.raises(ValueError, match="field length does not match vertex count"):
            p1_gradient_lp(disk32, field, 2.0)

    def test_a_field_stores_only_its_values(self, disk32):
        assert [f.name for f in dataclasses.fields(VertexField)] == ["values"]
        assert not hasattr(TriMesh(disk32.vertices, disk32.triangles), "_curvature")

    def test_values_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="field values must be a 1-d array"):
            VertexField(np.ones((2, 3)))

    def test_csv_roundtrip(self, disk32, disk_hat):
        back = VertexField.from_csv(disk_hat.to_csv(), disk32)
        assert np.array_equal(back.values, disk_hat.values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_refused(self, disk32, bad):
        values = np.zeros(len(disk32.vertices))
        values[3] = bad
        with pytest.raises(ValueError, match="finite"):
            VertexField(values)
        with pytest.raises(ValueError, match="finite"):
            VertexField.from_csv(f"vertex_index,value\n3,{bad}\n", disk32)

    @pytest.mark.parametrize("index", [-1, "nv"])
    def test_csv_index_out_of_range(self, disk32, index):
        index = len(disk32.vertices) if index == "nv" else index
        with pytest.raises(ValueError, match="out of range"):
            VertexField.from_csv(f"vertex_index,value\n0,1.0\n{index},2.0\n", disk32)

    def test_csv_duplicate_index(self, disk32):
        with pytest.raises(ValueError, match="vertex index 5 appears more than once"):
            VertexField.from_csv("vertex_index,value\n5,1.0\n2,1.0\n5,2.0\n", disk32)

    def test_csv_missing_indices_stay_zero(self, disk32):
        f = VertexField.from_csv("vertex_index,value\n\n4,2.5\n", disk32)
        assert f.values[4] == 2.5
        assert np.count_nonzero(f.values) == 1
        assert not VertexField.from_csv("vertex_index,value\n", disk32).values.any()


class TestSampleField:
    def test_weights_partition_the_area(self, disk32, disk_hat):
        for s in (0, 1, 2):
            dmf = sample_field(disk32, disk_hat, s)
            assert dmf.total_weight() == pytest.approx(
                hausdorff_measure(disk32), rel=1e-12
            )
            assert len(dmf.values) == len(disk32.triangles) * 4**s

    def test_negative_subdivision_refused(self, disk32, disk_hat):
        with pytest.raises(ValueError, match="subdivision must be >= 0"):
            sample_field(disk32, disk_hat, -1)

    def test_values_within_field_range(self, disk32, disk_hat):
        dmf = sample_field(disk32, disk_hat, 2)
        assert dmf.max_value() <= disk_hat.values.max() + 1e-15
        assert np.all(dmf.values >= 0.0)

    def test_l1_converges_to_exact(self, disk32):
        # integral of 1 - r over the unit disk is pi/3
        r = np.hypot(disk32.vertices[:, 0], disk32.vertices[:, 1])
        f = boundary_vanishing_field(disk32, 1.0 - r)
        dmf = sample_field(disk32, f, 3)
        assert float(np.sum(dmf.weights * dmf.values)) == pytest.approx(
            math.pi / 3.0, rel=5e-3
        )


def _cell_sum_integrands():
    """name -> g: the powers of the L^p norms, the log-Sobolev entropy and the f and phi of both presets."""
    integrands = {f"power-{p}": (lambda p: lambda v: v**p)(p) for p in (1.0, 1.5, 2.0, 2.37, 6.0)}
    integrands["entropy"] = lambda v: xlogy(v**1.5, v)
    for name, kwargs in (("sobolev-l1", {}), ("p-sobolev", {"p": 1.5})):
        spec = verify.monotone_preset(name, n=2, **kwargs)
        integrands[f"{name}-f"], integrands[f"{name}-phi"] = spec.f, spec.phi
    return integrands


LINEAR, QUADRATIC = {"power-1.0", "sobolev-l1-phi", "p-sobolev-phi"}, {"power-2.0", "sobolev-l1-f"}


@pytest.mark.parametrize("s", range(4))
@pytest.mark.parametrize(
    "make",
    [
        lambda: analytic.make_disk(1.0, 12),
        lambda: analytic.make_cap(0.7, rings=10),
        lambda: analytic.make_catenoid(1.0, 8, 16),
        lambda: analytic.make_clifford_torus(10),
    ],
    ids=["disk", "cap", "catenoid", "clifford-r4"],
)
def test_cell_sum_is_the_weighted_sum_over_the_samples(make, s):
    # the weighted sum over the samples of ``sample_field`` is the centroid rule on 4^s cells per triangle, and
    # it converges to the exact integral of the distribution function at order 2 in the cell size: it is exact
    # for a linear integrand, its error falls by exactly 4 per level for a quadratic one, so that Richardson's
    # (4 S_(s+1) - S_s) / 3 is exact, and by about 4 for the others
    mesh = make()
    x = mesh.vertices
    # values above and below 1, so the entropy terms take both signs
    f = boundary_vanishing_field(mesh, 1.0 + np.sin(3.0 * x[:, 0]) * np.cos(2.0 * x[:, 1]) + 0.5 * x[:, 2] ** 2)
    coarse, fine = sample_field(mesh, f, s), sample_field(mesh, f, s + 1)
    mu = _distribution(mesh, f)
    for name, g in _cell_sum_integrands().items():
        exact = mu.integral(g)
        err_coarse, err_fine = (float(np.sum(d.weights * g(d.values))) - exact for d in (coarse, fine))
        if name in LINEAR:
            assert abs(err_coarse) <= 1e-13 * abs(exact), name
        elif name in QUADRATIC:
            assert abs(4.0 * err_fine - err_coarse) <= 3e-13 * abs(exact), name
        else:
            assert 0.2 < err_fine / err_coarse < 0.36, name


def parity_values(kind):
    """Curvature, boundary lengths and the nine verify reports on a small disk or cap."""
    b1 = const.brendle(1)
    if kind == "disk":
        mesh = analytic.make_disk(1.0, 12)
        values = 1.0 - np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        K = 0.0
    else:
        mesh = analytic.make_cap(0.3, rings=12)
        z = mesh.vertices[:, 2]
        values = z - z[mesh.boundary_vertices()].min()
        K = 1.2 * mean_curvature(mesh).total + 0.01
    f = boundary_vanishing_field(mesh, values)
    curv = mean_curvature(mesh)
    region = verify.superlevel_region(mesh, f, 0.5 * f.values.max())
    out = {
        "tc": curv.total,
        "h_sum": float(curv.h_norm.sum()),
        "area_sum": float(curv.vertex_areas.sum()),
        "boundary": boundary_measure(mesh),
        "region_boundary": boundary_measure(mesh, region),
    }
    whole = np.arange(len(mesh.triangles))
    reports = {
        "ps": verify.verify_polya_szego(mesh, f, 2.0, K, b1),
        "model": verify.verify_model_space_ps(mesh, f, 1.5, K, b1),
        "iso": verify.verify_isoperimetric(mesh, K, b1, [whole, region])[1],
        "sobolev": verify.verify_p_sobolev(mesh, f, 1.5, K, b1),
        "gn": verify.verify_gn(mesh, f, 1.5, 2.5, K, b1),
        "spectral": verify.verify_spectral_gap(mesh, f, K, b1),
        "ms1": verify.verify_michael_simon_p1(mesh, f, b1),
        "mono": verify.verify_monotonicity_principle(
            mesh, f, verify.monotone_preset("p-sobolev", p=1.5), K, b1
        ),
    }
    if kind == "disk":  # log-Sobolev needs a minimal surface
        reports["logsob"] = verify.verify_log_sobolev(mesh, f, 1.5)
    for name, rep in reports.items():
        out[name] = (float(rep.lhs), float(rep.rhs))
    return out


# recorded with the dict/DFS topology, line-by-line parser and per-sample
# monotonicity loops that the numpy mesh pass replaced
LOOP_ERA_VALUES = {
    "disk": {
        "tc": 1.7438954920250518e-14,
        "h_sum": 2.4543058030589424e-12,
        "area_sum": 3.105828541230249,
        "boundary": 6.265257226562477,
        "region_boundary": 2.610523844401032,
        "ps": (1.7843999765356762, 1.7775432321317814),
        "model": (3.1399996390412523, 3.146115246276457),
        "iso": (0.7343067097361872, 0.736415180307053),
        "sobolev": (0.6930868987931735, 0.849933188051607),
        "gn": (0.6777261871126461, 0.7697591478766558),
        "spectral": (6.104877509532351, 5.849780274200787),
        "ms1": (3.1120038439708333, 3.132628613281245),
        "mono": (0.5770076012286023, 0.7835688843262876),
        "logsob": (-0.6860041142740971, -0.5695635367418282),
    },
    "cap": {
        "tc": 1.0220977895384211,
        "h_sum": 534.0418800449552,
        "area_sum": 0.2775181366212129,
        "boundary": 1.851510110380194,
        "region_boundary": 1.2447144604600882,
        "ps": (0.112624737498647, 0.17079414383786928),
        "model": (0.013779147515534055, 0.02588740846526577),
        "iso": (0.35189627687783503, 0.5392131612863753),
        "sobolev": (0.026042668925043786, 0.05319732177003886),
        "gn": (0.022964090554874663, 0.04224694170223477),
        "spectral": (67.2855853409038, 27.76094830258628),
        "ms1": (0.055482136295293874, 0.06783860185008128),
        "mono": (0.004202698498271347, 0.01226972000675168),
    },
}


# the reports whose integrals of the field have come from its exact distribution function since the verifiers
# stopped sampling it; each side moved from its loop-era value by less than 1%, the sampling error
EXACT_LEVEL_VALUES = {
    "disk": {
        "ps": (1.7724538509055159, 1.7775432321317814),
        "model": (3.132613200541191, 3.146115246276457),
        "sobolev": (0.6931649177393776, 0.8499331880516071),
        "gn": (0.6777911165594109, 0.7697730759860915),
        "spectral": (6.103994280725996, 5.849780274200373),
        "ms1": (3.123659413002393, 3.132628613281245),
        "mono": (0.577105032283633, 0.7835688843262877),
        "logsob": (-0.6859454292617913, -0.5696966890028272),
    },
    "cap": {
        "ps": (0.11174850916892892, 0.17079414383786928),
        "model": (0.013693660241367821, 0.02588740846526577),
        "sobolev": (0.026044142422766713, 0.053197321770038865),
        "gn": (0.022965448315374684, 0.04224761960628145),
        "spectral": (67.2759199097257, 27.760948302584307),
        "ms1": (0.055504809266370386, 0.06783860185008128),
        "mono": (0.004203055187189052, 0.012269720006751682),
    },
}


@pytest.mark.parametrize("kind", ["disk", "cap"])
def test_values_match_the_loop_implementation(kind):
    got = parity_values(kind)
    want = {**LOOP_ERA_VALUES[kind], **EXACT_LEVEL_VALUES[kind]}
    assert got.keys() == want.keys()
    for key, value in want.items():
        # the flat disk's curvature is rounding noise, hence the absolute floor
        assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-11), key
    for key, value in EXACT_LEVEL_VALUES[kind].items():
        assert value == pytest.approx(LOOP_ERA_VALUES[kind][key], rel=1e-2), key


def _per_corner_gather_curvature(mesh):
    """Vertex areas and |H| computed with fresh v[i], v[j], v[k] gathers in every corner loop."""
    v, tri = mesh.vertices, mesh.triangles
    nvert, ntri = len(v), len(tri)
    tri_areas = mesh.triangle_areas()
    cots = np.empty((3, ntri))
    h_idx, h_terms = [], []
    for c in range(3):
        i, j, k = tri[:, c], tri[:, (c + 1) % 3], tri[:, (c + 2) % 3]
        e1, e2 = v[i] - v[k], v[j] - v[k]
        dot = np.einsum("ij,ij->i", e1, e2)
        n1 = np.einsum("ij,ij->i", e1, e1)
        n2 = np.einsum("ij,ij->i", e2, e2)
        cot = dot / np.sqrt(np.maximum(n1 * n2 - dot * dot, 1e-300))
        cots[(c + 2) % 3] = cot
        term = cot[:, None] * (v[i] - v[j])
        h_idx += [i, j]
        h_terms += [term, -term]
    h_idx, h_terms = np.concatenate(h_idx), np.concatenate(h_terms)
    accum = np.column_stack(
        [np.bincount(h_idx, weights=h_terms[:, d], minlength=nvert) for d in range(v.shape[1])]
    )
    obtuse_corner = cots < 0.0
    tri_obtuse = obtuse_corner.any(axis=0)
    area_idx, area_terms = [], []
    for c in range(3):
        i, j = tri[:, c], tri[:, (c + 1) % 3]
        edge = v[i] - v[j]
        l2 = np.einsum("ij,ij->i", edge, edge)
        piece = np.where(tri_obtuse, 0.0, cots[(c + 2) % 3] * l2 / 8.0)
        fallback = np.where(obtuse_corner[c], 0.5 * tri_areas, 0.25 * tri_areas)
        area_idx += [i, j, i]
        area_terms += [piece, piece, np.where(tri_obtuse, fallback, 0.0)]
    areas = np.bincount(np.concatenate(area_idx), weights=np.concatenate(area_terms), minlength=nvert)
    interior = np.ones(nvert, dtype=bool)
    interior[mesh.boundary_vertices()] = False
    interior &= areas > 0
    h = np.zeros(nvert)
    h[interior] = np.linalg.norm(accum[interior], axis=1) / (2.0 * areas[interior])
    return h, areas


def _fancy_index_gram(mesh):
    """The edge Gram entries and triangle areas from v[idx] row gathers."""
    v, tri = mesh.vertices, mesh.triangles
    a = v[tri[:, 1]] - v[tri[:, 0]]
    b = v[tri[:, 2]] - v[tri[:, 0]]
    aa, bb, ab = (np.einsum("ij,ij->i", x, y) for x, y in ((a, a), (b, b), (a, b)))
    return (aa, bb, ab), 0.5 * np.sqrt(np.maximum(aa * bb - ab * ab, 0.0))


@pytest.mark.parametrize(
    "make",
    [
        lambda: analytic.make_disk(1.0, 20),
        lambda: analytic.make_cap(0.7, rings=16),
        lambda: analytic.make_sphere(4),
        lambda: analytic.make_clifford_torus(16),
        lambda: load_mesh(mesh_to_off(analytic.make_clifford_torus(12))),
        # 222 of its 240 triangles are obtuse, so the areas run the fallback branch
        lambda: _squashed(analytic.make_disk(1.0, 8)),
        lambda: _with_loose_vertex(analytic.make_disk(1.0, 8)),
    ],
    ids=["disk", "cap", "icosphere", "clifford-r4", "noff4", "squashed-disk", "loose-vertex"],
)
def test_mean_curvature_bit_identical_to_per_corner_gathers(make):
    # np.take row gathers copy the rows v[idx] copies, so everything built from them is bit-identical; the
    # in-place scatters add each vertex's terms in the order of the reference's bincount over all pairs
    mesh = make()
    rng = np.random.default_rng(7)
    jittered = TriMesh(mesh.vertices + 1e-3 * rng.standard_normal(mesh.vertices.shape), mesh.triangles)
    for m in (mesh, jittered):
        gram, tri_areas = _fancy_index_gram(m)
        assert all(np.array_equal(got, want) for got, want in zip(m._gram, gram))
        assert np.array_equal(m.triangle_areas(), tri_areas)
        got = mean_curvature(m)
        h, areas = _per_corner_gather_curvature(m)
        assert np.array_equal(got.vertex_areas, areas)
        assert np.array_equal(got.h_norm, h)
        loose = np.setdiff1d(np.arange(len(m.vertices)), m.triangles)  # in no triangle: its sums stay 0
        assert not got.vertex_areas[loose].any() and not got.h_norm[loose].any()


def _squashed(mesh):
    return TriMesh(mesh.vertices * [1.0, 0.1, 1.0], mesh.triangles)


def _with_loose_vertex(mesh):
    return TriMesh(np.vstack([mesh.vertices, [[2.0, 0.0, 0.0]]]), mesh.triangles)


@pytest.fixture(scope="module")
def disk100_off():
    """The rings-100 disk (20,001 vertices, 39,800 triangles) as OFF text."""
    return mesh_to_off(analytic.make_disk(1.0, 100))


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_mesh_peak_memory(disk100_off):
    # the text, its lines and the face table are freed before the mesh is built and validated: 7.4 times the
    # text's length, where building the mesh beside them took 13.6
    stream, size = io.StringIO(disk100_off), len(disk100_off)
    peak = _traced_peak(lambda: load_mesh(stream))
    assert peak <= 10 * size


def test_mean_curvature_peak_memory(disk100_off):
    # the three edge arrays are gathered row by row and every sum is scattered in place, one coordinate at a
    # time, so no corner gather, index block or term block is built: 22.5 triangle-length float64 arrays,
    # where those blocks took 54
    mesh = load_mesh(disk100_off)
    triangles = len(mesh.triangles)
    peak = _traced_peak(lambda: mean_curvature(mesh))
    assert peak <= 30 * 8 * triangles


def test_trimesh_peak_memory(disk100_off):
    # validation frees each temporary (edge vectors, half-edge keys, sort order, twin pairs) once it is dead:
    # 17.6 triangle-length float64 arrays, the kept Gram entries, areas and twins among them, where keeping
    # every temporary to the end took 38.1
    vertices, triangles = mesh_module._parse_off(disk100_off)
    peak = _traced_peak(lambda: TriMesh(vertices, triangles))
    assert peak <= 24 * 8 * len(triangles)


def _per_call_gram_gradient_lp(mesh, f, p):
    """The P1 gradient energy with its own edge Gram, determinant and areas built per call."""
    tri, v, u = mesh.triangles, mesh.vertices, f.values
    a = v[tri[:, 1]] - v[tri[:, 0]]
    b = v[tri[:, 2]] - v[tri[:, 0]]
    aa = np.einsum("ij,ij->i", a, a)
    bb = np.einsum("ij,ij->i", b, b)
    ab = np.einsum("ij,ij->i", a, b)
    det = aa * bb - ab * ab
    du1 = u[tri[:, 1]] - u[tri[:, 0]]
    du2 = u[tri[:, 2]] - u[tri[:, 0]]
    grad2 = np.maximum((bb * du1 * du1 - 2.0 * ab * du1 * du2 + aa * du2 * du2) / det, 0.0)
    areas = 0.5 * np.sqrt(np.maximum(det, 0.0))
    return float(np.sum(areas * grad2 ** (0.5 * p)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: analytic.make_disk(1.0, 20),
        lambda: analytic.make_cap(0.7, rings=16),
        lambda: analytic.make_sphere(4),
        lambda: analytic.make_clifford_torus(16),
    ],
    ids=["disk", "cap", "icosphere", "clifford-r4"],
)
def test_gradient_lp_bit_identical_to_per_call_gram(make):
    mesh = make()
    rng = np.random.default_rng(11)
    jittered = TriMesh(mesh.vertices + 1e-3 * rng.standard_normal(mesh.vertices.shape), mesh.triangles)
    f = VertexField(rng.random(len(mesh.vertices)))
    for m in (mesh, jittered, mesh):  # the norms kept on f are those of the mesh they were measured on
        for p in (1.0, 1.5, 2.0, 3.7):
            assert p1_gradient_lp(m, f, p) == _per_call_gram_gradient_lp(m, f, p)
        assert f._derived[0] is m and not f._derived[1]["grad2"].flags.writeable


def _recursive_cell_centroids(subdivision):
    """Midpoint refinement one cell at a time, each split into its three corner cells then the middle one."""
    cells = [np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])]
    for _ in range(subdivision):
        nxt = []
        for c in cells:
            m01, m12, m02 = 0.5 * (c[0] + c[1]), 0.5 * (c[1] + c[2]), 0.5 * (c[0] + c[2])
            nxt += [np.array([c[0], m01, m02]), np.array([m01, c[1], m12]),
                    np.array([m02, m12, c[2]]), np.array([m01, m12, m02])]
        cells = nxt
    return np.array([c.mean(axis=0) for c in cells])


@pytest.mark.parametrize("s", range(5))
def test_cell_centroids_bit_identical_to_recursive_refinement(s):
    assert np.array_equal(_cell_centroids(s), _recursive_cell_centroids(s))
