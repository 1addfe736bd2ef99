"""The exact distribution function of a P1 field (``mesh._distribution``): its gates against closed forms and
the invariants the paper's inequalities rest on, equimeasurability, isometry invariance and the scaling laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from psilab import analytic
from psilab import mesh as mesh_module
from psilab.mesh import TriMesh, VertexField, _distribution, p1_gradient_lp

from conftest import boundary_vanishing_field

DISKS = {rings: analytic.make_disk(1.0, rings) for rings in range(3, 9)}
POWERS = (1.0, 1.5, 2.0, 3.0)


def _ring_hat(mesh: TriMesh, rings: int, snapped: bool) -> VertexField:
    """max(0, 1 - r) on a disk, from the radius (ties between the vertices of a ring only up to rounding) or
    from the ring index (exact ties)."""
    r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    return VertexField(1.0 - np.rint(r * rings) / rings if snapped else np.maximum(0.0, 1.0 - r))


@st.composite
def flat_fields(draw):
    """A boundary-vanishing field on a small disk, continuous or on a grid of 4 steps (ties, flat triangles
    and triangles with two equal corners), the disk sheared and squashed by a random linear map."""
    mesh = DISKS[draw(st.integers(3, 8))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.random(len(mesh.vertices))
    if draw(st.booleans()):
        values = np.round(4.0 * values) / 4.0
    shape = np.eye(3)
    shape[:2, :2] = [[1.0, draw(st.floats(-0.5, 0.5))], [0.0, draw(st.floats(0.3, 1.0))]]
    mesh = TriMesh(mesh.vertices @ shape.T, mesh.triangles)
    return mesh, boundary_vanishing_field(mesh, values)


def _triangle_mu(a, b, c, area, t):
    """|{u > t}| on each triangle, from its sorted corner values: the closed form, one (triangle, level) pair
    at a time."""
    out = np.where(t < a, area, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        low = area * (1.0 - (t - a) ** 2 / ((b - a) * (c - a)))
        high = area * (c - t) ** 2 / ((c - a) * (c - b))
    out = np.where((a <= t) & (t < b), low, out)
    return np.where((b <= t) & (t < c), high, out)


def _sides(mesh: TriMesh, f: VertexField) -> list[float]:
    """Every exact side the level structure gives, and the P1 energies they are set against."""
    mu = _distribution(mesh, f)
    sides = [mu.integral(lambda v, q=q: v**q) for q in (1.0, 1.5, 2.0, 6.0)]
    sides += [mu.rearranged_energy(p) for p in POWERS]
    return sides + [p1_gradient_lp(mesh, f, p) for p in POWERS]


# ---------------------------------------------------------------------------
# gates


def test_hat_ladder_converges_from_below_at_order_two():
    # exact / P1 energy of the hat at p = 2: sharp Polya-Szego on the flat disk, so at most 1, and 1 - O(h^2);
    # the exact energy itself is pi, the hat's on the round disk
    want = {8: "0.9871", 16: "0.9968", 32: "0.9992", 64: "0.99980", 128: "0.99995", 256: "0.999987"}
    defects = []
    for rings, ratio in want.items():
        mesh = DISKS.get(rings) or analytic.make_disk(1.0, rings)
        f = _ring_hat(mesh, rings, snapped=False)
        energy = _distribution(mesh, f).rearranged_energy(2.0)
        assert energy == pytest.approx(math.pi, rel=1e-12)
        got = energy / p1_gradient_lp(mesh, f, 2.0)
        assert got <= 1.0 and f"{got:.{len(ratio) - 2}f}" == ratio, rings
        defects.append(1.0 - got)
    assert all(3.9 < coarse / fine < 4.1 for coarse, fine in zip(defects, defects[1:]))


@pytest.mark.parametrize("rings", [8, 16, 64])
def test_rounding_ties_match_the_snapped_hat(rings):
    # the radii of one ring differ in the last bits, which the merge takes back to one level; values apart by
    # 1e-12 or 1e-11 relative stay apart, and a triangle spanning such a gap has a steep slope the walk
    # must not leave behind
    mesh = analytic.make_disk(1.0, rings)
    snapped = _ring_hat(mesh, rings, snapped=True)
    want = _sides(mesh, snapped)
    rounded = _ring_hat(mesh, rings, snapped=False)
    mu = _distribution(mesh, rounded)
    assert (mu.levels.size, mu.merged) == (rings + 1, np.unique(rounded.values).size - rings - 1)
    rng = np.random.default_rng(rings)
    for field in (rounded, *(VertexField(snapped.values * (1.0 + eps * rng.standard_normal(len(mesh.vertices))))
                             for eps in (1e-12, 1e-11))):
        assert _sides(mesh, field) == pytest.approx(want, rel=1e-10)


def _complete_homogeneous(k: int, a, b, c):
    return sum(a**i * b**j * c ** (k - i - j) for i in range(k + 1) for j in range(k + 1 - i))


@settings(max_examples=40, deadline=None)
@given(flat_fields())
def test_integer_powers_match_the_closed_form(case):
    # the integral of u^k over a triangle is A 2 / ((k + 1)(k + 2)) h_k(a, b, c)
    mesh, f = case
    a, b, c = f.values[mesh.triangles].T
    area = mesh.triangle_areas()
    mu = _distribution(mesh, f)
    for k in range(1, 7):
        exact = float(np.sum(area * 2.0 / ((k + 1) * (k + 2)) * _complete_homogeneous(k, a, b, c)))
        assert abs(mu.integral(lambda v: v**k) - exact) <= 1e-11 * exact


@settings(max_examples=40, deadline=None)
@given(flat_fields(), st.sampled_from(POWERS))
def test_polya_szego_holds_on_flat_meshes(case, p):
    # a theorem for every W^(1,p) function on a flat domain, so for every P1 field: only rounding may exceed it
    mesh, f = case
    if not f.values.any():
        return
    energy = _distribution(mesh, f).rearranged_energy(p)
    assert energy <= (1.0 + 1e-10) * p1_gradient_lp(mesh, f, p)


@pytest.mark.parametrize("rings", [8, 44])
def test_eight_nodes_meet_a_fine_rule(monkeypatch, rings):
    # fractional powers and the entropy at a zero level: t^p and t^p log t, which the lowest interval's rule
    # takes in sqrt(t); 8 nodes per interval agree with 64 to 1e-9
    mesh = analytic.make_disk(1.0, rings)
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    fields = [_ring_hat(mesh, rings, snapped=False),
              boundary_vanishing_field(mesh, (1.0 - x * x - y * y) * (1.0 + 0.6 * x + 0.3 * y * y))]
    integrands = [lambda v: v**1.5, lambda v: v**1.6, lambda v: v**2.37, lambda v: xlogy(v**1.5, v)]

    def sides():
        out = []
        for f in fields:
            mu = mesh_module._build_levels(mesh, f.values)
            out += [mu.integral(g) for g in integrands] + [mu.rearranged_energy(p) for p in POWERS]
        return out

    eight = sides()
    monkeypatch.setattr(mesh_module, "_LEVEL_X", mesh_module._unit_rule(64)[0])
    monkeypatch.setattr(mesh_module, "_LEVEL_W", mesh_module._unit_rule(64)[1])
    assert eight == pytest.approx(sides(), rel=1e-9)


# ---------------------------------------------------------------------------
# invariants


@settings(max_examples=30, deadline=None)
@given(flat_fields())
def test_equimeasurable_with_the_triangles(case):
    # mu at each kept level, and at every quadrature node, is the sum of the triangles' closed forms
    mesh, f = case
    mu = _distribution(mesh, f)
    a, b, c = np.sort(f.values[mesh.triangles], axis=1).T[:, :, None]
    area = mesh.triangle_areas()[:, None]
    total = float(area.sum())
    interval_mass = mu.mass.sum(axis=1)
    above = np.append(np.cumsum(interval_mass[::-1])[::-1], 0.0) + np.append(np.cumsum(mu.atoms[::-1])[::-1][1:], 0.0)
    want = _triangle_mu(a, b, c, area, mu.levels[None, :]).sum(axis=0)
    assert np.allclose(above, want, rtol=0.0, atol=1e-12 * total)
    nodes = mu.t.ravel()[None, :]
    assert np.allclose(np.exp(mu.log_mu.ravel()), _triangle_mu(a, b, c, area, nodes).sum(axis=0),
                       rtol=1e-12, atol=1e-13 * total)
    assert float(interval_mass.sum() + mu.atoms.sum()) == pytest.approx(total, rel=1e-12)


def _rotation(d: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


@settings(max_examples=20, deadline=None)
@given(flat_fields(), st.integers(0, 2**32 - 1))
def test_isometries_leave_every_side_unchanged(case, seed):
    # a rotation in R^3, and the same disk in R^4 in a rotated plane
    mesh, f = case
    rng = np.random.default_rng(seed)
    want = _sides(mesh, f)
    in_r4 = np.hstack([mesh.vertices, np.zeros((len(mesh.vertices), 1))])
    for vertices in (mesh.vertices @ _rotation(3, rng).T, in_r4 @ _rotation(4, rng).T):
        moved = TriMesh(vertices, mesh.triangles)
        assert _sides(moved, VertexField(f.values)) == pytest.approx(want, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(flat_fields(), st.floats(0.1, 10.0))
def test_scaling_laws(case, s):
    # scaling the mesh by s multiplies integrals of u by s^2 and both gradient p-energies by s^(2 - p)
    mesh, f = case
    mu = _distribution(mesh, f)
    scaled = TriMesh(s * mesh.vertices, mesh.triangles)
    g = VertexField(f.values)
    nu = _distribution(scaled, g)
    for q in (1.0, 2.5):
        assert nu.integral(lambda v: v**q) == pytest.approx(s**2 * mu.integral(lambda v: v**q), rel=1e-12)
    for p in POWERS:
        factor = s ** (2.0 - p)
        assert nu.rearranged_energy(p) == pytest.approx(factor * mu.rearranged_energy(p), rel=1e-12)
        assert p1_gradient_lp(scaled, g, p) == pytest.approx(factor * p1_gradient_lp(mesh, f, p), rel=1e-12)


# ---------------------------------------------------------------------------
# the structure itself


def test_single_triangle_shapes():
    # a < b < c, a = b, b = c and a flat triangle: the hat, its two jumps and an atom
    tri = TriMesh(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.array([[0, 1, 2]]))
    for values in ([0.0, 1.0, 3.0], [0.0, 0.0, 3.0], [0.0, 3.0, 3.0], [2.0, 2.0, 2.0]):
        mu = _distribution(tri, VertexField(np.array(values)))
        a, b, c = values
        for k in range(4):
            assert mu.integral(lambda v: v**k) == pytest.approx(0.5 * 2.0 / ((k + 1) * (k + 2))
                                                                * _complete_homogeneous(k, a, b, c), rel=1e-14)
        assert mu.atoms.sum() == (0.5 if a == c else 0.0)


def test_kept_once_per_mesh_and_read_only(monkeypatch):
    mesh = DISKS[6]
    f = _ring_hat(mesh, 6, snapped=True)
    builds = []
    real = mesh_module._build_levels
    monkeypatch.setattr(mesh_module, "_build_levels", lambda *args: builds.append(args) or real(*args))
    first = _distribution(mesh, f)
    assert _distribution(mesh, f) is first and len(builds) == 1
    other = TriMesh(2.0 * mesh.vertices, mesh.triangles)
    assert _distribution(other, f) is not first and len(builds) == 2
    for arr in (first.levels, first.atoms, first.t, first.dt, first.mass, first.log_mu, first.log_rho):
        assert not arr.flags.writeable


def test_vertices_in_no_triangle_add_no_level():
    mesh = DISKS[4]
    f = _ring_hat(mesh, 4, snapped=True)
    nv = len(mesh.vertices)
    spare = TriMesh(np.vstack([mesh.vertices, [[5.0, 5.0, 0.0]]]), mesh.triangles)
    mu = _distribution(spare, VertexField(np.append(f.values, 7.0)))
    assert mu.levels.tolist() == _distribution(mesh, f).levels.tolist() and len(spare.vertices) == nv + 1
    assert _sides(spare, VertexField(np.append(f.values, 7.0)))[:-len(POWERS)] == \
        pytest.approx(_sides(mesh, f)[:-len(POWERS)], rel=1e-14)


def test_a_positive_minimum_is_a_jump_at_the_edge():
    # a field above 0 everywhere on a closed surface: u* drops from the minimum to 0 at the edge of the ball
    # of the whole area A, which costs I(A) times the minimum at p = 1 and makes the energy infinite above
    sphere = analytic.make_sphere(2)
    area = float(sphere.triangle_areas().sum())
    z = sphere.vertices[:, 2]
    perimeter = 2.0 * math.sqrt(math.pi * area)  # I(A) on the plane
    constant = _distribution(sphere, VertexField(np.full(len(z), 0.7)))
    above_half = _distribution(sphere, VertexField(1.5 + z))
    assert constant.levels.tolist() == [0.0, 0.7]
    assert constant.rearranged_energy(1.0) == pytest.approx(0.7 * perimeter, rel=1e-12)
    assert above_half.rearranged_energy(1.5) == math.inf
    ramp = _distribution(sphere, VertexField(1.0 + z)).rearranged_energy(1.0)
    assert above_half.rearranged_energy(1.0) == pytest.approx(ramp + 0.5 * perimeter, rel=1e-12)


def test_a_gap_between_components_is_a_jump_of_the_rearrangement():
    # two triangles sharing no vertex, with values in [0, 1] and [2, 3]: no triangle spans (1, 2), so u* jumps
    # there, which costs I(mu) dt at p = 1 and makes the energy infinite above
    vertices = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [3, 0, 0], [4, 0, 0], [3, 1, 0]])
    with pytest.warns(UserWarning, match="not connected"):
        mesh = TriMesh(vertices, np.array([[0, 1, 2], [3, 4, 5]]))
    mu = _distribution(mesh, VertexField(np.array([0.0, 1.0, 1.0, 2.0, 3.0, 3.0])))
    assert math.isfinite(mu.rearranged_energy(1.0))
    assert mu.rearranged_energy(1.5) == math.inf
