"""The invariants the paper's verdicts rely on, as properties of small parametric meshes with a random
nonnegative vertex field: triangle areas, P1 gradient energies, |H| and the boundary length are unchanged by
a rigid motion and by the isometric embedding R^3 -> R^4, and scale as s^2, s^(2-p), 1/s and s under x -> s x.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from psilab import analytic
from psilab.mesh import TriMesh, VertexField, boundary_measure, mean_curvature, p1_gradient_lp

MESHES = [
    analytic.make_disk(1.0, 3),
    analytic.make_disk(1.0, 6),
    analytic.make_cap(0.8, 4),
    analytic.make_cap(0.8, 8),
    analytic.make_catenoid(1.0, 6, 12),
    analytic.make_catenoid(1.0, 10, 20),
]
ORDERS = (1.0, 1.5, 2.0, 3.0)
REL = 1e-9
H_FLOOR = 1e-9  # |H| of a flat mesh is rounding noise, and so is its change


@st.composite
def mesh_and_field(draw):
    mesh = draw(st.sampled_from(MESHES))
    values = arrays(float, len(mesh.vertices), elements=st.one_of(st.just(0.0), st.floats(0.01, 10.0)))
    return mesh, VertexField(draw(values))


def _orthogonal(seed: int, d: int) -> np.ndarray:
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _measures(mesh: TriMesh, f: VertexField) -> dict:
    return {
        "areas": mesh.triangle_areas(),
        "energies": np.array([p1_gradient_lp(mesh, f, p) for p in ORDERS]),
        "h_norm": mean_curvature(mesh).h_norm,
        "boundary": boundary_measure(mesh),
    }


def _assert_measures(got: dict, want: dict):
    for key in ("areas", "energies", "boundary"):
        assert got[key] == pytest.approx(want[key], rel=REL), key
    assert got["h_norm"] == pytest.approx(want["h_norm"], rel=REL, abs=H_FLOOR)


@settings(max_examples=40, deadline=None)
@given(mesh_and_field(), st.integers(0, 2**32 - 1), st.sampled_from([3, 4]))
def test_isometries_keep_the_measures(mesh_field, seed, d):
    # an orthogonal map plus a translation of R^3, or the embedding R^3 -> R^4 (a zero coordinate appended)
    # followed by one of R^4
    mesh, f = mesh_field
    x = np.hstack([mesh.vertices, np.zeros((len(mesh.vertices), d - 3))])
    shift = np.random.default_rng(seed + 1).uniform(-5.0, 5.0, d)
    moved = TriMesh(x @ _orthogonal(seed, d).T + shift, mesh.triangles)
    _assert_measures(_measures(moved, f), _measures(mesh, f))


@settings(max_examples=40, deadline=None)
@given(mesh_and_field(), st.floats(0.1, 10.0))
def test_scaling_laws(mesh_field, s):
    mesh, f = mesh_field
    want = _measures(mesh, f)
    scaled = _measures(TriMesh(s * mesh.vertices, mesh.triangles), f)
    _assert_measures(
        {
            "areas": scaled["areas"] / s**2,
            "energies": scaled["energies"] / s ** (2.0 - np.array(ORDERS)),
            "h_norm": scaled["h_norm"] * s,
            "boundary": scaled["boundary"] / s,
        },
        want,
    )
