import numpy as np
import pytest

from psilab import analytic
from psilab.mesh import TriMesh, VertexField


def boundary_vanishing_field(mesh: TriMesh, values) -> VertexField:
    """Clamp to nonnegative and force exact zeros on the boundary ring."""
    v = np.maximum(np.asarray(values, dtype=float), 0.0)
    bv = mesh.boundary_vertices()
    if bv.size:
        v[bv] = 0.0
    return VertexField(v)


def mesh_to_off(mesh: TriMesh) -> str:
    header = "OFF" if mesh.d == 3 else f"nOFF {mesh.d}"
    lines = [header, f"{len(mesh.vertices)} {len(mesh.triangles)} 0"]
    for v in mesh.vertices:
        lines.append(" ".join("%.17g" % x for x in v))
    for t in mesh.triangles:
        lines.append("3 " + " ".join(str(int(i)) for i in t))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def disk32():
    return analytic.make_disk(1.0, 32)


@pytest.fixture(scope="session")
def disk_hat(disk32):
    r = np.linalg.norm(disk32.vertices[:, :2], axis=1)
    return boundary_vanishing_field(disk32, 1.0 - r)


@pytest.fixture(scope="session")
def sphere4():
    return analytic.make_sphere(4)


@pytest.fixture(scope="session")
def sphere5():
    return analytic.make_sphere(5)
