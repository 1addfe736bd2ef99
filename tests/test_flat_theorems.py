"""On a flat mesh at K = 0 the Euclidean sharp inequalities are theorems, so every verdict on one passes.

A sheared and rotated ``make_disk`` is a planar polygon, and a P1 field that vanishes on its boundary lies in
W^{1,p}_0 of it. So these hold exactly: Talenti's Sobolev inequality (``sobolev``), Del Pino and Dolbeault's
Gagliardo-Nirenberg inequality (``gn``, corrected reading), Faber-Krahn (``spectral``, corrected reading), the
p-log-Sobolev inequality (``logsob``), Polya-Szego at p = 1 (``ms1``) and the two monotonicity presets
(``mono``), under either isoperimetric choice. The literal readings are not theorems and are not tested here.
Every report must pass at ``TOL``, a relative allowance for rounding only.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from psilab import analytic
from psilab import constants as const
from psilab import verify as v
from psilab.mesh import TriMesh

from conftest import boundary_vanishing_field

TOL = 1e-12
CHOICES = (const.brendle(1), const.IsoperimetricChoice())


def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


@st.composite
def flat_disk_and_field(draw):
    """A disk of 3-12 rings under a random shear of its plane and a random rotation and shift of R^3, with a
    random field that vanishes on the boundary and is positive at the centre."""
    rings = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    disk = analytic.make_disk(1.0, rings)
    shear = np.diag([*rng.uniform(0.3, 3.0, 2), 1.0])
    shear[0, 1] = rng.uniform(-2.0, 2.0)
    mesh = TriMesh(disk.vertices @ shear.T @ _rotation(rng).T + rng.uniform(-5.0, 5.0, 3), disk.triangles)
    values = rng.uniform(0.0, 1.0, len(disk.vertices)) * (rng.random(len(disk.vertices)) < rng.uniform(0.3, 1.0))
    values[0] = rng.uniform(0.5, 1.0)  # the centre: the field is not 0
    return mesh, boundary_vanishing_field(mesh, values)


@settings(max_examples=60, deadline=None)
@given(flat_disk_and_field(), st.floats(1.05, 1.95), st.floats(0.05, 1.0))
def test_the_euclidean_theorems_pass_on_a_flat_disk(mesh_field, p, q_fraction):
    mesh, f = mesh_field
    q = p + q_fraction * (p / (2.0 - p) - p)  # in (p, p(n-1)/(n-p)] at n = 2
    for choice in CHOICES:
        reports = [
            v.verify_p_sobolev(mesh, f, p, 0.0, choice, tolerance=TOL),
            v.verify_gn(mesh, f, p, q, 0.0, choice, const.Reading.CORRECTED, tolerance=TOL),
            v.verify_spectral_gap(mesh, f, 0.0, choice, const.Reading.CORRECTED, tolerance=TOL),
            v.verify_log_sobolev(mesh, f, p, tolerance=TOL),
            v.verify_michael_simon_p1(mesh, f, choice, tolerance=TOL),
            v.verify_monotonicity_principle(mesh, f, v.monotone_preset("sobolev-l1"), 0.0, choice, tolerance=TOL),
            v.verify_monotonicity_principle(mesh, f, v.monotone_preset("p-sobolev", 2, p), 0.0, choice,
                                            tolerance=TOL),
        ]
        for report in reports:
            assert report.passed and not report.vacuous, (choice.label(), report.as_dict())
