"""Run every verifier once on the flat unit disk and print a verdict table.

The disk with a radial hat field is the equality-adjacent case for most of
the inequalities (PS constant is exactly 1 there), so ratios should hover
just below 1. The full sphere is refused by the curvature-bounded checks.
"""

import numpy as np

from psilab import constants as const
from psilab.analytic import logsobolev_extremal, make_disk, make_sphere
from psilab.errors import CurvatureBoundViolated
from psilab.mesh import VertexField
from psilab.special_fn import bessel_first_zero, bessel_j
from psilab.verify import (
    monotone_preset,
    verify_isoperimetric,
    verify_log_sobolev,
    verify_michael_simon_p1,
    verify_model_space_ps,
    verify_monotonicity_principle,
    verify_p_sobolev,
    verify_polya_szego,
    verify_spectral_gap,
)

B1 = const.brendle(1)

disk = make_disk(1.0, 32)
r = np.hypot(disk.vertices[:, 0], disk.vertices[:, 1])
vals = np.maximum(1.0 - r, 0.0)
vals[disk.boundary_vertices()] = 0.0
hat = VertexField(vals, mesh=disk)

j0 = bessel_first_zero(0.0)
ev = np.array([bessel_j(0.0, j0 * x) for x in r])
ev[disk.boundary_vertices()] = 0.0
eigen = VertexField(np.maximum(ev, 0.0), mesh=disk)

reports = [
    verify_polya_szego(disk, hat, 2.0, 0.0, B1),
    verify_model_space_ps(disk, hat, 2.0, 0.0, B1),
    verify_isoperimetric(disk, 0.0, B1)[0],
    verify_p_sobolev(disk, hat, 1.5, 0.0, B1),
    verify_spectral_gap(disk, eigen, 0.0, B1),
    verify_log_sobolev(disk, 1.5, f=hat),
    verify_michael_simon_p1(disk, hat, B1),
    verify_monotonicity_principle(disk, hat, monotone_preset("sobolev-l1"), 0.0, B1),
]
# the pure Euclidean extremal equality, for reference
reports.append(verify_log_sobolev(logsobolev_extremal(3, 2.0, 1.0), 2.0))

print(f"{'inequality':<24}{'lhs':>12}{'rhs':>12}{'ratio':>10}  verdict")
for rep in reports:
    tag = "PASS" if rep.passed else "FAIL"
    if rep.vacuous:
        tag += " (vacuous)"
    print(f"{rep.inequality_id:<24}{rep.lhs:>12.5f}{rep.rhs:>12.5f}"
          f"{rep.ratio:>10.4f}  {tag}")

print()
sphere = make_sphere(3)
ones = VertexField(np.ones(len(sphere.vertices)), mesh=sphere)
try:
    verify_polya_szego(sphere, ones, 2.0, 0.0, B1)
    print("closed sphere accepted: FAIL (should have been refused)")
except CurvatureBoundViolated as exc:
    print(f"closed sphere refused as required: {exc}")
