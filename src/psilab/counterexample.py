"""The gradient-blowup family on the closed unit sphere.

The sphere is excluded from the curvature-bounded rearrangement inequality
(its total mean curvature 4 sqrt(pi) exceeds the admissible threshold
2 sqrt(pi)), and this module quantifies how badly the inequality fails
there: the planar gradient p-energy of the rearranged field u_lambda grows
like lambda^(2p-2) while the surface energy decays like lambda^(p-2), so
for 1 < p < 2 the quotient outruns any prescribed factor N at a finite
threshold lambda, and for p >= 2 the planar energy is outright divergent.

Both ratio conventions are carried per sweep row: the quotient against the
full right-hand side (surface energy plus the curvature term, which tends
to a constant and therefore dominates the denominator) and the quotient
against the surface gradient energy alone, whose log-log slope in lambda
is p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._table import format_table
from .analytic import _blowup_terms, example51_field, example51_gradient_integrals, make_sphere
from .errors import DIVERGENT, ConvergenceFailure, require_order
from .mesh import _stacked_gradient_lp

__all__ = [
    "SweepRow",
    "sweep",
    "find_lambda_bar",
    "asymptotic_check",
    "sweep_to_csv",
]


@dataclass
class SweepRow:
    """One lambda sample of the blowup sweep.

    ``curvature_term`` is the exact integral of |H|^p u^p with |H| = 2 on
    the unit sphere. ``ratio`` divides the planar energy by the full
    right-hand side; ``gradient_ratio`` divides by the surface energy
    alone. ``mesh_surface`` is the optional discrete cross-check of the
    surface energy; ``flagged`` marks rows where the polar cap is too small
    for the cross-check mesh to resolve.
    """

    lam: float
    p: float
    surface_grad_p: float
    curvature_term: float
    plane_grad_p: object  # float or the Divergent marker
    ratio: float
    gradient_ratio: float
    mesh_surface: float | None = None
    flagged: bool = False

    def as_dict(self) -> dict:
        """The row as JSON writes it: Divergent spelled "divergent" and an infinite ratio "inf", as in CSV."""
        return {
            "lambda": self.lam, "p": self.p,
            "surface_grad_p": self.surface_grad_p, "curvature_term": self.curvature_term,
            "plane_grad_p": "divergent" if self.plane_grad_p is DIVERGENT else self.plane_grad_p,
            "ratio": "inf" if math.isinf(self.ratio) else self.ratio,
            "gradient_ratio": "inf" if math.isinf(self.gradient_ratio) else self.gradient_ratio,
            "mesh_surface": self.mesh_surface, "flagged": self.flagged,
        }


def sweep(p: float, lam_list, mesh_check: bool = False, subdiv: int = 5):
    """Closed-form sweep over lambda, optionally cross-checked on an icosphere.

    The closed-form columns come from one pass of the closed forms over the
    lambda array. The mesh cross-check evaluates the field of every lambda on
    the icosphere's vertices as one stacked (lambda, vertex) array, in blocks,
    and takes each row's P1 energy in one pass; every ``mesh_surface`` is
    bit-identical to ``p1_gradient_lp(mesh, VertexField(example51_field(lam, mesh.vertices)), p)``.
    """
    p = float(p)  # a numpy scalar would be kept in each row and, as float32, round 2^p
    lams = np.array(lam_list, dtype=float, ndmin=1)
    surface, plane, surface_lp = _blowup_terms(lams, p)
    curvature = 2.0**p * surface_lp
    if plane is DIVERGENT:
        planes = [DIVERGENT] * len(lams)
        ratio = gradient_ratio = np.full(len(lams), math.inf)
    else:
        planes = plane.tolist()
        ratio = plane / (surface + curvature)
        gradient_ratio = plane / surface
    rows = [
        SweepRow(lam=l, p=p, surface_grad_p=s, curvature_term=c, plane_grad_p=g, ratio=r, gradient_ratio=gr)
        for l, s, c, g, r, gr in zip(
            lams.tolist(), surface.tolist(), curvature.tolist(), planes, ratio.tolist(), gradient_ratio.tolist()
        )
    ]
    if mesh_check:
        mesh = make_sphere(subdiv)
        surfaces = _stacked_gradient_lp(mesh, len(lams), lambda lo, hi: example51_field(lams[lo:hi], mesh.vertices), p)
        for row, surface in zip(rows, surfaces):
            row.mesh_surface = surface
            deviation = abs(row.mesh_surface - row.surface_grad_p) / row.surface_grad_p
            # beyond lambda ~ 20 the cap holds too few triangles to trust
            row.flagged = row.lam > 20.0 or deviation > 0.05
    return rows


def sweep_to_csv(rows) -> str:
    """Plot-friendly CSV: one row per lambda, Divergent spelled out, an infinite ratio "inf" as its ``str``."""
    return format_table(
        "lambda,p,surface_grad_p,curvature_term,plane_grad_p,ratio,gradient_ratio,mesh_surface,flagged",
        *zip(*[(r.lam, r.p, r.surface_grad_p, r.curvature_term, "divergent" if r.plane_grad_p is DIVERGENT
                else r.plane_grad_p, r.ratio, r.gradient_ratio, r.mesh_surface, int(r.flagged)) for r in rows]))


_LAMBDA_CEILING = 1e12
# the threshold walk's grid: 1, 1.1, 1.1^2, ... below the ceiling, then the ceiling
_LAMBDA_GRID = np.append(1.1 ** np.arange(math.ceil(math.log(_LAMBDA_CEILING, 1.1))), _LAMBDA_CEILING)


def _excess(lam, N: float, p: float):
    """Planar energy minus N times the full right-hand side, for p < 2."""
    surface, plane, surface_lp = _blowup_terms(lam, p)
    return plane - N * (surface + 2.0**p * surface_lp)


def find_lambda_bar(N: float, p: float) -> float:
    """Smallest lambda (3 significant digits) where the planar energy exceeds
    N times the full right-hand side.

    For p >= 2 the planar energy is divergent for every lambda, so the
    threshold is 1; at p = 1 the quotient rises toward 1/2 and never reaches
    a larger N. The search evaluates a geometric grid (factor 1.1) up to
    the ceiling in one call and bisects its first bracket; no crossing below
    the ceiling reports a failure instead of guessing.
    """
    if not 0 < N < math.inf:
        raise ValueError(f"N must be a finite number > 0, got {N}")
    p = require_order(p)
    if p >= 2:
        return 1.0
    (crossed,) = np.nonzero(_excess(_LAMBDA_GRID, N, p) > 0)
    if crossed.size == 0:
        raise ConvergenceFailure(
            f"no threshold below lambda = {_LAMBDA_CEILING} for N = {N}, p = {p}"
        )
    k = crossed[0]
    if k == 0:
        return 1.0
    lo, hi = float(_LAMBDA_GRID[k - 1]), float(_LAMBDA_GRID[k])
    # bisect to 3 significant digits
    while (hi - lo) > 5e-4 * hi:
        mid = 0.5 * (lo + hi)
        if _excess(mid, N, p) > 0:
            hi = mid
        else:
            lo = mid
    return hi


def asymptotic_check(p: float, lam: float):
    """Computed-to-asymptote ratios for the two gradient integrals.

    Returns (surface_ratio, plane_ratio, plane_ratio_corrected): the surface
    energy against pi lambda^(p-2), and the planar energy against both
    closures of its leading constant, the printed
    2^(2p - p/2) / (2 - p) form and the 2^(p+1) / (2 - p) form obtained by
    integrating the exact profile. Only the second tends to 1.
    """
    if not 1.0 <= p < 2.0:
        raise ValueError("requires 1 <= p < 2")
    p = require_order(p)  # as a Python float: a float32 p would round the asymptotes to float32
    surface, plane = example51_gradient_integrals(lam, p)  # refuses a lambda that is not a finite number >= 1
    surface_ratio = surface / (math.pi * lam ** (p - 2.0))
    scale = math.pi * lam ** (2.0 * p - 2.0) / (2.0 - p)
    plane_ratio = plane / (scale * 2.0 ** (2.0 * p - 0.5 * p))
    plane_ratio_corrected = plane / (scale * 2.0 ** (p + 1.0))
    return surface_ratio, plane_ratio, plane_ratio_corrected
