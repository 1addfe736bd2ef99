"""Inequality verdict engine.

Each verifier assembles the two sides of one functional inequality from the
mesh / rearrangement / constants machinery and returns a VerificationReport.
The inequalities themselves are exact; the tolerance in a report is purely
a discretization allowance (1% for a mesh check unless given one), and the
raw ratio is always recorded so a reader can judge the margin independently
of the verdict.

Closed surfaces are refused by the curvature-bounded verifiers: a surface
admissible for the rearrangement inequality must have nonempty boundary,
and the total-curvature precondition TC <= K < 1/C is checked against the
measured discrete curvature, not against trust in the caller.

Checks on one (mesh, field) pair share its work: the mesh keeps its
curvature, and the field (``mesh._derive``) its gradient norms, the exact
distribution function mu(t) = |{u > t}| of the P1 interpolant
(``mesh._distribution``), built once, and each number a check measures
from the pair alone (a gradient energy, the support area, the curvature
term, the largest interior |H|), so a repeated check makes no pass over
the triangles. Every integral a field check needs comes from mu: the L^p
norms, the entropy and the monotonicity integrals as the integral of g(t)
d(-mu), and the gradient energy of the rearrangement on any target, by
coarea, as the integral of I(mu)^p |mu'|^(1 - p) dt with I the target's
isoperimetric profile. No check samples the field.
"""

from __future__ import annotations

import csv
import inspect
import io
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import xlogy

from . import constants as const
from .analytic import RadialFunction, gn_extremal, radial_entropy, radial_gradient_lp, radial_lp
from .constants import IsoperimetricChoice, Reading
from .errors import (
    ConvergenceFailure,
    CurvatureBoundViolated,
    NotMinimal,
    OutOfRange,
    PsilabError,
    SpecInvalid,
    ZeroField,
    require_order,
)
from .measure_space import lebesgue, model_space
from .mesh import (
    TriMesh,
    VertexField,
    _distribution,
    _derive,
    _Levels,
    _region_tc,
    _require_boundary_vanishing,
    _require_field_length,
    boundary_measure,
    hausdorff_measure,
    mean_curvature,
    p1_gradient_lp,
)

__all__ = [
    "VerificationReport",
    "verify_polya_szego",
    "verify_model_space_ps",
    "verify_isoperimetric",
    "superlevel_region",
    "verify_p_sobolev",
    "verify_gn",
    "select_egn_reading",
    "verify_spectral_gap",
    "verify_log_sobolev",
    "verify_michael_simon_p1",
    "MonotoneSpec",
    "monotone_preset",
    "verify_monotonicity_principle",
    "reports_to_csv",
    "CHECKS",
]

REPORT_SCHEMA_VERSION = 1
_MESH_TOLERANCE = 0.01  # the discretization allowance of a mesh check that is given no tolerance


@dataclass
class VerificationReport:
    """Verdict for one inequality check.

    ``direction`` is "le" for claims of the form lhs <= rhs and "ge" for
    lower bounds (the spectral gap); the pass rule allows a relative slack
    of tol*|rhs| on the favorable side (entropy right-hand sides can be
    negative, so the slack is anchored to |rhs|, not rhs). ``ratio`` is
    always lhs/rhs and is recorded on failure too.
    """

    inequality_id: str
    lhs: float
    rhs: float
    tolerance: float
    inputs: dict = field(default_factory=dict)
    direction: str = "le"
    vacuous: bool = False
    notes: str = ""

    def __post_init__(self):
        if self.direction not in ("le", "ge"):
            raise ValueError("direction must be 'le' or 'ge'")
        _require_tolerance(self.tolerance)

    @property
    def ratio(self) -> float:
        if self.rhs == 0.0:
            return math.inf if self.lhs > 0 else 1.0
        return self.lhs / self.rhs

    @property
    def passed(self) -> bool:
        if self.vacuous:
            return True
        slack = self.tolerance * abs(self.rhs)
        if self.direction == "le":
            return self.lhs <= self.rhs + slack
        return self.lhs >= self.rhs - slack

    def as_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "inequality_id": self.inequality_id,
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "ratio": float(self.ratio),
            "pass": bool(self.passed),
            "tolerance": self.tolerance,
            "direction": self.direction,
            "vacuous": self.vacuous,
            "notes": self.notes,
            "inputs": self.inputs,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        obj = json.loads(text)
        return cls(
            inequality_id=obj["inequality_id"],
            lhs=obj["lhs"],
            rhs=obj["rhs"],
            tolerance=obj["tolerance"],
            inputs=obj.get("inputs", {}),
            direction=obj.get("direction", "le"),
            vacuous=obj.get("vacuous", False),
            notes=obj.get("notes", ""),
        )


def reports_to_csv(reports: Sequence[VerificationReport]) -> str:
    """Summary CSV: one row per report with the key parameters inlined, and a field check's level counts."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["inequality_id", "n", "p", "q", "K", "lhs", "rhs", "ratio", "pass", "levels", "merged_levels"])
    for r in reports:
        w.writerow(
            [
                r.inequality_id,
                r.inputs.get("n", ""),
                r.inputs.get("p", ""),
                r.inputs.get("q", ""),
                r.inputs.get("K", ""),
                repr(float(r.lhs)),
                repr(float(r.rhs)),
                repr(float(r.ratio)),
                int(r.passed),
                r.inputs.get("levels", ""),
                r.inputs.get("merged_levels", ""),
            ]
        )
    return out.getvalue()


# ---------------------------------------------------------------------------
# shared preconditions


def _require_tolerance(tolerance: float):
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance}")


def _require_tc_bound(tc: float, K: float, what: str):
    # absolute slack absorbs curvature noise on numerically flat meshes
    if tc > K * (1.0 + 1e-9) + 1e-8:
        raise CurvatureBoundViolated(
            f"{what} total mean curvature {tc} exceeds the declared bound K = {K}"
        )


def _require_field(mesh: TriMesh, f: VertexField | None):
    if f is None:
        raise ValueError("mesh input needs a field")
    _require_field_length(mesh, f.values)


def _check_inputs(mesh, f, K, choice, tolerance) -> float:
    """Refuse a missing field or one of another length, a closed surface, K outside [0, 1/C), total
    curvature above K and a field not vanishing on the boundary; return the report tolerance."""
    _require_field(mesh, f)
    if mesh.is_closed():
        raise CurvatureBoundViolated(
            "closed surface: the rearrangement inequality requires nonempty boundary"
        )
    const._check_curvature_bound(K, choice.value(mesh.n))
    _require_tc_bound(mean_curvature(mesh).total, K, "measured")
    _require_boundary_vanishing(mesh, f.values)
    return _tolerance(tolerance)


def _tolerance(tolerance: float | None) -> float:
    return _MESH_TOLERANCE if tolerance is None else tolerance


def _lp_norm(mu: _Levels, p: float) -> float:
    return mu.integral(lambda v: v**p) ** (1.0 / p)


def _field_inputs(mu: _Levels, **inputs) -> dict:
    """A field check's report inputs, ending in the level count after merging and the merges made."""
    return {**inputs, "levels": int(mu.levels.size), "merged_levels": mu.merged}


# ---------------------------------------------------------------------------
# rearrangement inequalities


def verify_polya_szego(
    mesh: TriMesh,
    f: VertexField,
    p: float,
    K: float,
    choice: IsoperimetricChoice,
    tolerance: float | None = None,
) -> VerificationReport:
    """Gradient p-norm of the planar rearrangement vs the surface gradient p-norm
    scaled by the rearrangement constant. Both sides are p-th-root norms."""
    tol = _check_inputs(mesh, f, K, choice, tolerance)
    mu = _distribution(mesh, f)
    lhs = mu.rearranged_energy(p, lebesgue(mesh.n)) ** (1.0 / p)
    rhs = const.ps_constant(mesh.n, K, choice) * p1_gradient_lp(mesh, f, p) ** (1.0 / p)
    return VerificationReport(
        "PolyaSzego",
        lhs,
        rhs,
        tol,
        inputs=_field_inputs(mu, n=mesh.n, p=p, K=K, iso=choice.label()),
    )


def verify_model_space_ps(
    mesh: TriMesh,
    f: VertexField,
    p: float,
    K: float,
    choice: IsoperimetricChoice,
    tolerance: float | None = None,
) -> VerificationReport:
    """Model-space rearrangement energy vs the raw surface gradient p-integral.

    The model-space energy is in truth an infimum over approximating
    sequences; the energy of the field's own rearrangement bounds it from
    above, so a pass here is conclusive while a failure would be
    inconclusive.
    """
    tol = _check_inputs(mesh, f, K, choice, tolerance)
    mu = _distribution(mesh, f)
    lhs = mu.rearranged_energy(p, model_space(mesh.n, K, choice.value(mesh.n)))
    rhs = p1_gradient_lp(mesh, f, p)
    return VerificationReport(
        "PolyaSzegoModelSpace",
        lhs,
        rhs,
        tol,
        inputs=_field_inputs(mu, n=mesh.n, p=p, K=K, iso=choice.label()),
        notes="lhs is the rearrangement's energy, an upper bound for the model-space infimum",
    )


# ---------------------------------------------------------------------------
# isoperimetric inequality


def superlevel_region(mesh: TriMesh, f: VertexField, t: float) -> np.ndarray:
    """Triangle indices where the P1 field exceeds t at all three corners."""
    vals = f.values[mesh.triangles]
    return np.nonzero(np.all(vals > t, axis=1))[0]


def verify_isoperimetric(
    mesh: TriMesh,
    K: float,
    choice: IsoperimetricChoice,
    regions: Sequence[np.ndarray] | None = None,
    tolerance: float | None = None,
) -> list[VerificationReport]:
    """area^(1/2) <= I(2, K) * boundary length, one report per triangle region (by default the whole mesh, from
    its kept areas, boundary and curvature)."""
    const._check_curvature_bound(K, choice.value(mesh.n))
    curv = mean_curvature(mesh)
    out = []
    for region in [None] if regions is None else regions:
        size = len(mesh.triangles) if region is None else np.size(region)
        _require_tc_bound(_region_tc(mesh, curv, region), K, "region")
        area = hausdorff_measure(mesh, region)
        lhs = math.sqrt(area)
        rhs = const.iso_constant(mesh.n, K, choice) * boundary_measure(mesh, region)
        out.append(
            VerificationReport(
                "Isoperimetric",
                lhs,
                rhs,
                _tolerance(tolerance),
                inputs={"n": mesh.n, "K": K, "iso": choice.label(), "triangles": size},
            )
        )
    return out


# ---------------------------------------------------------------------------
# Sobolev-type inequalities


def verify_p_sobolev(
    mesh: TriMesh,
    f: VertexField,
    p: float,
    K: float,
    choice: IsoperimetricChoice,
    tolerance: float | None = None,
) -> VerificationReport:
    """L^(p*) norm of the field vs S(n, p, K) times the gradient p-norm, p in (1, n)."""
    const._check_p_range(mesh.n, p)
    tol = _check_inputs(mesh, f, K, choice, tolerance)
    mu = _distribution(mesh, f)
    lhs = _lp_norm(mu, const.sobolev_conjugate(mesh.n, p))
    s_const = const.talenti_constant(mesh.n, p) * const.ps_constant(mesh.n, K, choice)
    rhs = s_const * p1_gradient_lp(mesh, f, p) ** (1.0 / p)
    return VerificationReport(
        "PSobolev",
        lhs,
        rhs,
        tol,
        inputs=_field_inputs(mu, n=mesh.n, p=p, K=K, iso=choice.label()),
    )


def verify_gn(
    obj,
    p: float,
    q: float,
    K: float = 0.0,
    choice: IsoperimetricChoice | None = None,
    reading: Reading = Reading.CORRECTED,
    f: VertexField | None = None,
    tolerance: float | None = None,
) -> VerificationReport:
    """Gagliardo-Nirenberg: ||u||_r <= GN * ||grad u||_p^theta * ||u||_q^(1-theta).

    A RadialFunction input checks the pure Euclidean inequality with the
    EGN constant alone; a mesh input multiplies in the rearrangement
    constant PS(n, K).
    """
    if isinstance(obj, RadialFunction):
        n = obj.n
        theta, r = const.gn_theta(n, p, q), const.gn_r_exponent(n, p, q)
        lhs, energy, norm_q = radial_lp(obj, r), radial_gradient_lp(obj, p), radial_lp(obj, q)
        _require_double_range("GagliardoNirenberg", n, lhs=(lhs,), rhs=(energy, norm_q))
        rhs = const.egn_constant(n, p, q, reading) * (energy ** (1.0 / p)) ** theta * norm_q ** (1.0 - theta)
        return _radial_report("GagliardoNirenberg", lhs, rhs, tolerance, n=n, p=p, q=q, K=0.0, reading=reading.value)
    mesh: TriMesh = obj
    if choice is None or f is None:
        raise ValueError("mesh input needs an isoperimetric choice and a field")
    tol = _check_inputs(mesh, f, K, choice, tolerance)
    mu = _distribution(mesh, f)
    theta = const.gn_theta(mesh.n, p, q)
    lhs = _lp_norm(mu, const.gn_r_exponent(mesh.n, p, q))
    gn_const = const.egn_constant(mesh.n, p, q, reading) * const.ps_constant(mesh.n, K, choice)
    rhs = gn_const * p1_gradient_lp(mesh, f, p) ** (theta / p) * _lp_norm(mu, q) ** (1.0 - theta)
    return VerificationReport(
        "GagliardoNirenberg",
        lhs,
        rhs,
        tol,
        inputs=_field_inputs(mu, n=mesh.n, p=p, q=q, K=K, iso=choice.label(), reading=reading.value),
    )


def _require_double_range(check: str, n: int, **sides) -> None:
    """Refuse a radial side with a factor that underflowed to 0 or overflowed to inf, which would pass on rounding."""
    for side, values in sides.items():
        if not all(0.0 < abs(v) < math.inf for v in values):
            raise OutOfRange(f"{check} at n = {n}: the radial {side} leaves the double range")


def _radial_report(check: str, lhs: float, rhs: float, tolerance: float | None, **inputs) -> VerificationReport:
    """The report of a radial check, at tolerance 1e-6 unless given one; a side out of the double range is refused."""
    _require_double_range(check, inputs["n"], lhs=(lhs,), rhs=(rhs,))
    tol = 1e-6 if tolerance is None else tolerance
    return VerificationReport(check, lhs, rhs, tol, inputs={**inputs, "input": "radial"})


def select_egn_reading(n: int, p: float, q: float) -> Reading:
    """Pick the EGN reading under which the explicit extremal attains equality.

    The literal printed constant either hits a gamma pole or misses the
    extremal equality by a wide margin; whichever reading brings the
    extremal's two sides within 1e-4 relative is returned.
    """
    v = gn_extremal(n, p, q)
    best = None
    for reading in (Reading.CORRECTED, Reading.LITERAL):
        try:
            rep = verify_gn(v, p, q, reading=reading)
        except (PsilabError, ArithmeticError):
            continue
        if abs(rep.ratio - 1.0) < 1e-4:
            return reading
        if best is None:
            best = reading
    if best is None:
        raise ConvergenceFailure("neither EGN reading is evaluable at these parameters")
    return best


def verify_spectral_gap(
    mesh: TriMesh,
    f: VertexField,
    K: float,
    choice: IsoperimetricChoice,
    reading: Reading = Reading.CORRECTED,
    tolerance: float | None = None,
) -> VerificationReport:
    """Rayleigh quotient of the field vs the spectral-gap constant over the
    support area. This is a lower bound, so the report direction is 'ge'."""
    tol = _check_inputs(mesh, f, K, choice, tolerance)
    if not np.any(f.values > 0):
        raise ZeroField("spectral-gap check needs a nonzero field")
    area = _derive(mesh, f, "support_area", lambda: float(
        mesh.triangle_areas()[np.any(f.values[mesh.triangles] > 0, axis=1)].sum()))
    if area == 0.0:
        raise ZeroField("spectral-gap check needs a field positive on some triangle; its support area is 0")
    mu = _distribution(mesh, f)
    lhs = p1_gradient_lp(mesh, f, 2) / mu.integral(np.square)
    g = const.spectral_gap_constant(mesh.n, K, choice, reading)
    rhs = g / area
    # the bound blows up as the support shrinks: record the scaling trend
    trend = {f"rhs_at_area_fraction_{frac}": g / (frac * area) for frac in (1.0, 0.5, 0.25)}
    return VerificationReport(
        "SpectralGap",
        lhs,
        rhs,
        tol,
        direction="ge",
        inputs=_field_inputs(
            mu, n=mesh.n, K=K, iso=choice.label(), reading=reading.value, support_area=area, **trend
        ),
    )


_FLATNESS_THRESHOLD = 1e-2


def _max_interior_h(curv) -> float:
    interior = ~curv.boundary_mask
    return float(curv.h_norm[interior].max()) if np.any(interior) else 0.0


def verify_log_sobolev(
    obj,
    p: float,
    f: VertexField | None = None,
    tolerance: float | None = None,
) -> VerificationReport:
    """Entropy of a unit-L^p function vs (n/p) ln(LS(n, p) * gradient p-integral).

    Mesh inputs must be numerically minimal (max interior |H| below a
    flatness threshold); the field is renormalized to unit L^p internally.
    """
    if isinstance(obj, RadialFunction):
        n = obj.n
        const._check_p_range(n, p)
        c = radial_lp(obj, p)
        if not math.isfinite(c) or c <= 0:
            raise ZeroField("cannot normalize: L^p norm is zero or infinite")
        log_c = math.log(c)
        unit = replace(obj, log_value=lambda r: obj.log_value(r) - log_c, log_slope=lambda r: obj.log_slope(r) - log_c)
        energy = const.log_sobolev_constant(n, p) * radial_gradient_lp(unit, p)
        _require_double_range("LogSobolev", n, rhs=(energy,))
        return _radial_report("LogSobolev", radial_entropy(unit, p), (n / p) * math.log(energy), tolerance, n=n, p=p)
    mesh: TriMesh = obj
    _require_field(mesh, f)
    const._check_p_range(mesh.n, p)
    h_max = _derive(mesh, f, "max_interior_h", lambda: _max_interior_h(mean_curvature(mesh)))
    if h_max > _FLATNESS_THRESHOLD:
        raise NotMinimal(
            f"max interior |H| = {h_max} exceeds the minimal-surface threshold {_FLATNESS_THRESHOLD}"
        )
    _require_boundary_vanishing(mesh, f.values)
    mu = _distribution(mesh, f)
    c = _lp_norm(mu, p)
    if c <= 0:
        raise ZeroField("cannot normalize a zero field")

    def entropy(v):  # w^p log w of w = v / c, 0 where v = 0
        w = v / c
        return xlogy(w**p, w, out=w)

    lhs = p * mu.integral(entropy)
    energy = p1_gradient_lp(mesh, f, p) / c**p
    rhs = (mesh.n / p) * math.log(const.log_sobolev_constant(mesh.n, p) * energy)
    return VerificationReport(
        "LogSobolev",
        lhs,
        rhs,
        _tolerance(tolerance),
        inputs=_field_inputs(mu, n=mesh.n, p=p, max_interior_h=h_max),
    )


def _curvature_term(curv, f: VertexField) -> float:
    """The sum of A_i |H_i| u_i over the interior vertices."""
    interior = ~curv.boundary_mask
    return float(np.sum(curv.vertex_areas[interior] * curv.h_norm[interior] * f.values[interior]))


def verify_michael_simon_p1(
    mesh: TriMesh,
    f: VertexField,
    choice: IsoperimetricChoice,
    tolerance: float | None = None,
) -> VerificationReport:
    """The p = 1 rearrangement bound with the curvature term on the right:
    no total-curvature assumption, so closed surfaces are allowed."""
    _require_field(mesh, f)
    mu = _distribution(mesh, f)
    lhs = mu.rearranged_energy(1.0, lebesgue(mesh.n))
    curvature_term = _derive(mesh, f, "curvature_term", lambda: _curvature_term(mean_curvature(mesh), f))
    c = choice.euclidean_product(mesh.n)
    rhs = c * (p1_gradient_lp(mesh, f, 1.0) + curvature_term)
    return VerificationReport(
        "MichaelSimonP1",
        lhs,
        rhs,
        _tolerance(tolerance),
        inputs=_field_inputs(mu, n=mesh.n, p=1.0, iso=choice.label()),
    )


# ---------------------------------------------------------------------------
# monotonicity principle


@dataclass
class MonotoneSpec:
    """Data of a first-order integral inequality.

    ``f`` and ``phi`` are continuous strictly increasing maps vanishing at
    zero; they must accept numpy arrays, since the verifier applies them
    elementwise to the field's levels in one call. ``g_terms`` and ``psi_terms``
    are (coefficient, exponent) lists with coefficients respectively <= 0
    and >= 0 and exponents >= 1 in strictly increasing order; ``L(s, t)``
    must be non-increasing and ``lam(s, t)`` non-decreasing in t. Sign and
    exponent conditions are validated at construction, monotonicity of L
    and lam is trusted.
    """

    f: Callable
    phi: Callable
    g_terms: Sequence[tuple[float, float]]
    psi_terms: Sequence[tuple[float, float]]
    L: Callable
    lam: Callable
    name: str = "custom"

    def __post_init__(self):
        for b, e in self.g_terms:
            if b > 0:
                raise SpecInvalid(f"g coefficient {b} must be <= 0")
            if e < 1:
                raise SpecInvalid(f"g exponent {e} must be >= 1")
        for c, e in self.psi_terms:
            if c < 0:
                raise SpecInvalid(f"psi coefficient {c} must be >= 0")
            if e < 1:
                raise SpecInvalid(f"psi exponent {e} must be >= 1")
        for terms, label in ((self.g_terms, "g"), (self.psi_terms, "psi")):
            exps = [e for _, e in terms]
            if any(e2 <= e1 for e1, e2 in zip(exps, exps[1:])):
                raise SpecInvalid(f"{label} exponents must be strictly increasing")
        for fn, label in ((self.f, "f"), (self.phi, "phi")):
            if fn(0.0) != 0.0:
                raise SpecInvalid(f"{label}(0) must be 0")
            probe = [fn(t) for t in (0.25, 0.5, 1.0, 2.0)]
            if any(y2 <= y1 for y1, y2 in zip(probe, probe[1:])):
                raise SpecInvalid(f"{label} must be strictly increasing")


def monotone_preset(name: str, n: int = 2, p: float | None = None) -> MonotoneSpec:
    """Named instantiations: 'sobolev-l1' recovers the isoperimetric /
    L^1-Sobolev functional form, 'p-sobolev' the p-Sobolev inequality."""
    const._check_dimension(n)
    if name == "sobolev-l1":
        ex = const.sobolev_conjugate(n, 1.0)
        return MonotoneSpec(
            f=lambda v: v**ex,
            phi=lambda v: v,
            g_terms=[],
            psi_terms=[(1.0, 1.0)],
            L=lambda s, t: s ** (1.0 / ex),
            lam=lambda s, t: t,
            name=name,
        )
    if name == "p-sobolev":
        if p is None:
            raise ValueError("p-sobolev preset needs a p")
        ta = const.talenti_constant(n, p)  # refuses a p outside (1, n)
        p_star = const.sobolev_conjugate(n, p)
        return MonotoneSpec(
            f=lambda v: v**p_star,
            phi=lambda v: v,
            g_terms=[],
            psi_terms=[(1.0, p)],
            L=lambda s, t: s ** (p / p_star),
            lam=lambda s, t: ta**p * t,
            name=name,
        )
    raise ValueError(f"unknown preset {name!r}")


def verify_monotonicity_principle(
    mesh: TriMesh,
    f: VertexField,
    spec: MonotoneSpec,
    K: float,
    choice: IsoperimetricChoice,
    tolerance: float | None = None,
) -> VerificationReport:
    """Transfer of a first-order integral inequality from the rearrangement
    to the surface.

    The Euclidean hypothesis is first checked on the rearrangement v = u*;
    if v does not satisfy it the claim is vacuous and the report says so
    instead of failing. Otherwise both sides of the transferred inequality
    are evaluated with the gradient arguments scaled by the rearrangement
    constant.
    """
    tol = _check_inputs(mesh, f, K, choice, tolerance)
    ps = const.ps_constant(mesh.n, K, choice)
    mu = _distribution(mesh, f)
    # equimeasurable, v = u* and u have the same integrals of f and phi
    f_int, phi_int = mu.integral(spec.f), mu.integral(spec.phi)
    euclid = lebesgue(mesh.n)

    def rearranged_powers(terms):
        return sum((coef * mu.rearranged_energy(ex, euclid) for coef, ex in terms), 0.0)

    # Euclidean hypothesis on v = u*
    hyp_lhs = spec.L(f_int, rearranged_powers(spec.g_terms))
    hyp_rhs = spec.lam(phi_int, rearranged_powers(spec.psi_terms))
    inputs = _field_inputs(mu, n=mesh.n, K=K, iso=choice.label(), spec=spec.name)
    if hyp_lhs > hyp_rhs * (1.0 + tol):
        return VerificationReport(
            "MonotonicityPrinciple",
            hyp_lhs,
            hyp_rhs,
            tol,
            inputs=inputs,
            vacuous=True,
            notes="Euclidean hypothesis fails for the rearrangement; claim is vacuous",
        )
    # transferred claim on the surface, gradients scaled by PS
    g_int = sum(b * ps**e * p1_gradient_lp(mesh, f, e) for b, e in spec.g_terms)
    psi_int = sum(c * ps**e * p1_gradient_lp(mesh, f, e) for c, e in spec.psi_terms)
    lhs = spec.L(f_int, g_int)
    rhs = spec.lam(phi_int, psi_int)
    return VerificationReport("MonotonicityPrinciple", lhs, rhs, tol, inputs=inputs)


# ---------------------------------------------------------------------------
# check table


class Check(NamedTuple):
    """A check of ``CHECKS``: the name of its verifier in this module, looked up when the check runs (so a
    rebound attribute, a tracing wrapper say, is what runs); the keywords the verifier takes besides the mesh,
    read from its signature at import; and ``refuse(keywords)``, the check's own argument refusals, which raises
    on bad arguments and turns the ``spec`` name into the value the verifier takes."""

    verifier: str
    keywords: tuple[str, ...]
    refuse: Callable[[dict], None] = lambda kw: None

    def refuse_arguments(self, kw: dict):
        """Raise on bad arguments before any file is read, with the checks the verifier runs later and in
        the order it meets them: ``refuse``, then the order p and the tolerance. A ``reading`` name is first
        turned into its ``Reading``."""
        if "reading" in self.keywords:
            kw["reading"] = Reading(kw["reading"])
        self.refuse(kw)
        if "p" in self.keywords:
            require_order(kw["p"])
        if kw["tolerance"] is not None:
            _require_tolerance(kw["tolerance"])


def _check(verifier: str, *refuse: Callable[[dict], None]) -> Check:
    return Check(verifier, tuple(inspect.signature(globals()[verifier]).parameters)[1:], *refuse)


def _refuse_k(kw):
    const._check_curvature_bound(kw["K"], kw["choice"].value(TriMesh.n))


def _refuse_p_then_k(kw):
    const._check_p_range(TriMesh.n, kw["p"])
    _refuse_k(kw)


def _refuse_gn(kw):
    if kw["q"] is None:
        raise ValueError("gn check requires --q")
    _refuse_k(kw)
    const.egn_constant(TriMesh.n, kw["p"], kw["q"], kw["reading"])  # p, q domain; pole or complex literal


def _refuse_mono(kw):
    kw["spec"] = monotone_preset(kw["spec"], n=TriMesh.n, p=kw["p"] if kw["spec"] == "p-sobolev" else None)
    _refuse_k(kw)


CHECKS = {  # in the order the CLI lists them
    "ps": _check("verify_polya_szego", _refuse_k),
    "model": _check("verify_model_space_ps", _refuse_k),
    "iso": _check("verify_isoperimetric", _refuse_k),
    "sobolev": _check("verify_p_sobolev", _refuse_p_then_k),
    "gn": _check("verify_gn", _refuse_gn),
    "spectral": _check("verify_spectral_gap", _refuse_k),
    "logsob": _check("verify_log_sobolev", lambda kw: const._check_p_range(TriMesh.n, kw["p"])),
    "ms1": _check("verify_michael_simon_p1"),
    "mono": _check("verify_monotonicity_principle", _refuse_mono),
}
