"""Inequality verdict engine.

Each verifier assembles the two sides of one functional inequality from the
mesh / rearrangement / constants machinery and returns a VerificationReport.
The inequalities themselves are exact; the tolerance in a report is purely
a discretization allowance (5% at coarse sampling, 1% once the sampling
subdivision reaches 2), and the raw ratio is always recorded so a reader
can judge the margin independently of the verdict.

Closed surfaces are refused by the curvature-bounded verifiers: a surface
admissible for the rearrangement inequality must have nonempty boundary,
and the total-curvature precondition TC <= K < 1/C is checked against the
measured discrete curvature, not against trust in the caller.

Checks on one (mesh, field) pair share its work: the mesh keeps its
curvature and the field its rearranged profiles, while sample sets are
drawn once per check.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import constants as const
from .analytic import RadialFunction, radial_entropy, radial_gradient_lp, radial_lp
from .constants import EgnReading, IsoperimetricChoice, SpectralReading
from .errors import (
    ConvergenceFailure,
    CurvatureBoundViolated,
    NotMinimal,
    PsilabError,
    SpecInvalid,
    ZeroField,
    require_order,
)
from .measure_space import (
    Interpolation,
    RadialProfile,
    _radial_integral,
    gradient_energy,
    lebesgue,
    lp_norm,
    model_space,
    rearrange,
)
from .mesh import (
    TriMesh,
    VertexField,
    _region_tc,
    _require_boundary_vanishing,
    _require_field_length,
    _require_subdivision,
    boundary_measure,
    hausdorff_measure,
    mean_curvature,
    p1_gradient_lp,
    sample_field,
)

__all__ = [
    "VerificationReport",
    "default_tolerance",
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


def default_tolerance(subdivision: int) -> float:
    """Discretization allowance: 5% below sampling level 2, 1% from level 2 on."""
    return 0.01 if subdivision >= 2 else 0.05


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
    """Summary CSV: one row per report with the key parameters inlined."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["inequality_id", "n", "p", "q", "K", "lhs", "rhs", "ratio", "pass"])
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


def _check_inputs(mesh, f, K, choice, subdivision, tolerance) -> float:
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
    return default_tolerance(subdivision) if tolerance is None else tolerance


def _rearranged_profile(mesh, f, subdivision, target, samples=None) -> RadialProfile:
    """Piecewise-linear rearrangement of f's samples (``samples`` if drawn), kept read-only on f per (mesh,
    subdivision, target)."""
    kept = f._profiles.get((subdivision, target))
    if kept is None or kept[0] is not mesh:
        samples = sample_field(mesh, f, subdivision) if samples is None else samples
        profile = rearrange(samples, target, Interpolation.PIECEWISE_LINEAR)
        profile.radii.setflags(write=False)
        profile.values.setflags(write=False)
        kept = f._profiles[subdivision, target] = (mesh, profile)
    return kept[1]


# ---------------------------------------------------------------------------
# rearrangement inequalities


def verify_polya_szego(
    mesh: TriMesh,
    f: VertexField,
    p: float,
    K: float,
    choice: IsoperimetricChoice,
    subdivision: int = 2,
    tolerance: float | None = None,
) -> VerificationReport:
    """Gradient p-norm of the planar rearrangement vs the surface gradient p-norm
    scaled by the rearrangement constant. Both sides are p-th-root norms."""
    tol = _check_inputs(mesh, f, K, choice, subdivision, tolerance)
    profile = _rearranged_profile(mesh, f, subdivision, lebesgue(mesh.n))
    lhs = gradient_energy(profile, p) ** (1.0 / p)
    rhs = const.ps_constant(mesh.n, K, choice) * p1_gradient_lp(mesh, f, p) ** (1.0 / p)
    return VerificationReport(
        "PolyaSzego",
        lhs,
        rhs,
        tol,
        inputs={"n": mesh.n, "p": p, "K": K, "iso": choice.label(), "subdivision": subdivision},
    )


def verify_model_space_ps(
    mesh: TriMesh,
    f: VertexField,
    p: float,
    K: float,
    choice: IsoperimetricChoice,
    subdivision: int = 2,
    tolerance: float | None = None,
) -> VerificationReport:
    """Model-space rearrangement energy vs the raw surface gradient p-integral.

    The model-space energy is in truth an infimum over approximating
    sequences; the piecewise-linear representative bounds it from above, so
    a pass here is conclusive while a failure would be inconclusive.
    """
    tol = _check_inputs(mesh, f, K, choice, subdivision, tolerance)
    target = model_space(mesh.n, K, choice.value(mesh.n))
    profile = _rearranged_profile(mesh, f, subdivision, target)
    lhs = gradient_energy(profile, p)
    rhs = p1_gradient_lp(mesh, f, p)
    return VerificationReport(
        "PolyaSzegoModelSpace",
        lhs,
        rhs,
        tol,
        inputs={"n": mesh.n, "p": p, "K": K, "iso": choice.label(), "subdivision": subdivision},
        notes="lhs is the representative's energy, an upper bound for the model-space infimum",
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
    """area^(1/2) <= I(2, K) * boundary length, one report per triangle region (by default the whole mesh;
    tolerance 0.01 by default)."""
    const._check_curvature_bound(K, choice.value(mesh.n))
    curv = mean_curvature(mesh)
    out = []
    for region in [np.arange(len(mesh.triangles))] if regions is None else regions:
        region = np.asarray(region, dtype=int)
        _require_tc_bound(_region_tc(mesh, curv, region), K, "region")
        area = hausdorff_measure(mesh, region)
        lhs = math.sqrt(area)
        rhs = const.iso_constant(mesh.n, K, choice) * boundary_measure(mesh, region)
        out.append(
            VerificationReport(
                "Isoperimetric",
                lhs,
                rhs,
                0.01 if tolerance is None else tolerance,
                inputs={"n": mesh.n, "K": K, "iso": choice.label(), "triangles": int(region.size)},
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
    subdivision: int = 2,
    tolerance: float | None = None,
) -> VerificationReport:
    """L^(p*) norm of the field vs S(n, p, K) times the gradient p-norm, p in (1, n)."""
    const._check_p_range(mesh.n, p)
    tol = _check_inputs(mesh, f, K, choice, subdivision, tolerance)
    p_star = const.sobolev_conjugate(mesh.n, p)
    dmf = sample_field(mesh, f, subdivision)
    lhs = lp_norm(dmf, p_star)
    s_const = const.talenti_constant(mesh.n, p) * const.ps_constant(mesh.n, K, choice)
    rhs = s_const * p1_gradient_lp(mesh, f, p) ** (1.0 / p)
    return VerificationReport(
        "PSobolev",
        lhs,
        rhs,
        tol,
        inputs={"n": mesh.n, "p": p, "K": K, "iso": choice.label(), "subdivision": subdivision},
    )


def verify_gn(
    obj,
    p: float,
    q: float,
    K: float = 0.0,
    choice: IsoperimetricChoice | None = None,
    reading: EgnReading = EgnReading.GAMMA_CORRECTED,
    f: VertexField | None = None,
    subdivision: int = 2,
    tolerance: float | None = None,
) -> VerificationReport:
    """Gagliardo-Nirenberg: ||u||_r <= GN * ||grad u||_p^theta * ||u||_q^(1-theta).

    A RadialFunction input checks the pure Euclidean inequality with the
    EGN constant alone; a mesh input multiplies in the rearrangement
    constant PS(n, K).
    """
    if isinstance(obj, RadialFunction):
        n = obj.n
        theta = const.gn_theta(n, p, q)
        r = const.gn_r_exponent(n, p, q)
        lhs = radial_lp(obj, r)
        grad_norm = radial_gradient_lp(obj, p) ** (1.0 / p)
        rhs = const.egn_constant(n, p, q, reading) * grad_norm**theta * radial_lp(obj, q) ** (1.0 - theta)
        tol = 1e-6 if tolerance is None else tolerance
        return VerificationReport(
            "GagliardoNirenberg",
            lhs,
            rhs,
            tol,
            inputs={"n": n, "p": p, "q": q, "K": 0.0, "reading": reading.value, "input": "radial"},
        )
    mesh: TriMesh = obj
    if choice is None or f is None:
        raise ValueError("mesh input needs an isoperimetric choice and a field")
    tol = _check_inputs(mesh, f, K, choice, subdivision, tolerance)
    theta = const.gn_theta(mesh.n, p, q)
    r = const.gn_r_exponent(mesh.n, p, q)
    dmf = sample_field(mesh, f, subdivision)
    lhs = lp_norm(dmf, r)
    gn_const = const.egn_constant(mesh.n, p, q, reading) * const.ps_constant(mesh.n, K, choice)
    rhs = gn_const * p1_gradient_lp(mesh, f, p) ** (theta / p) * lp_norm(dmf, q) ** (1.0 - theta)
    return VerificationReport(
        "GagliardoNirenberg",
        lhs,
        rhs,
        tol,
        inputs={
            "n": mesh.n,
            "p": p,
            "q": q,
            "K": K,
            "iso": choice.label(),
            "reading": reading.value,
            "subdivision": subdivision,
        },
    )


def select_egn_reading(n: int, p: float, q: float) -> EgnReading:
    """Pick the EGN reading under which the explicit extremal attains equality.

    The literal printed constant either hits a gamma pole or misses the
    extremal equality by a wide margin; whichever reading brings the
    extremal's two sides within 1e-4 relative is returned.
    """
    from .analytic import gn_extremal

    v = gn_extremal(n, p, q)
    best = None
    for reading in (EgnReading.GAMMA_CORRECTED, EgnReading.LITERAL):
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
    reading: SpectralReading = SpectralReading.FABER_KRAHN_CONSISTENT,
    subdivision: int = 2,
    tolerance: float | None = None,
) -> VerificationReport:
    """Rayleigh quotient of the field vs the spectral-gap constant over the
    support area. This is a lower bound, so the report direction is 'ge'."""
    tol = _check_inputs(mesh, f, K, choice, subdivision, tolerance)
    if not np.any(f.values > 0):
        raise ZeroField("spectral-gap check needs a nonzero field")
    support = np.nonzero(np.any(f.values[mesh.triangles] > 0, axis=1))[0]
    area = hausdorff_measure(mesh, support)
    dmf = sample_field(mesh, f, subdivision)
    l2sq = lp_norm(dmf, 2) ** 2
    lhs = p1_gradient_lp(mesh, f, 2) / l2sq
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
        inputs={
            "n": mesh.n,
            "K": K,
            "iso": choice.label(),
            "reading": reading.value,
            "support_area": area,
            "subdivision": subdivision,
            **trend,
        },
    )


_FLATNESS_THRESHOLD = 1e-2


def verify_log_sobolev(
    obj,
    p: float,
    f: VertexField | None = None,
    subdivision: int = 2,
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
        scaled = RadialFunction(
            value=lambda r: obj.value(r) / c,
            derivative=lambda r: obj.derivative(r) / c,
            n=n,
            support=obj.support,
            log_value=(lambda r: obj.log_value(r) - math.log(c)) if obj.log_value else None,
        )
        lhs = radial_entropy(scaled, p)
        rhs = (n / p) * math.log(const.log_sobolev_constant(n, p) * radial_gradient_lp(scaled, p))
        tol = 1e-6 if tolerance is None else tolerance
        return VerificationReport(
            "LogSobolev", lhs, rhs, tol, inputs={"n": n, "p": p, "input": "radial"}
        )
    mesh: TriMesh = obj
    _require_field(mesh, f)
    const._check_p_range(mesh.n, p)
    curv = mean_curvature(mesh)
    interior = ~curv.boundary_mask
    h_max = float(curv.h_norm[interior].max()) if np.any(interior) else 0.0
    if h_max > _FLATNESS_THRESHOLD:
        raise NotMinimal(
            f"max interior |H| = {h_max} exceeds the minimal-surface threshold {_FLATNESS_THRESHOLD}"
        )
    _require_boundary_vanishing(mesh, f.values)
    dmf = sample_field(mesh, f, subdivision)
    c = lp_norm(dmf, p)
    if c <= 0:
        raise ZeroField("cannot normalize a zero field")
    v = dmf.values / c
    pos = v > 0
    v = v[pos]
    # w v^p p log v over the positive samples, in place to hold one sample-sized temporary
    terms = v**p
    terms *= dmf.weights[pos]
    terms *= p
    terms *= np.log(v, out=v)
    lhs = float(np.sum(terms))
    energy = p1_gradient_lp(mesh, f, p) / c**p
    rhs = (mesh.n / p) * math.log(const.log_sobolev_constant(mesh.n, p) * energy)
    tol = default_tolerance(subdivision) if tolerance is None else tolerance
    return VerificationReport(
        "LogSobolev",
        lhs,
        rhs,
        tol,
        inputs={"n": mesh.n, "p": p, "subdivision": subdivision, "max_interior_h": h_max},
    )


def verify_michael_simon_p1(
    mesh: TriMesh,
    f: VertexField,
    choice: IsoperimetricChoice,
    subdivision: int = 2,
    tolerance: float | None = None,
) -> VerificationReport:
    """The p = 1 rearrangement bound with the curvature term on the right:
    no total-curvature assumption, so closed surfaces are allowed."""
    _require_field(mesh, f)
    profile = _rearranged_profile(mesh, f, subdivision, lebesgue(mesh.n))
    lhs = gradient_energy(profile, 1.0)
    curv = mean_curvature(mesh)
    interior = ~curv.boundary_mask
    curvature_term = float(
        np.sum(curv.vertex_areas[interior] * curv.h_norm[interior] * f.values[interior])
    )
    c = choice.euclidean_product(mesh.n)
    rhs = c * (p1_gradient_lp(mesh, f, 1.0) + curvature_term)
    tol = default_tolerance(subdivision) if tolerance is None else tolerance
    return VerificationReport(
        "MichaelSimonP1",
        lhs,
        rhs,
        tol,
        inputs={"n": mesh.n, "p": 1.0, "iso": choice.label(), "subdivision": subdivision},
    )


# ---------------------------------------------------------------------------
# monotonicity principle


@dataclass
class MonotoneSpec:
    """Data of a first-order integral inequality.

    ``f`` and ``phi`` are continuous strictly increasing maps vanishing at
    zero; they must accept numpy arrays, since the verifier applies them
    elementwise to all samples in one call. ``g_terms`` and ``psi_terms``
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
        ex = n / (n - 1.0)
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


def _profile_gradient_powers(profile: RadialProfile, terms) -> float:
    return sum((coef * gradient_energy(profile, ex) for coef, ex in terms), 0.0)


def verify_monotonicity_principle(
    mesh: TriMesh,
    f: VertexField,
    spec: MonotoneSpec,
    K: float,
    choice: IsoperimetricChoice,
    subdivision: int = 2,
    tolerance: float | None = None,
) -> VerificationReport:
    """Transfer of a first-order integral inequality from the rearrangement
    to the surface.

    The Euclidean hypothesis is first checked on the rearranged profile v;
    if v does not satisfy it the claim is vacuous and the report says so
    instead of failing. Otherwise both sides of the transferred inequality
    are evaluated with the gradient arguments scaled by the rearrangement
    constant.
    """
    tol = _check_inputs(mesh, f, K, choice, subdivision, tolerance)
    ps = const.ps_constant(mesh.n, K, choice)
    dmf = sample_field(mesh, f, subdivision)  # the profile's samples too, when it is not kept
    profile = _rearranged_profile(mesh, f, subdivision, lebesgue(mesh.n), dmf)
    # Euclidean hypothesis on v = u*
    hyp_lhs = spec.L(_radial_integral(profile, spec.f), _profile_gradient_powers(profile, spec.g_terms))
    hyp_rhs = spec.lam(
        _radial_integral(profile, spec.phi), _profile_gradient_powers(profile, spec.psi_terms)
    )
    inputs = {"n": mesh.n, "K": K, "iso": choice.label(), "spec": spec.name, "subdivision": subdivision}
    if hyp_lhs > hyp_rhs * (1.0 + tol):
        return VerificationReport(
            "MonotonicityPrinciple",
            hyp_lhs,
            hyp_rhs,
            tol,
            inputs=inputs,
            vacuous=True,
            notes="Euclidean hypothesis fails for the rearranged profile; claim is vacuous",
        )
    # transferred claim on the surface, gradients scaled by PS
    f_int = float(np.sum(dmf.weights * spec.f(dmf.values)))
    phi_int = float(np.sum(dmf.weights * spec.phi(dmf.values)))
    g_int = sum(b * ps**e * p1_gradient_lp(mesh, f, e) for b, e in spec.g_terms)
    psi_int = sum(c * ps**e * p1_gradient_lp(mesh, f, e) for c, e in spec.psi_terms)
    lhs = spec.L(f_int, g_int)
    rhs = spec.lam(phi_int, psi_int)
    return VerificationReport("MonotonicityPrinciple", lhs, rhs, tol, inputs=inputs)


# ---------------------------------------------------------------------------
# check table


class Check(NamedTuple):
    """A check of ``CHECKS``: the name of its verifier in this module, looked up when the check runs (so a
    rebound attribute, a tracing wrapper say, is what runs); the keywords the verifier takes besides the
    mesh; and ``refuse(keywords)``, the check's own argument refusals, which raises on bad arguments and
    turns the ``reading`` and ``spec`` names into the values the verifier takes."""

    verifier: str
    keywords: tuple[str, ...]
    refuse: Callable[[dict], None] = lambda kw: None

    def refuse_arguments(self, kw: dict):
        """Raise on bad arguments before any file is read, with the checks the verifier runs later and in
        the order it meets them: ``refuse``, then the subdivision, the order p and the tolerance."""
        self.refuse(kw)
        if "subdivision" in self.keywords:
            _require_subdivision(kw["subdivision"])
        if "p" in self.keywords:
            require_order(kw["p"])
        if kw["tolerance"] is not None:
            _require_tolerance(kw["tolerance"])


def _refuse_k(kw):
    const._check_curvature_bound(kw["K"], kw["choice"].value(TriMesh.n))


def _refuse_p_then_k(kw):
    const._check_p_range(TriMesh.n, kw["p"])
    _refuse_k(kw)


def _refuse_gn(kw):
    if kw["q"] is None:
        raise ValueError("gn check requires --q")
    _refuse_k(kw)
    kw["reading"] = EgnReading(kw["reading"])
    const.egn_constant(TriMesh.n, kw["p"], kw["q"], kw["reading"])  # p, q domain; pole or complex literal


def _refuse_spectral(kw):
    _refuse_k(kw)
    kw["reading"] = SpectralReading(kw["reading"])


def _refuse_mono(kw):
    kw["spec"] = monotone_preset(kw["spec"], n=TriMesh.n, p=kw["p"] if kw["spec"] == "p-sobolev" else None)
    _refuse_k(kw)


_FIELD_P_K = ("f", "p", "K", "choice", "subdivision", "tolerance")
CHECKS = {  # in the order the CLI lists them
    "ps": Check("verify_polya_szego", _FIELD_P_K, _refuse_k),
    "model": Check("verify_model_space_ps", _FIELD_P_K, _refuse_k),
    "iso": Check("verify_isoperimetric", ("K", "choice", "tolerance"), _refuse_k),
    "sobolev": Check("verify_p_sobolev", _FIELD_P_K, _refuse_p_then_k),
    "gn": Check("verify_gn", ("q", "reading", *_FIELD_P_K), _refuse_gn),
    "spectral": Check(
        "verify_spectral_gap", ("f", "K", "choice", "reading", "subdivision", "tolerance"), _refuse_spectral
    ),
    "logsob": Check(
        "verify_log_sobolev", ("f", "p", "subdivision", "tolerance"), lambda kw: const._check_p_range(TriMesh.n, kw["p"])
    ),
    "ms1": Check("verify_michael_simon_p1", ("f", "choice", "subdivision", "tolerance")),
    "mono": Check(
        "verify_monotonicity_principle", ("f", "spec", "K", "choice", "subdivision", "tolerance"), _refuse_mono
    ),
}
