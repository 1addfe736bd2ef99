"""Closed-form oracles: parametric meshes, the sphere gradient-blowup family,
and the extremal radial functions of the sharp inequalities.

Everything here has an exact formula, so these objects calibrate the
discrete pipeline: the mesh generators feed the curvature and gradient
kernels known answers, and the radial functions, held by the logarithms of
their values and slopes, reproduce the equality cases of the Sobolev-type
inequalities under one log-space quadrature at every n, which
``verify_radial_gn`` and ``verify_radial_log_sobolev`` report. The
structured meshes take their triangles from one numpy quad-grid helper.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.special import beta, betainc

from .constants import Reading, _check_gn_domain, _check_p_range, _gn_exponents, egn_constant, log_sobolev_constant
from .errors import DIVERGENT, ConvergenceFailure, OutOfRange, PsilabError, ZeroField, require_order
from .mesh import TriMesh
from .special_fn import log_unit_ball_volume
from .verify import VerificationReport, _quiet as _quiet_sides, _require_double_range

__all__ = [
    "RadialFunction",
    "make_sphere",
    "make_disk",
    "make_cap",
    "make_catenoid",
    "make_clifford_torus",
    "example51_field",
    "example51_profile",
    "example51_surface_lp",
    "example51_gradient_integrals",
    "gn_extremal",
    "logsobolev_extremal",
    "radial_lp",
    "radial_gradient_lp",
    "radial_entropy",
    "verify_radial_gn",
    "select_egn_reading",
    "verify_radial_log_sobolev",
]


# ---------------------------------------------------------------------------
# parametric surfaces


_ICO_T = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_VERTS = np.array(
    [
        (-1, _ICO_T, 0), (1, _ICO_T, 0), (-1, -_ICO_T, 0), (1, -_ICO_T, 0),
        (0, -1, _ICO_T), (0, 1, _ICO_T), (0, -1, -_ICO_T), (0, 1, -_ICO_T),
        (_ICO_T, 0, -1), (_ICO_T, 0, 1), (-_ICO_T, 0, -1), (-_ICO_T, 0, 1),
    ],
    dtype=float,
)
_ICO_FACES = np.array(
    [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ],
    dtype=int,
)


_SPHERES_KEPT = 8  # icospheres one process keeps, the most recently used (subdiv, radius) pairs


def make_sphere(subdiv: int = 3, radius: float = 1.0) -> TriMesh:
    """Icosphere: midpoint-subdivided icosahedron projected to the sphere.

    Each level splits every face (a, b, c) into (a, ab, ca), (ab, b, bc),
    (ca, bc, c), (ab, bc, ca); the edge midpoints are numbered after the
    existing vertices in the order the faces first meet their edges. Equal
    arguments return the same read-only mesh, built once per process.
    """
    return _icosphere(subdiv, radius)


@functools.lru_cache(maxsize=_SPHERES_KEPT)
def _icosphere(subdiv: int, radius: float) -> TriMesh:
    if subdiv < 0:
        raise ValueError("subdiv must be >= 0")
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS[0])
    faces = _ICO_FACES
    for _ in range(subdiv):
        nv = len(verts)
        a, b, c = faces.T
        # the half-edges ab, bc, ca of every face, face by face
        starts = faces.ravel()
        ends = faces[:, [1, 2, 0]].ravel()
        keys = np.minimum(starts, ends) * nv + np.maximum(starts, ends)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        # number each edge's midpoint by the half-edge that meets it first
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        ab, bc, ca = (nv + rank[inverse]).reshape(-1, 3).T
        seen = first[order]
        mids = 0.5 * (verts[starts[seen]] + verts[ends[seen]])
        verts = np.vstack([verts, mids / np.linalg.norm(mids, axis=1, keepdims=True)])
        faces = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1).reshape(-1, 3)
    verts = verts / np.linalg.norm(verts, axis=1, keepdims=True)
    return TriMesh(radius * verts, faces)


def _circle(segments: int):
    """cos a and sin a at the angles a = 2 pi k / segments, k = 0 .. segments - 1."""
    a = 2.0 * math.pi * np.arange(segments) / segments
    return np.cos(a), np.sin(a)


def _rings(radii: np.ndarray, heights: np.ndarray, segments: int) -> np.ndarray:
    """Vertices (r cos a, r sin a, z), ring by ring, of the rings (r, z) at the ``_circle`` angles."""
    cos, sin = _circle(segments)
    return np.column_stack([np.outer(radii, cos).ravel(), np.outer(radii, sin).ravel(), np.repeat(heights, segments)])


def _quad_grid(rows: int, cols: int, closed: bool = False) -> np.ndarray:
    """Triangles (a, c, d), (a, d, b) of every quad a-b over c-d of a row-major grid.

    Vertex i * cols + k sits in row i, column k; the columns wrap around,
    and ``closed`` also joins the last row to the first.
    """
    i = np.arange(rows if closed else rows - 1)[:, None]
    k = np.arange(cols)
    a, b = i * cols + k, i * cols + (k + 1) % cols
    c, d = (i + 1) % rows * cols + k, (i + 1) % rows * cols + (k + 1) % cols
    return np.stack([a, c, d, a, d, b], axis=-1).reshape(-1, 3)


def _polar_grid(rings: int, segments: int | None):
    """Index layout of a pole-centered structured grid: pole + rings of fixed width."""
    if rings < 2:
        raise ValueError("rings must be >= 2")
    if segments is None:
        segments = max(16, 2 * rings)
    # fan around the pole (vertex 0), then the quads between rings; ring j starts at 1 + (j-1)*segments
    k = np.arange(segments)
    fan = np.stack([np.zeros_like(k), 1 + k, 1 + (k + 1) % segments], axis=1)
    return segments, np.vstack([fan, 1 + _quad_grid(rings, segments)])


def make_disk(radius: float = 1.0, rings: int = 16, segments: int | None = None) -> TriMesh:
    """Flat disk in the z = 0 plane, pole-centered polar triangulation."""
    if radius <= 0:
        raise ValueError("radius must be > 0")
    segments, tris = _polar_grid(rings, segments)
    r = radius * np.arange(1, rings + 1) / rings
    return TriMesh(np.vstack([[0.0, 0.0, 0.0], _rings(r, np.zeros(rings), segments)]), tris)


def make_cap(aperture: float, rings: int = 16, segments: int | None = None) -> TriMesh:
    """Spherical cap of the unit sphere: polar angle up to ``aperture`` radians."""
    if not 0 < aperture < math.pi:
        raise ValueError("aperture must lie in (0, pi)")
    segments, tris = _polar_grid(rings, segments)
    phi = aperture * np.arange(1, rings + 1) / rings
    return TriMesh(np.vstack([[0.0, 0.0, 1.0], _rings(np.sin(phi), np.cos(phi), segments)]), tris)


def make_catenoid(t_max: float = 1.0, nt: int = 24, ntheta: int = 48) -> TriMesh:
    """Catenoid band (cosh t cos a, cosh t sin a, t), |t| <= t_max: minimal, with boundary."""
    if t_max <= 0 or nt < 2 or ntheta < 3:
        raise ValueError("need t_max > 0, nt >= 2, ntheta >= 3")
    t = -t_max + 2.0 * t_max * np.arange(nt + 1) / nt
    cosh = np.array([math.cosh(x) for x in t.tolist()])  # np.cosh differs from libm in the last bit
    return TriMesh(_rings(cosh, t, ntheta), _quad_grid(nt + 1, ntheta))


def make_clifford_torus(subdiv: int = 32) -> TriMesh:
    """Clifford torus (cos s, sin s, cos t, sin t)/sqrt(2) in R^4, closed, codimension 2."""
    if subdiv < 3:
        raise ValueError("subdiv must be >= 3")
    n = subdiv
    circle = np.column_stack(_circle(n))  # vertex i * n + j is (circle[i], circle[j]) / sqrt(2)
    pts = np.hstack([np.repeat(circle, n, axis=0), np.tile(circle, (n, 1))]) / math.sqrt(2.0)
    return TriMesh(pts, _quad_grid(n, n, closed=True))


# ---------------------------------------------------------------------------
# the gradient-blowup family on the unit sphere


_LAMBDA_MAX = math.sqrt(sys.float_info.max)  # the largest lambda whose square is a double


def _check_lambda(lam, limit: float = sys.float_info.max) -> np.ndarray:
    """Refuse a blowup parameter lambda (a number or an array) that is not a finite number >= 1, or is one
    above ``limit`` (OutOfRange); return the array."""
    lam = np.asarray(lam, dtype=float)
    admissible = (1.0 <= lam) & (lam <= limit)
    if not admissible.all():
        bad = lam[~admissible].flat[0]
        if limit < bad < math.inf:
            raise OutOfRange(f"lambda must be at most {limit!r}, where lambda^2 leaves the double range, got {bad}")
        raise ValueError(f"lambda must be a finite number >= 1, got {bad}")
    return lam


def example51_field(lam, points):
    """Field on the unit sphere: lambda*r on the polar cap r <= 1/lambda
    (upper hemisphere), 1 everywhere else; r is the cylindrical radius.

    A scalar lambda gives one value per point (a float for a single point);
    an array of L lambdas gives an (L, N) array whose row k is the field of
    lambda k, bit for bit.
    """
    lam = _check_lambda(lam)[..., None]
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.hypot(pts[:, 0], pts[:, 1])
    on_cap = (pts[:, 2] > 0) & (r <= 1.0 / lam)
    out = np.where(on_cap, lam * r, 1.0)
    return out if np.ndim(points) > 1 else _shaped(out[..., 0])


def example51_profile(lam: float) -> "RadialFunction":
    """Exact planar rearrangement profile of the sphere field.

    rho(s) = 1 up to s0 = sqrt(2(1 + sqrt(1 - 1/lambda^2))), then lambda*sqrt(1 - w^2), w = s^2/2 - 1,
    out to the support radius 2. As 1 - w^2 = s^2 (2 - s)(2 + s) / 4, the outer band has
    rho = (lambda/2) s sqrt((2 - s)(2 + s)) and |rho'| = 2 lambda w / sqrt((2 - s)(2 + s)). lambda runs
    from 1 to ``_LAMBDA_MAX`` ~ 1.34e154, where its square leaves the double range.
    """
    _check_lambda(lam, _LAMBDA_MAX)
    s0 = math.sqrt(2.0 * (1.0 + math.sqrt(max(1.0 - 1.0 / lam**2, 0.0))))

    @_quiet
    def log_value(s):
        s = np.asarray(s, dtype=float)
        band = math.log(0.5 * lam) + np.log(s) + 0.5 * np.log((2.0 - s) * (2.0 + s))
        return np.where(s <= s0, 0.0, np.where(s < 2.0, band, -np.inf))

    @_quiet
    def log_slope(s):
        s = np.asarray(s, dtype=float)
        band = math.log(2.0 * lam) + np.log(0.5 * s * s - 1.0) - 0.5 * np.log((2.0 - s) * (2.0 + s))
        return np.where((s > s0) & (s < 2.0), band, -np.inf)

    return RadialFunction(log_value, log_slope, n=2, support=2.0, slope_start=s0, slope_pole=0.5)


def _blowup_args(lam, p):
    """lambda as an array, p as a Python float, x = 1/lambda^2 and 1 - w0 = x / (1 + sqrt(1 - x)), where
    w0 = sqrt(1 - x) is the cap edge's height (no cancellation). A lambda whose square overflows is refused:
    x would round to 0 and every term with it."""
    lam = _check_lambda(lam, _LAMBDA_MAX)
    x = 1.0 / (lam * lam)
    return lam, require_order(p), x, x / (1.0 + np.sqrt(1.0 - x))


def _shaped(a):
    """A 0-d result as a float, anything else as the array."""
    return float(a) if a.ndim == 0 else a


def _blowup_terms(lam, p: float):
    """(surface gradient p-energy, planar gradient p-energy or DIVERGENT, surface L^p integral) of the
    blowup field, the closed forms of ``example51_gradient_integrals`` and ``example51_surface_lp`` from one
    set-up of lambda; each is a numpy scalar for a scalar lambda, an array for an array. 2 pi lambda^p beyond
    the double range raises FloatingPointError, an ArithmeticError, for all three."""
    lam, p, x, one_minus_w0 = _blowup_args(lam, p)
    # log(w0^2); lambda = 1 puts w0 on 0, whose logarithm is -inf
    log_w0_sq = np.log1p(-x, out=np.full_like(x, -np.inf), where=x < 1.0)
    a = 0.5 * p + 1.0
    with np.errstate(over="raise"):
        lam_p = lam**p
        cap = math.pi * lam_p * beta(a, 0.5) * betainc(a, 0.5, x)
        scale = 2.0 * math.pi * lam_p
    surface = scale * -np.expm1(0.5 * (p + 1.0) * log_w0_sq) / (p + 1.0)
    surface_lp = 4.0 * math.pi - 2.0 * math.pi * one_minus_w0 + cap
    if p >= 2.0:
        return surface, DIVERGENT, surface_lp
    a, b = 1.0 - 0.5 * p, p + 1.0
    return surface, scale * 2.0 ** (0.5 * p) * beta(a, b) * betainc(a, b, one_minus_w0), surface_lp


def example51_surface_lp(lam, p: float):
    """Integral of u_lambda^p over the unit sphere, in closed form.

    The field is 1 off the polar cap, whose area is 2 pi (1 - w0). On the cap
    the surface element over the projected disk is dx dy / sqrt(1 - r^2), and
    t = r^2 turns 2 pi * integral of lambda^p r^(p+1) / sqrt(1 - r^2) over
    (0, 1/lambda) into pi lambda^p B(p/2 + 1, 1/2) I_x(p/2 + 1, 1/2) with
    x = 1/lambda^2 (DLMF 8.17). A scalar lambda gives a float, an array of
    lambda an array. lambda runs from 1 to ``_LAMBDA_MAX`` ~ 1.34e154, where
    its square leaves the double range.
    """
    return _shaped(_blowup_terms(lam, p)[2])


def example51_gradient_integrals(lam, p: float):
    """Gradient p-energies of the sphere field and of its planar rearrangement.

    surface: the tangential gradient of lambda*r on the sphere has magnitude
    lambda*cos(phi) (polar angle phi), and integrating its p-th power over
    the cap gives 2 pi lambda^p (1 - (1 - x)^((p+1)/2)) / (p+1) with
    x = 1/lambda^2, evaluated as -expm1(((p+1)/2) log1p(-x)) so that it
    keeps full precision at large lambda, where it behaves like
    pi lambda^(p-2).

    plane: 2 pi lambda^p 2^(p/2) * integral of w^p (1-w)^(-p/2) dw over
    (w0, 1), w0 = sqrt(1 - x), which is the incomplete beta function
    B(1 - p/2, p + 1) I_(1-w0)(1 - p/2, p + 1) (DLMF 8.17). The integrand
    behaves like (2 - s)^(-p/2) at the support radius, so the integral is
    classified divergent exactly when p >= 2, by the exponent test. Its
    leading term follows from I_y(a, b) ~ y^a / (a B(a, b)) with
    a = 1 - p/2 and y = 1 - w0 ~ 1/(2 lambda^2):
    2 pi lambda^p 2^(p/2) (2 lambda^2)^(p/2 - 1) / (1 - p/2)
    = 2^(p+1) / (2 - p) * pi lambda^(2p-2).

    A scalar lambda gives floats, an array of lambda arrays; the planar
    energy is the DIVERGENT marker for p >= 2 either way. lambda runs from
    1 to ``_LAMBDA_MAX`` ~ 1.34e154, where its square leaves the double range.
    """
    surface, plane, _ = _blowup_terms(lam, p)
    return _shaped(surface), plane if plane is DIVERGENT else _shaped(plane)


# ---------------------------------------------------------------------------
# radial functions, their integrals, the extremals and the checks of equality on them


@dataclass
class RadialFunction:
    """Non-increasing radial function u on R^n by its logarithms, which stay finite where u and u' leave
    the double range: ``log_value(r)`` = log u(r) and ``log_slope(r)`` = log|u'(r)| of a radius or an
    array of radii, each -inf where the quantity is 0. u > 0 below ``support``, which may be math.inf.
    u' = 0 below ``slope_start``, where u' may jump, and |u'| grows like (support - r)^(-slope_pole)
    at a finite support."""

    log_value: Callable
    log_slope: Callable
    n: int
    support: float = math.inf
    slope_start: float = 0.0
    slope_pole: float = 0.0

    def value(self, r):
        return np.exp(self.log_value(r))

    def derivative(self, r):  # u' = -|u'|, as u does not increase
        return -np.exp(self.log_slope(r))

    __call__ = value


_quiet = np.errstate(divide="ignore", over="ignore", invalid="ignore")  # for logarithms, -inf where functions vanish
_QUAD_OPTS = dict(epsabs=0.0, epsrel=1e-10, limit=400)


def _radial_quad(log_f, n: int, support: float, times_log: bool = False, cut: float = 0.0,
                 pole: float = 0.0) -> tuple[float, float]:
    """(peak, mass): exp(peak) * mass is the integral of exp(w(r)), times log_f(r) if ``times_log``, over
    0 < r < support, where w = log_f + log|S^(n-1)| + (n-1) log r. Three log-spaced grids of r, each between
    the neighbours of the last one's maximum, find the peak of w (a shift of 0 where they see only zeros),
    and ``quad`` integrates exp(w - peak) on either side of it and of ``cut``, a radius where log_f may
    jump, in the double range at every n. ``times_log`` takes log_f less its value at the peak, which keeps
    one sign on each side, plus that value times the mass. A ``pole`` in (0, 1) says exp(log_f) grows like
    (support - r)^(-pole) at a finite support: ``quad`` takes that factor as its algebraic weight on the
    last piece, where the rest is smooth and is read at the last double below the support. scipy.integrate
    is imported on the first call, not with the module: no CLI command integrates a radial function.
    """
    from scipy.integrate import quad

    r = np.geomspace(1e-16, 1.0, 65) * min(support, 1e8)
    for _ in range(3):  # each next grid spans the two steps around the maximum, 32 times narrower
        w = log_f(r) + (n - 1) * np.log(r)
        k = int(np.argmax(w))
        split, top = float(r[k]), (float(w[k]) if w[k] > -np.inf else 0.0)
        r = np.geomspace(r[max(k - 1, 0)], r[min(k + 1, 64)], 65)
    centre = float(log_f(split)) if times_log else 0.0
    edges = sorted({0.0, split, cut, support})
    below = math.nextafter(support, 0.0)

    def g(r, times, weighted):
        if weighted:
            r = min(r, below)
        lf = float(log_f(r))
        w = lf + (n - 1) * math.log(r) - top
        if weighted:
            w += pole * math.log(support - r)
        return math.exp(w) * (lf - centre if times else 1.0)

    def piece(a, b, times):
        if pole and b == support:
            return quad(g, a, b, (times, True), weight="alg", wvar=(0.0, -pole), **_QUAD_OPTS)[0]
        return quad(g, a, b, (times, False), **_QUAD_OPTS)[0]

    def integral(times):
        return sum(piece(a, b, times) for a, b in zip(edges, edges[1:]))

    mass = integral(False)
    return top + math.log(n) + log_unit_ball_volume(n), centre * mass + integral(True) if times_log else mass


def radial_lp(rf: RadialFunction, p: float) -> float:
    """L^p norm of a radial function on R^n."""
    p = require_order(p)
    peak, mass = _radial_quad(lambda r: p * rf.log_value(r), rf.n, rf.support)
    return math.exp(peak / p) * mass ** (1.0 / p)


_BAND_DOUBLES = 2**19  # the fewest doubles the band (slope_start, support) of a finite support must span


def radial_gradient_lp(rf: RadialFunction, p: float):
    """Integral of |u'|^p over R^n (not a norm), or the DIVERGENT marker where the pole of |u'|^p at the
    support is not integrable (p * slope_pole >= 1, the exponent test).

    Where u' lives only on a band (slope_start, support) that spans fewer than ``_BAND_DOUBLES`` doubles,
    ``quad``'s nodes there round to a coarse grid and the integral can be wrong by more than 1e-6 (the
    sphere blowup profile's band, 1/(4 lambda^2) wide, at lambda above about 5e4; it is empty from 1e8):
    OutOfRange is raised instead of a value.
    """
    p = require_order(p)
    pole = p * rf.slope_pole
    if pole >= 1.0:
        return DIVERGENT
    start, support = rf.slope_start, rf.support
    if 0.0 < start and support < math.inf and support - start < _BAND_DOUBLES * math.ulp(start):
        raise OutOfRange(f"|u'| lives on ({start!r}, {support!r}), fewer than {_BAND_DOUBLES} doubles wide: "
                         "its integral is below double resolution")
    peak, mass = _radial_quad(lambda r: p * rf.log_slope(r), rf.n, rf.support, cut=rf.slope_start, pole=pole)
    return math.exp(peak) * mass


def radial_entropy(rf: RadialFunction, p: float) -> float:
    """Integral of u^p ln(u^p) over R^n: the weight of the L^p norm times p log u."""
    p = require_order(p)
    peak, mass = _radial_quad(lambda r: p * rf.log_value(r), rf.n, rf.support, times_log=True)
    return math.exp(peak) * mass


def gn_extremal(n: int, p: float, q: float, a: float = 1.0, b: float = 1.0) -> RadialFunction:
    """Extremal of the sharp Gagliardo-Nirenberg inequality on R^n:
    a * (1 + b r^(p/(p-1)))^(-(p-1)/(q-p))."""
    p, q = _check_gn_domain(n, p, q)
    if a <= 0 or b <= 0:
        raise ValueError("need a > 0 and b > 0")
    pp = p / (p - 1.0)
    ex = (p - 1.0) / (q - p)

    @_quiet
    def log_value(r):
        return math.log(a) - ex * np.logaddexp(0.0, math.log(b) + pp * np.log(r))

    @_quiet
    def log_slope(r):  # |u'| = ex b pp r^(pp-1) u^(1+1/ex) / a^(1/ex)
        return math.log(ex * b * pp) + (pp - 1.0) * np.log(r) + (1.0 + 1.0 / ex) * log_value(r) - math.log(a) / ex

    return RadialFunction(log_value, log_slope, n)


def logsobolev_extremal(n: int, p: float, s: float) -> RadialFunction:
    """Extremal family of the sharp log-Sobolev inequality:
    C * exp(-(1/s) r^(p/(p-1))), normalized so the L^p norm is 1.

    The decaying (negative) exponent is used; the growing variant is not
    integrable and admits no normalizing constant.
    """
    p = _check_p_range(n, p)
    if s <= 0:
        raise ValueError("need s > 0")
    pp = p / (p - 1.0)
    # integral of exp(-(p/s) r^pp) * area * r^(n-1) dr, closed form via Gamma
    # substitution t = (p/s) r^pp gives (area/pp) * (s/p)^(n/pp) * Gamma(n/pp), taken in logs for large n
    log_raw = math.log(n / pp) + log_unit_ball_volume(n) + (n / pp) * math.log(s / p) + math.lgamma(n / pp)
    logC = -log_raw / p  # C itself leaves the double range near n = 2000 (p = 1.5, s = 1), so it stays a log

    @_quiet
    def log_value(r):
        return logC - np.asarray(r, dtype=float) ** pp / s

    @_quiet
    def log_slope(r):  # log((pp/s) r^(pp-1) u(r))
        return math.log(pp / s) + (pp - 1.0) * np.log(r) + log_value(r)

    return RadialFunction(log_value, log_slope, n)


def _radial_report(check: str, lhs: float, rhs: float, tolerance: float | None, **inputs) -> VerificationReport:
    """The report of a radial check, at tolerance 1e-6 unless given one; a side out of the double range is refused."""
    _require_double_range(check, inputs["n"], "radial", lhs=(lhs,), rhs=(rhs,))
    tol = 1e-6 if tolerance is None else tolerance
    return VerificationReport(check, lhs, rhs, tol, inputs={**inputs, "input": "radial"})


@_quiet_sides
def verify_radial_gn(rf: RadialFunction, p: float, q: float, reading: Reading = Reading.CORRECTED,
                     tolerance: float | None = None) -> VerificationReport:
    """Gagliardo-Nirenberg on R^n with the EGN constant alone, ||u||_r <= EGN * ||grad u||_p^theta *
    ||u||_q^(1-theta): an equality on ``gn_extremal``."""
    n = rf.n
    p, q, _, theta, r = _gn_exponents(n, p, q)
    lhs, energy, norm_q = radial_lp(rf, r), radial_gradient_lp(rf, p), radial_lp(rf, q)
    _require_double_range("GagliardoNirenberg", n, "radial", lhs=(lhs,), rhs=(energy, norm_q))
    rhs = egn_constant(n, p, q, reading) * (energy ** (1.0 / p)) ** theta * norm_q ** (1.0 - theta)
    return _radial_report("GagliardoNirenberg", lhs, rhs, tolerance, n=n, p=p, q=q, K=0.0, reading=reading.value)


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
            rep = verify_radial_gn(v, p, q, reading=reading)
        except (PsilabError, ArithmeticError):
            continue
        if abs(rep.ratio - 1.0) < 1e-4:
            return reading
        if best is None:
            best = reading
    if best is None:
        raise ConvergenceFailure("neither EGN reading is evaluable at these parameters")
    return best


@_quiet_sides
def verify_radial_log_sobolev(rf: RadialFunction, p: float, tolerance: float | None = None) -> VerificationReport:
    """Entropy of u / ||u||_p vs (n/p) ln(LS(n, p) * its gradient p-integral) on R^n: an equality on
    ``logsobolev_extremal``."""
    n = rf.n
    p = _check_p_range(n, p)
    c = radial_lp(rf, p)
    if not math.isfinite(c) or c <= 0:
        raise ZeroField("cannot normalize: L^p norm is zero or infinite")
    log_c = math.log(c)
    unit = replace(rf, log_value=lambda r: rf.log_value(r) - log_c, log_slope=lambda r: rf.log_slope(r) - log_c)
    energy = log_sobolev_constant(n, p) * radial_gradient_lp(unit, p)
    _require_double_range("LogSobolev", n, "radial", rhs=(energy,))
    return _radial_report("LogSobolev", radial_entropy(unit, p), (n / p) * math.log(energy), tolerance, n=n, p=p)
