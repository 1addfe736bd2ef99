"""Closed-form oracles: parametric meshes, the sphere gradient-blowup family,
and the extremal radial functions of the sharp inequalities.

Everything here has an exact formula, so these objects calibrate the
discrete pipeline: the mesh generators feed the curvature and gradient
kernels known answers, and the radial functions reproduce equality cases
of the Sobolev-type inequalities under adaptive quadrature. The structured
meshes (disk, cap, catenoid, Clifford torus) take their triangles from one
numpy quad-grid helper and their vertices from whole-array formulas.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import beta, betainc

from .constants import _check_gn_domain, _check_p_range
from .errors import DIVERGENT, require_order
from .mesh import TriMesh, VertexField
from .special_fn import log_unit_ball_volume, unit_ball_volume

__all__ = [
    "RadialFunction",
    "make_sphere",
    "make_disk",
    "make_cap",
    "make_catenoid",
    "make_clifford_torus",
    "make_surface",
    "example51_field",
    "example51_profile",
    "example51_surface_lp",
    "example51_gradient_integrals",
    "gn_extremal",
    "logsobolev_extremal",
    "radial_lp",
    "radial_gradient_lp",
    "radial_entropy",
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


def make_surface(kind: str, **kwargs) -> TriMesh:
    """Dispatch by name: sphere, disk, cap, catenoid, clifford-torus."""
    table = {
        "sphere": make_sphere,
        "disk": make_disk,
        "cap": make_cap,
        "catenoid": make_catenoid,
        "clifford-torus": make_clifford_torus,
    }
    if kind not in table:
        raise ValueError(f"unknown surface kind {kind!r}; choose from {sorted(table)}")
    return table[kind](**kwargs)


# ---------------------------------------------------------------------------
# the gradient-blowup family on the unit sphere


def _check_lambda(lam) -> np.ndarray:
    """Refuse a blowup parameter lambda (a number or an array) that is not a finite number >= 1; return the array."""
    lam = np.asarray(lam, dtype=float)
    admissible = (1.0 <= lam) & (lam < math.inf)
    if not admissible.all():
        raise ValueError(f"lambda must be a finite number >= 1, got {lam[~admissible].flat[0]}")
    return lam


def example51_field(lam: float, points) -> np.ndarray:
    """Field on the unit sphere: lambda*r on the polar cap r <= 1/lambda
    (upper hemisphere), 1 everywhere else; r is the cylindrical radius."""
    _check_lambda(lam)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    r = np.hypot(pts[:, 0], pts[:, 1])
    on_cap = (pts[:, 2] > 0) & (r <= 1.0 / lam)
    out = np.where(on_cap, lam * r, 1.0)
    return out if np.asarray(points).ndim > 1 else float(out[0])


def example51_vertex_field(lam: float, mesh: TriMesh) -> VertexField:
    return VertexField(example51_field(lam, mesh.vertices), mesh=mesh)


def _example51_s0(lam: float) -> float:
    return math.sqrt(2.0 * (1.0 + math.sqrt(max(1.0 - 1.0 / lam**2, 0.0))))


def example51_profile(lam: float) -> "RadialFunction":
    """Exact planar rearrangement profile of the sphere field.

    rho(s) = 1 up to s0 = sqrt(2(1 + sqrt(1 - 1/lambda^2))), then
    lambda*sqrt(1 - (s^2/2 - 1)^2) out to the support radius 2. With
    w = s^2/2 - 1 the derivative magnitude on the outer band is
    lambda*w*s/sqrt(1 - w^2).
    """
    _check_lambda(lam)
    s0 = _example51_s0(lam)

    def value(s):
        s = np.asarray(s, dtype=float)
        w = 0.5 * s * s - 1.0
        outer = lam * np.sqrt(np.maximum(1.0 - w * w, 0.0))
        return np.where(s <= s0, 1.0, np.where(s < 2.0, outer, 0.0))

    def derivative(s):
        s = np.asarray(s, dtype=float)
        w = 0.5 * s * s - 1.0
        denom = np.sqrt(np.maximum(1.0 - w * w, 1e-300))
        d = -lam * w * s / denom
        return np.where((s > s0) & (s < 2.0), d, 0.0)

    return RadialFunction(value=value, derivative=derivative, n=2, support=2.0)


def _blowup_args(lam, p):
    """lambda as an array, x = 1/lambda^2 and 1 - w0 = x / (1 + sqrt(1 - x)),
    where w0 = sqrt(1 - x) is the cap edge's height (no cancellation)."""
    lam = _check_lambda(lam)
    require_order(p)
    x = 1.0 / (lam * lam)
    return lam, x, x / (1.0 + np.sqrt(1.0 - x))


def _shaped(a):
    """A 0-d result as a float, anything else as the array."""
    return float(a) if a.ndim == 0 else a


def example51_surface_lp(lam, p: float):
    """Integral of u_lambda^p over the unit sphere, in closed form.

    The field is 1 off the polar cap, whose area is 2 pi (1 - w0). On the cap
    the surface element over the projected disk is dx dy / sqrt(1 - r^2), and
    t = r^2 turns 2 pi * integral of lambda^p r^(p+1) / sqrt(1 - r^2) over
    (0, 1/lambda) into pi lambda^p B(p/2 + 1, 1/2) I_x(p/2 + 1, 1/2) with
    x = 1/lambda^2 (DLMF 8.17). A scalar lambda gives a float, an array of
    lambda an array.
    """
    lam, x, one_minus_w0 = _blowup_args(lam, p)
    a = 0.5 * p + 1.0
    with np.errstate(over="raise"):
        cap = math.pi * lam**p * beta(a, 0.5) * betainc(a, 0.5, x)
    return _shaped(4.0 * math.pi - 2.0 * math.pi * one_minus_w0 + cap)


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
    energy is the DIVERGENT marker for p >= 2 either way.
    """
    lam, x, one_minus_w0 = _blowup_args(lam, p)
    # log(w0^2); lambda = 1 puts w0 on 0, whose logarithm is -inf
    log_w0_sq = np.log1p(-x, out=np.full_like(x, -np.inf), where=x < 1.0)
    with np.errstate(over="raise"):
        scale = 2.0 * math.pi * lam**p
    surface = _shaped(scale * -np.expm1(0.5 * (p + 1.0) * log_w0_sq) / (p + 1.0))
    if p >= 2.0:
        return surface, DIVERGENT
    a, b = 1.0 - 0.5 * p, p + 1.0
    plane = scale * 2.0 ** (0.5 * p) * beta(a, b) * betainc(a, b, one_minus_w0)
    return surface, _shaped(plane)


# ---------------------------------------------------------------------------
# radial functions and their integrals


@dataclass
class RadialFunction:
    """Radial function r -> value with a closed-form derivative.

    ``support`` may be math.inf; ``log_value``, when supplied, evaluates
    log(value) stably for entropy integrands whose plain value underflows.
    """

    value: Callable
    derivative: Callable
    n: int
    support: float = math.inf
    log_value: Callable | None = None

    def __call__(self, r):
        return self.value(r)


def _sphere_area_factor(n: int) -> float:
    return n * unit_ball_volume(n)


_QUAD_OPTS = dict(epsabs=0.0, epsrel=1e-10, limit=400)


def _radial_quad(fn, n: int, support: float) -> float:
    """Adaptive quadrature of fn(r) * n omega_n r^(n-1) dr over the support."""
    area = _sphere_area_factor(n)

    def g(r):
        return fn(r) * area * r ** (n - 1)

    if math.isinf(support):
        total, _ = quad(g, 0.0, math.inf, **_QUAD_OPTS)
    else:
        total, _ = quad(g, 0.0, support, **_QUAD_OPTS)
    return total


def radial_lp(rf: RadialFunction, p: float) -> float:
    """L^p norm of a radial function on R^n."""
    require_order(p)
    return _radial_quad(lambda r: float(rf.value(r)) ** p, rf.n, rf.support) ** (1.0 / p)


def radial_gradient_lp(rf: RadialFunction, p: float) -> float:
    """Integral of |rho'|^p over R^n (not a norm)."""
    require_order(p)
    return _radial_quad(lambda r: abs(float(rf.derivative(r))) ** p, rf.n, rf.support)


def radial_entropy(rf: RadialFunction, p: float) -> float:
    """Integral of u^p ln(u^p) over R^n.

    Where the function supplies log_value the integrand is evaluated as
    p * exp(p*L) * L, which stays finite long after u^p itself underflows.
    """
    require_order(p)
    if rf.log_value is not None:

        def fn(r):
            L = float(rf.log_value(r))
            ep = p * L
            return p * math.exp(ep) * L if ep > -700.0 else 0.0

    else:

        def fn(r):
            v = float(rf.value(r))
            if v <= 0.0:
                return 0.0
            return p * v**p * math.log(v)

    return _radial_quad(fn, rf.n, rf.support)


def gn_extremal(n: int, p: float, q: float, a: float = 1.0, b: float = 1.0) -> RadialFunction:
    """Extremal of the sharp Gagliardo-Nirenberg inequality on R^n:
    a * (1 + b r^(p/(p-1)))^(-(p-1)/(q-p))."""
    _check_gn_domain(n, p, q)
    if a <= 0 or b <= 0:
        raise ValueError("need a > 0 and b > 0")
    pp = p / (p - 1.0)
    ex = (p - 1.0) / (q - p)

    def value(r):
        r = np.asarray(r, dtype=float)
        return a * (1.0 + b * r**pp) ** (-ex)

    def derivative(r):
        r = np.asarray(r, dtype=float)
        return -a * ex * b * pp * r ** (pp - 1.0) * (1.0 + b * r**pp) ** (-ex - 1.0)

    return RadialFunction(value=value, derivative=derivative, n=n, support=math.inf)


def logsobolev_extremal(n: int, p: float, s: float) -> RadialFunction:
    """Extremal family of the sharp log-Sobolev inequality:
    C * exp(-(1/s) r^(p/(p-1))), normalized so the L^p norm is 1.

    The decaying (negative) exponent is used; the growing variant is not
    integrable and admits no normalizing constant.
    """
    _check_p_range(n, p)
    if s <= 0:
        raise ValueError("need s > 0")
    pp = p / (p - 1.0)
    # integral of exp(-(p/s) r^pp) * area * r^(n-1) dr, closed form via Gamma
    # substitution t = (p/s) r^pp gives (area/pp) * (s/p)^(n/pp) * Gamma(n/pp), taken in logs for large n
    log_raw = math.log(n / pp) + log_unit_ball_volume(n) + (n / pp) * math.log(s / p) + math.lgamma(n / pp)
    logC = -log_raw / p  # C itself leaves the double range near n = 2000 (p = 1.5, s = 1), so it stays a log

    def log_value(r):
        r = np.asarray(r, dtype=float)
        return logC - r**pp / s

    def value(r):
        return np.exp(log_value(r))

    def derivative(r):
        r = np.asarray(r, dtype=float)
        return -(pp / s) * r ** (pp - 1.0) * np.exp(log_value(r))

    return RadialFunction(value=value, derivative=derivative, n=n, support=math.inf, log_value=log_value)
