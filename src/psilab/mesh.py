"""Triangulated surfaces embedded in R^d: measures, P1 gradients, curvature.

Meshes are 2-dimensional (``TriMesh.n``) but the ambient dimension d >= 3 is free, so both
codimension-one bodies (spheres, disks, caps in R^3) and higher-codimension
ones (the Clifford torus in R^4) run through the same kernels. All area and
gradient formulas go through edge Gram matrices and therefore never assume
a cross product exists; a mesh builds its Gram entries once, at
construction, and the areas and P1 gradient energies share them.

Mean curvature is the discrete cotangent formula with mixed Voronoi
vertex areas, applied componentwise to the coordinate functions. The
normalization follows the trace convention: the unit sphere reports
|H| = 2, a unit cylinder 1, and the Clifford torus 2. Boundary vertices
carry |H| = 0 by convention and are excluded from the total-curvature
quadrature, since an open fan has no well-defined discrete curvature.

A P1 field's distribution function mu(t) = |{u > t}| is known exactly: it
is quadratic in t between consecutive distinct vertex values. ``_distribution``
builds it once per (mesh, field), and the verifiers take every integral of
the field from it; only ``sample_field`` still turns a field into samples,
for ``psilab rearrange --mesh``.

A mesh is read-only, and so is a field: what is derived from them (the
Gram entries, areas and boundary, the curvature once measured, the
distribution function) is kept on them as read-only arrays.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from ._table import first_bad_row, format_table, read_table, read_text, undecodable
from .errors import DegenerateTriangle, MeshParseError, NonManifoldMesh, require_order
from .measure_space import DiscreteMeasuredFunction, _unit_rule

__all__ = [
    "TriMesh",
    "VertexField",
    "CurvatureReport",
    "load_mesh",
    "hausdorff_measure",
    "p1_gradient_lp",
    "mean_curvature",
    "total_mean_curvature",
    "boundary_measure",
    "sample_field",
]


@dataclass
class TriMesh:
    """Oriented triangle mesh, manifold with boundary, embedded in R^d.

    Validation runs at construction: there is a triangle, coordinates are
    finite, every edge is shared by at most two triangles with opposite
    directions (consistent orientation), triangles are non-degenerate, and
    a disconnected mesh only warns. ``vertices`` and ``triangles`` are
    read-only (a writable array is copied, a read-only one taken as never
    changing), and so are the edge Gram entries, areas and boundary found
    on the way and the curvature once ``mean_curvature`` has measured it.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    n = 2  # the surface dimension, a class constant (not a field) beside the ambient dimension ``d``

    def __post_init__(self):
        self.vertices = vertices = _frozen(self.vertices, float)
        triangles = np.asarray(self.triangles)
        if triangles.dtype.kind == "f" and not (np.isfinite(triangles) & (triangles == np.trunc(triangles))).all():
            raise ValueError("triangle indices must be whole numbers")  # the int cast would truncate them
        self.triangles = triangles = _frozen(triangles, int)
        if vertices.ndim != 2 or vertices.shape[1] < 3:
            raise ValueError("vertices must be an (N, d) array with d >= 3")
        if not np.isfinite(vertices).all():
            raise ValueError("vertex coordinates must be finite")
        if not triangles.size:
            raise ValueError("mesh has no triangles")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must be an (M, 3) index array")
        if triangles.min() < 0 or triangles.max() >= len(vertices):
            raise ValueError("triangle index out of range")
        self._curvature = None  # the CurvatureReport of the first mean_curvature
        self._validate()
        _warn_if_disconnected(self)

    def _validate(self):
        tri = self.triangles
        repeats = (tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2]) | (tri[:, 0] == tri[:, 2])
        if repeats.any():
            raise DegenerateTriangle(f"triangle {tri[repeats.argmax()].tolist()} repeats a vertex")
        v = self.vertices
        span = np.array([x.max() - x.min() for x in v.T])  # a column at a time: an axis-0 reduction is 8x slower
        scale2 = float(np.dot(span, span))
        # Gram entries of the edges a = x1 - x0, b = x2 - x0: areas here, P1 gradients later;
        # np.take copies the same rows as v[idx] at a quarter of the cost
        x0 = np.take(v, tri[:, 0], axis=0)
        a, b = np.take(v, tri[:, 1], axis=0) - x0, np.take(v, tri[:, 2], axis=0) - x0
        del x0
        gram = aa, bb, ab = tuple(np.einsum("ij,ij->i", x, y) for x, y in ((a, a), (b, b), (a, b)))
        areas = 0.5 * np.sqrt(np.maximum(aa * bb - ab * ab, 0.0))
        bad = np.nonzero(areas <= 1e-12 * max(scale2, 1e-300))[0]
        if bad.size:
            raise DegenerateTriangle(f"triangle {tri[bad[0]].tolist()} has (near-)zero area")
        # half-edge 3t+k runs tri[t, k] -> tri[t, k+1]; its key is the undirected
        # edge with the direction in the low bit, so one sort puts twins side by side
        nv = len(v)
        src, dst = tri.ravel(), tri[:, [1, 2, 0]].ravel()
        keys = (np.minimum(src, dst) * nv + np.maximum(src, dst)) * 2 + (src > dst)
        order = np.argsort(keys)
        sorted_keys = keys[order]
        # an edge of three or more half-edges repeats a direction, so equal neighbours catch it too
        if (sorted_keys[1:] == sorted_keys[:-1]).any():
            order = np.argsort(keys, kind="stable")
            e = order[np.flatnonzero(np.diff(keys[order]) == 0) + 1].min()  # the repeat met first in triangle order
            edge = (int(src[e]), int(dst[e]))
            raise NonManifoldMesh(f"directed edge {edge} appears twice; non-manifold or inconsistently oriented")
        # twins differ only in the low bit; triangle across each half-edge, -1 on the boundary
        pair = np.flatnonzero((sorted_keys[:-1] | 1) == sorted_keys[1:])
        first, second = order[pair], order[pair + 1]
        across = np.full(keys.size, -1, dtype=np.int32)  # kept: half the bytes of int64
        across[first], across[second] = second // 3, first // 3
        adjacency = coo_matrix((np.ones(pair.size), (first // 3, second // 3)), shape=(len(tri),) * 2)
        self._disconnected = connected_components(adjacency, directed=False)[0] > 1
        has_twin = across >= 0
        edges = np.stack([src[~has_twin], dst[~has_twin]], axis=1)
        self._gram = tuple(map(_kept, gram))
        self._areas, self._across, self._boundary_edges = _kept(areas), _kept(across), _kept(edges)
        self._boundary_vertices = _kept(np.unique(edges))

    @property
    def d(self) -> int:
        return self.vertices.shape[1]

    def triangle_areas(self) -> np.ndarray:
        """Read-only per-triangle areas."""
        return self._areas

    def boundary_edges(self) -> np.ndarray:
        """Directed edges whose reverse is absent, as a read-only (B, 2) array in triangle order."""
        return self._boundary_edges

    def boundary_vertices(self) -> np.ndarray:
        return self._boundary_vertices

    def is_closed(self) -> bool:
        return not len(self._boundary_edges)


def _kept(a: np.ndarray, copy: bool = False) -> np.ndarray:
    """``a`` made read-only for keeping (a copy, if ``copy``)."""
    if copy:
        a = a.copy()
    a.setflags(write=False)
    return a


def _frozen(a, dtype) -> np.ndarray:
    """``a`` as a read-only ``dtype`` array, a copy if ``a`` is writable (its owner may change it)."""
    a = np.asarray(a, dtype=dtype)
    return _kept(a, copy=True) if a.flags.writeable else a


def _warn_if_disconnected(mesh: TriMesh):
    """Warn if ``mesh`` is not connected; built or kept, always from this line, so the default filter warns once."""
    if mesh._disconnected:
        warnings.warn("mesh is not connected")


def _loadtxt(rows: list[str], cols: int, dtype) -> np.ndarray:
    """The leading ``cols`` numbers of every row, in one numpy call."""
    return np.loadtxt(rows, dtype=dtype, usecols=range(cols), comments=None, ndmin=2)


def load_mesh(source) -> TriMesh:
    """Parse OFF or extended ``nOFF d`` input into a validated TriMesh.

    ``source`` may be a text string, bytes, or a readable stream. Comment
    lines (#) and blank lines are skipped. Faces with more than three
    vertices are rejected (triangles only), and so are NaN and infinite
    coordinates. Errors carry the 1-based line number of the offending
    token, or of a byte that does not decode.
    """
    return TriMesh(*_parse_off(source))  # built once the text, its lines and the face table are freed


def _parse_off(source) -> tuple[np.ndarray, np.ndarray]:
    """The read-only vertex and triangle arrays of ``load_mesh``'s input, checked line by line."""
    try:
        text = read_text(source)
    except UnicodeDecodeError as exc:
        line, problem = undecodable(source, exc)
        raise MeshParseError(problem, line=line) from None
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    body = list(filter(str.strip, lines))  # comments and blanks removed

    def line_of(k):  # 1-based line number of body[k]; only errors need it
        return [i for i, line in enumerate(lines, start=1) if line.strip()][k]

    if not body:
        raise MeshParseError("empty input", line=1)
    tokens = body[0].split()
    if tokens[0] == "OFF":
        d = 3
        rest = tokens[1:]
    elif tokens[0] == "nOFF":
        if len(tokens) < 2:
            raise MeshParseError("nOFF header missing the dimension", line=line_of(0))
        try:
            d = int(tokens[1])
        except ValueError:
            raise MeshParseError(f"bad nOFF dimension {tokens[1]!r}", line=line_of(0)) from None
        if d < 3:
            raise MeshParseError(f"ambient dimension must be >= 3, got {d}", line=line_of(0))
        rest = tokens[2:]
    else:
        raise MeshParseError(f"expected OFF or nOFF header, got {tokens[0]!r}", line=line_of(0))
    start = 1 if rest else 2  # index in body of the first vertex line
    if len(body) < start:
        raise MeshParseError("unexpected end of file", line=line_of(0))
    counts = rest or body[1].split()
    if len(counts) < 2:
        raise MeshParseError("expected 'nv nf [ne]' counts", line=line_of(start - 1))
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except ValueError:
        nv = nf = -1
    if min(nv, nf) < 0:
        raise MeshParseError("counts must be non-negative integers", line=line_of(start - 1))
    if len(body) < start + nv + nf:
        raise MeshParseError("unexpected end of file", line=line_of(len(body) - 1))

    def fail(k, problem):
        raise MeshParseError(f"{problem}: {body[k].strip()!r}", line=line_of(k)) from None

    def block(first, count, cols, dtype, need):
        rows = body[first : first + count]
        try:
            return _loadtxt(rows, cols, dtype) if rows else np.zeros((0, cols), dtype)
        except ValueError:
            fail(first + first_bad_row(rows, lambda chunk: _loadtxt(chunk, cols, dtype)), need)

    vertices = block(start, nv, d, float, f"vertex line needs {d} coordinates")
    faces = block(start + nv, nf, 4, np.int64, "face line needs a count and three vertex indices")
    triangles = np.ascontiguousarray(faces[:, 1:])
    for first, ok, problem in (
        (start, np.isfinite(vertices).all(axis=1), "non-finite vertex coordinate"),
        (start + nv, faces[:, 0] == 3, "only triangles are supported"),
        (start + nv, ((triangles >= 0) & (triangles < nv)).all(axis=1), "vertex index out of range"),
    ):
        if not ok.all():
            fail(first + int(ok.argmin()), problem)
    return _kept(vertices), _kept(triangles)


def _indices(index, count: int, what: str) -> np.ndarray:
    """``index`` as a flat int array, refusing a boolean mask and an index (of a vertex or a triangle) that is
    not a whole number, lies outside [0, count) or appears more than once."""
    index = np.asarray(index).ravel()
    if index.dtype.kind == "b":  # read as indices, a mask's True and False would be 1 and 0
        raise ValueError(f"{what} indices are a boolean mask; pass np.flatnonzero(mask)")
    if index.dtype.kind == "f":  # the int cast would truncate a fraction and fail on NaN or inf
        whole = np.isfinite(index) & (index == np.trunc(index))
        if not whole.all():
            raise ValueError(f"{what} index {index[whole.argmin()]} is not a whole number")
    out_of_range = (index < 0) | (index >= count)
    if out_of_range.any():
        raise ValueError(f"{what} index {int(index[out_of_range.argmax()])} out of range [0, {count})")
    index = index.astype(int, copy=False)
    repeated = np.bincount(index, minlength=count) > 1
    if repeated.any():
        raise ValueError(f"{what} index {repeated.argmax()} appears more than once")
    return index


def _require_field_length(mesh: TriMesh, values: np.ndarray):
    if values.shape[-1] != len(mesh.vertices):
        raise ValueError("field length does not match vertex count")


def _require_field_values(values: np.ndarray):
    """Refuse vertex values (one field or a stack of them) that are not finite numbers >= 0."""
    if not np.isfinite(values).all():
        raise ValueError("field values must be finite")
    if np.any(values < 0):
        raise ValueError("field values must be >= 0")


def _require_boundary_vanishing(mesh: TriMesh, values: np.ndarray):
    bv = mesh.boundary_vertices()
    if bv.size and np.any(values[bv] != 0.0):
        raise ValueError("field must vanish on boundary vertices")


@dataclass
class VertexField:
    """Nonnegative P1 scalar field given by its vertex values, read-only like
    a mesh's arrays (a writable array is copied, a read-only one kept as it is).

    When ``compactly_supported`` is set, construction insists the field
    vanish on every boundary vertex of the attached mesh.
    """

    values: np.ndarray
    compactly_supported: bool = False
    mesh: TriMesh | None = None

    def __post_init__(self):
        self.values = values = _frozen(self.values, float)
        if values.ndim != 1:
            raise ValueError("field values must be a 1-d array")
        _require_field_values(values)
        if self.mesh is not None:
            _require_field_length(self.mesh, values)
            if self.compactly_supported:
                _require_boundary_vanishing(self.mesh, values)
        self._derived = (None, {})  # (mesh, what _derive built on it by name)

    @classmethod
    def from_csv(cls, stream, mesh: TriMesh, **kwargs) -> "VertexField":
        """Read per-vertex values from CSV with a ``vertex_index,value`` header.

        Each index must lie in [0, nv) and appear at most once; vertices
        without a row get 0.
        """
        index, values = read_table(stream, "vertex_index,value", (np.int64, float))
        index = _indices(index, len(mesh.vertices), "vertex")
        full = np.zeros(len(mesh.vertices))
        full[index] = values
        return cls(_kept(full), mesh=mesh, **kwargs)

    def to_csv(self) -> str:
        return format_table("vertex_index,value", np.arange(len(self.values)), self.values)


def hausdorff_measure(mesh: TriMesh, region=None) -> float:
    """Total area of the mesh, or of a region of distinct triangle indices."""
    areas = mesh.triangle_areas()
    if region is None:
        return float(areas.sum())
    region = _indices(region, len(mesh.triangles), "triangle")
    return float(areas[region].sum()) if region.size else 0.0


def p1_gradient_lp(mesh: TriMesh, field: VertexField, p: float) -> float:
    """Integral of |grad u|^p over the mesh for the P1 interpolant (not a norm).

    Per triangle the tangential gradient of the affine interpolant has
    squared norm delta^T G^{-1} delta, where G is the Gram matrix of two
    edge vectors and delta the corresponding value differences; this is
    independent of the ambient dimension. G is the one the mesh kept at
    construction, and the per-triangle squared norms, and the integral for
    each p, are kept on the field for the mesh they were measured on.
    """
    require_order(p)

    def grad2():
        tri, u = mesh.triangles, field.values
        return _kept(_gradient_sq(*mesh._gram, u[tri[:, 1]] - u[tri[:, 0]], u[tri[:, 2]] - u[tri[:, 0]]))

    def integral():
        return float(np.sum(mesh.triangle_areas() * _derive(mesh, field, "grad2", grad2) ** (0.5 * p)))

    return _derive(mesh, field, ("gradient_lp", p), integral)


def _derive(mesh: TriMesh, field: VertexField, name, build):
    """``build()``, which depends only on the mesh and the field, kept on the field under ``name`` for the mesh
    it was built on (a new mesh drops what the field kept for the last one): a warm check repeats no pass over
    the triangles."""
    if field._derived[0] is not mesh:
        field._derived = (mesh, {})
    kept = field._derived[1]
    if name not in kept:
        kept[name] = build()
    return kept[name]


def _gradient_sq(aa, bb, ab, du1, du2) -> np.ndarray:
    """|grad u|^2 >= 0 of an affine function with value differences du1, du2 along two edges with Gram
    entries aa, bb, ab: delta^T G^{-1} delta with G = [[aa, ab], [ab, bb]]."""
    return np.maximum((bb * du1 * du1 - 2.0 * ab * du1 * du2 + aa * du2 * du2) / (aa * bb - ab * ab), 0.0)


_STACK_ENTRIES = 1 << 16  # the most (field, triangle) entries one block of _stacked_gradient_lp holds


def _stacked_gradient_lp(mesh: TriMesh, count: int, rows, p: float) -> list[float]:
    """``p1_gradient_lp`` of ``count`` fields in one pass, each bit-identical to it. ``rows(lo, hi)`` gives the
    vertex values of fields lo, ..., hi - 1 as an (hi - lo, nv) array, refused as ``VertexField`` refuses one.

    The pass runs in blocks of at most ``_STACK_ENTRIES`` (field, triangle) entries. |grad u|^2 is formed,
    and raised to p/2, only on the triangles where the field moves: elsewhere it is exactly 0, and so is its
    p/2-th power for p >= 1. Each field's row of area-weighted powers is contiguous and summed by its own
    ``np.sum``, as ``p1_gradient_lp`` sums it; a sum over a (triangle, field) layout rounds differently.
    """
    require_order(p)
    areas, half_p = mesh.triangle_areas(), 0.5 * p
    aa, bb, ab = mesh._gram
    t0, t1, t2 = mesh.triangles.T
    nt = len(t0)
    step = max(1, _STACK_ENTRIES // nt)
    out = []
    for lo in range(0, count, step):
        u = np.asarray(rows(lo, min(lo + step, count)), dtype=float)
        if u.ndim != 2:
            raise ValueError("stacked field values must be a 2-d array")
        _require_field_length(mesh, u)
        _require_field_values(u)
        u0 = np.take(u, t0, axis=1)
        du1, du2 = np.take(u, t1, axis=1) - u0, np.take(u, t2, axis=1) - u0
        moving = np.flatnonzero((du1 != 0.0) | (du2 != 0.0))
        du1, du2, tri = du1.ravel()[moving], du2.ravel()[moving], moving % nt
        energy = np.zeros((len(u), nt))
        energy.ravel()[moving] = areas[tri] * _gradient_sq(aa[tri], bb[tri], ab[tri], du1, du2) ** half_p
        out += [float(np.sum(row)) for row in energy]
    return out


# ---------------------------------------------------------------------------
# the distribution function of a P1 field

_LEVEL_TIE = 1e-13  # vertex values closer than this times the field's maximum are one level


_LEVEL_X, _LEVEL_W = _unit_rule(8)  # the rule of every level interval


@dataclass(frozen=True)
class _Levels:
    """The distribution function mu(t) = |{u > t}| of a P1 field, exactly, at the nodes of one Gauss-Legendre
    rule per level interval (the span between two consecutive levels).

    On a triangle with sorted values a <= b <= c and area A, -mu' is a hat in t: 2A(t - a)/((b - a)(c - a)) on
    (a, b) and 2A(c - t)/((c - a)(c - b)) on (b, c), which jumps at a where a = b and at c where b = c; a
    flat triangle is an atom of mass A at its value. So -mu' is linear on each level interval, mu quadratic,
    and every integral a verdict needs is a sum over the nodes, smooth inside each interval.

    ``levels`` are 0 and the field's distinct vertex values, ascending, after ``merged`` merges of values
    within ``_LEVEL_TIE`` of the maximum of each other (rounding ties, which would leave intervals a few ulps
    wide); ``atoms`` is the flat area at each level. The (intervals, nodes) arrays give each node's level
    ``t``, its quadrature weight ``dt``, the area ``mass`` = -mu'(t) dt it carries, and log mu(t) and
    log(-mu'(t)).
    """

    levels: np.ndarray
    merged: int
    atoms: np.ndarray
    t: np.ndarray
    dt: np.ndarray
    mass: np.ndarray
    log_mu: np.ndarray
    log_rho: np.ndarray

    def integral(self, g) -> float:
        """The integral of g(u) dA, as the integral of g(t) d(-mu): ``g`` maps a read-only array elementwise."""
        return float(np.sum(g(self.t) * self.mass)) + float(self.atoms @ g(self.levels))

    def rearranged_energy(self, p: float, target) -> float:
        """The gradient p-energy of the field's rearrangement u* on ``target``, by coarea: the integral of
        I(mu)^p |mu'|^(1 - p) dt, where I is the target's isoperimetric profile (``target.log_perimeter``),
        so that I(mu) / |mu'| is |grad u*| on the level set. A level interval no triangle spans (below a
        positive minimum of the field, or between the values of two components) is a jump of u*: it costs
        I(mu) dt at p = 1 and makes the energy infinite above."""
        require_order(p)
        exponent = p * target.log_perimeter(self.log_mu)
        if p != 1.0:
            exponent += (1.0 - p) * self.log_rho
        return float(np.sum(self.dt * np.exp(exponent)))


def _running_sum(x: np.ndarray) -> np.ndarray:
    """``np.cumsum(x)`` with the rounding error of each addition carried along (TwoSum, then a second
    cumulative sum of the errors), so that a term added and later taken away leaves no residue."""
    s = np.cumsum(x)
    before = np.concatenate(([0.0], s[:-1]))
    added = s - before
    return s + np.cumsum((before - (s - added)) + (x - added))


def _distribution(mesh: TriMesh, field: VertexField) -> _Levels:
    """The exact level structure of a P1 field, kept read-only on the field for the mesh it was built on.

    It costs O(M log M) time and O(M + L) memory for M triangles and L levels: -mu' is the sum of one hat per
    triangle, each given by its slope changes at a, b and c and its jumps, and is walked from the lowest
    level up, slope times width on each interval, with ``_running_sum`` so that the steep slope of a
    triangle with a narrow value range leaves no residue in the walk. mu is then summed from the top level
    down, a closed form within each interval.
    """
    return _derive(mesh, field, "levels", lambda: _build_levels(mesh, field.values))


def _build_levels(mesh: TriMesh, u: np.ndarray) -> _Levels:
    tri = mesh.triangles
    seen = np.zeros(u.size, dtype=bool)
    seen[tri] = True
    if not seen.all():  # a vertex in no triangle adds no level: give it the value of one that is in one
        u = np.where(seen, u, u[tri[0, 0]])
    # the levels start at 0: below a positive minimum mu is the whole area, and u* drops to 0 at the edge
    distinct, inverse = np.unique(np.append(u, 0.0), return_inverse=True)
    inverse = inverse[:-1]
    starts = np.concatenate(([True], np.diff(distinct) > _LEVEL_TIE * distinct[-1]))
    levels = _kept(distinct[starts])  # each merged run at its lowest value, so a zero level stays 0
    nl = levels.size
    i0, i1, i2 = (np.cumsum(starts) - 1)[inverse][tri].T
    ia, ic = np.minimum(np.minimum(i0, i1), i2), np.maximum(np.maximum(i0, i1), i2)
    ib = i0 + i1 + i2 - ia - ic
    area = mesh.triangle_areas()
    flat = ia == ic
    atoms = _kept(np.bincount(ia[flat], area[flat], minlength=nl).astype(float))
    if flat.any():
        ia, ib, ic, area = ia[~flat], ib[~flat], ic[~flat], area[~flat]
    a, b, c = levels[ia], levels[ib], levels[ic]
    peak = 2.0 * area / (c - a)  # -mu' at t = b; each triangle's hat rises on (a, b) and falls on (b, c)
    # a rise or fall within one interval sets its ends directly
    lo = np.bincount(ib[ic == ib + 1], peak[ic == ib + 1], minlength=nl - 1)
    hi = np.bincount(ia[ib == ia + 1], peak[ib == ia + 1], minlength=nl - 1)
    # a longer one is walked up the levels, slope times width on each interval: its slope enters where it
    # starts and leaves where it ends, in level order, and a fall starts at its peak as a rise ends there
    rise, fall = ib > ia + 1, ic > ib + 1
    up, down = peak[rise] / (b - a)[rise], peak[fall] / (c - b)[fall]
    at = np.concatenate([ia[rise], ib[rise], ib[fall], ic[fall]])
    order = np.argsort(at)
    slopes = np.append(0.0, _running_sum(np.concatenate([up, -up, -down, down])[order]))
    slope = slopes[np.searchsorted(at[order], np.arange(nl - 1), side="right")]  # after the changes at or below
    jump = np.bincount(ib[fall], peak[fall], minlength=nl) - np.bincount(ib[rise], peak[rise], minlength=nl)
    width = np.diff(levels)
    walked = _running_sum(np.column_stack([jump[:-1], slope * width]).ravel())
    lo = np.maximum(lo + walked[0::2], 0.0)  # -mu' at the low and the high end of each interval
    hi = np.maximum(hi + walked[1::2], 0.0)
    # |{u >= levels[k + 1]}|: the atoms and interval masses above interval k, summed from the top down
    above = np.cumsum((atoms + np.append(0.5 * width * (lo + hi), 0.0))[::-1])[::-1][1:]
    x, w = np.tile(_LEVEL_X, (nl - 1, 1)), np.tile(_LEVEL_W, (nl - 1, 1))
    # the lowest interval takes its rule in s, t = levels[0] + width s^2, in which the integrands' t^p and
    # t^p log t at a zero level are smooth
    if nl > 1:
        x[0], w[0] = _LEVEL_X**2, 2.0 * _LEVEL_X * _LEVEL_W
    lo, hi, above, width = lo[:, None], hi[:, None], above[:, None], width[:, None]
    rho = lo * (1.0 - x) + hi * x
    mu = above + width * (lo * (0.5 * (1.0 - x) ** 2) + hi * (0.5 * (1.0 - x * x)))
    dt = width * w
    with np.errstate(divide="ignore"):  # -mu' is 0 only on an interval no triangle spans
        log_rho = np.log(rho)
    nodes = levels[:-1, None] + width * x
    return _Levels(levels, distinct.size - nl, atoms, *map(_kept, (nodes, dt, dt * rho, np.log(mu), log_rho)))


@dataclass
class CurvatureReport:
    """Per-vertex mean-curvature magnitudes with their quadrature areas."""

    h_norm: np.ndarray
    vertex_areas: np.ndarray
    boundary_mask: np.ndarray = field(repr=False, default=None)
    total: float = 0.0

    def as_dict(self) -> dict:
        return {
            "total_mean_curvature": self.total,
            "h_norm": self.h_norm.tolist(),
            "vertex_areas": self.vertex_areas.tolist(),
            "boundary": self.boundary_mask.astype(int).tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    def to_csv(self) -> str:
        columns = np.arange(len(self.h_norm)), self.h_norm, self.vertex_areas, self.boundary_mask.astype(int)
        return format_table("vertex_index,h_norm,vertex_area,is_boundary", *columns)


def mean_curvature(mesh: TriMesh) -> CurvatureReport:
    """Cotangent-formula mean curvature magnitude at every interior vertex.

    H_i = (1 / (2 A_i)) * sum over neighbors j of (cot alpha + cot beta)
    (x_i - x_j); |H_i| is the Euclidean norm in R^d. A_i is the mixed
    Voronoi vertex area (Voronoi cotangent pieces on non-obtuse triangles,
    the half / quarter split on obtuse ones), which keeps |H| pointwise
    accurate at irregular vertices where flat 1/3 areas plateau at a few
    percent error. The report, with read-only arrays, is measured on the
    first call and kept on the mesh.
    """
    if mesh._curvature is None:
        mesh._curvature = _curvature_report(mesh)
    return mesh._curvature


def _curvature_report(mesh: TriMesh) -> CurvatureReport:
    """The read-only ``mean_curvature`` report."""
    v = mesh.vertices
    tri = mesh.triangles
    nvert = len(v)
    ntri = len(tri)
    tri_areas = mesh.triangle_areas()
    corners = np.take(v, tri.T, axis=0)  # (3, M, d), corner-major: the one gather both corner loops share
    # edges[c] = x_i - x_j for the corner pair (i, j) = (c, c+1); the other two
    # sides seen from corner k = c+2 are x_i - x_k = -edges[k] and x_j - x_k = edges[c+1]
    edges = [corners[c] - corners[(c + 1) % 3] for c in range(3)]
    sq_len = [np.einsum("ij,ij->i", e, e) for e in edges]
    cots = np.empty((3, ntri))
    # the scatter-add of each pair's term to i and its negative to j, filled in place:
    # target vertices in pair, end, triangle order and one contiguous row of terms per coordinate
    h_idx = np.empty((3, 2, ntri), dtype=tri.dtype)
    h_terms = np.empty((v.shape[1], 3, 2, ntri))
    for c in range(3):
        k = (c + 2) % 3
        # angle at k, opposite edge (i, j)
        dot = -np.einsum("ij,ij->i", edges[k], edges[(c + 1) % 3])
        cross2 = np.maximum(sq_len[k] * sq_len[(c + 1) % 3] - dot * dot, 1e-300)
        cot = dot / np.sqrt(cross2)
        cots[k] = cot  # indexed by the corner the angle sits at
        h_idx[c, 0], h_idx[c, 1] = tri[:, c], tri[:, (c + 1) % 3]
        np.multiply(edges[c].T, cot, out=h_terms[:, c, 0])
        np.negative(h_terms[:, c, 0], out=h_terms[:, c, 1])
    h_idx = h_idx.ravel()
    accum = np.stack([np.bincount(h_idx, weights=row.ravel(), minlength=nvert) for row in h_terms], axis=1)
    del corners, edges, h_idx, h_terms  # freed before the area stage, which lowers the peak
    obtuse_corner = cots < 0.0  # (3, M), at most one per triangle
    tri_obtuse = obtuse_corner.any(axis=0)
    area_idx, area_terms = [], []
    for c in range(3):
        i = tri[:, c]
        j = tri[:, (c + 1) % 3]
        # Voronoi piece from the angle at corner (c+2): cot * |ij|^2 / 8 to each end
        piece = np.where(tri_obtuse, 0.0, cots[(c + 2) % 3] * sq_len[c] / 8.0)
        # obtuse fallback: half the area at the obtuse corner, quarter elsewhere
        fallback = np.where(obtuse_corner[c], 0.5 * tri_areas, 0.25 * tri_areas)
        area_idx += [i, j, i]
        area_terms += [piece, piece, np.where(tri_obtuse, fallback, 0.0)]
    areas = np.bincount(np.concatenate(area_idx), weights=np.concatenate(area_terms), minlength=nvert)
    boundary = np.zeros(nvert, dtype=bool)
    boundary[mesh.boundary_vertices()] = True
    h = np.zeros(nvert)
    interior = ~boundary & (areas > 0)
    h[interior] = np.linalg.norm(accum[interior], axis=1) / (2.0 * areas[interior])
    total = _total_curvature(areas, h, interior)
    return CurvatureReport(h_norm=_kept(h), vertex_areas=_kept(areas), boundary_mask=_kept(boundary), total=total)


def _total_curvature(areas: np.ndarray, h: np.ndarray, vertices: np.ndarray) -> float:
    """TC = (sum of A_i |H_i|^2)^(1/2) over ``vertices`` (a mask), the one quadrature of the total curvature."""
    return float(np.sqrt(np.sum(areas[vertices] * h[vertices] ** 2)))


def _region_tc(mesh: TriMesh, report: CurvatureReport, region=None) -> float:
    """Total curvature over the report's vertices (interior, positive area) whose whole star lies inside the
    triangle region, or the report's kept total for the whole mesh."""
    if region is None:
        return report.total
    interior = ~report.boundary_mask & (report.vertex_areas > 0)
    inside_tri = np.zeros(len(mesh.triangles), dtype=bool)
    inside_tri[_indices(region, len(mesh.triangles), "triangle")] = True
    interior[mesh.triangles[~inside_tri]] = False
    return _total_curvature(report.vertex_areas, report.h_norm, interior)


def total_mean_curvature(mesh: TriMesh) -> float:
    """L^2 norm of |H| over the surface (n = 2), boundary vertices excluded."""
    return mean_curvature(mesh).total


def boundary_measure(mesh: TriMesh, region=None) -> float:
    """Total length of boundary edges of the mesh or of a region of distinct triangle indices."""
    if region is None:
        edges = mesh.boundary_edges()
    else:
        inside = np.zeros(len(mesh.triangles), dtype=bool)
        inside[_indices(region, len(mesh.triangles), "triangle")] = True
        across = mesh._across
        # a half-edge of the region bounds it when no region triangle lies across
        cut = np.repeat(inside, 3) & ((across < 0) | ~inside[across])
        tri = mesh.triangles
        edges = np.stack([tri.ravel()[cut], tri[:, [1, 2, 0]].ravel()[cut]], axis=1)
    seg = mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]]
    return float(np.sum(np.linalg.norm(seg, axis=1)))


def _require_subdivision(subdivision: int):
    if subdivision < 0:
        raise ValueError("subdivision must be >= 0")


def _cell_centroids(subdivision: int) -> np.ndarray:
    """Barycentric centroids of the 4^s cells of the midpoint refinement."""
    cells = np.eye(3)[None]  # (cells, corner, barycentric): the whole triangle
    for _ in range(subdivision):
        c0, c1, c2 = cells[:, 0], cells[:, 1], cells[:, 2]
        m01, m12, m02 = 0.5 * (c0 + c1), 0.5 * (c1 + c2), 0.5 * (c0 + c2)
        # each cell's four children, in order: the three corner cells, then the middle one
        cells = np.stack([c0, m01, m02, m01, c1, m12, m02, m12, c2, m01, m12, m02], axis=1).reshape(-1, 3, 3)
    return cells.mean(axis=1)


def sample_field(mesh: TriMesh, field: VertexField, subdivision: int = 0):
    """Convert a P1 field into weighted samples for the rearrangement engine.

    Each triangle is split into 4^subdivision equal-area barycentric cells;
    each cell contributes one sample whose value is the interpolant at the
    cell centroid and whose weight is the cell area. The weights sum to the
    mesh area exactly (up to rounding), so the sampled measure is a genuine
    partition of the surface. Only ``psilab rearrange --mesh`` draws them:
    the verifiers integrate the field exactly, from ``_distribution``.
    """
    _require_subdivision(subdivision)
    centroids = _cell_centroids(subdivision)  # (4^s, 3) barycentric
    tri = mesh.triangles
    u = field.values
    corner_vals = u[tri]  # (M, 3)
    vals = corner_vals @ centroids.T  # (M, 4^s)
    areas = mesh.triangle_areas() / 4.0**subdivision
    weights = np.repeat(areas, centroids.shape[0])
    return DiscreteMeasuredFunction(vals.ravel(), weights)
