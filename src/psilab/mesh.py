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

A mesh is read-only, and so is a field: what is derived from them (the
Gram entries, areas and boundary, the curvature once measured) is kept on
them as read-only arrays, the large ones in anonymous mappings of their own.
"""

from __future__ import annotations

import functools
import json
import mmap
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from ._table import first_bad_row, format_table, read_table, read_text
from .errors import DegenerateTriangle, MeshParseError, NonManifoldMesh, require_order

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

    Validation runs at construction: coordinates are finite, every edge is
    shared by at most two triangles with opposite directions (consistent
    orientation), triangles are non-degenerate, and a disconnected mesh
    only warns. ``vertices`` and ``triangles`` are read-only (a writable
    array is copied, a read-only one taken as never changing), and so are
    the edge Gram entries, areas and boundary found on the way and the
    curvature once ``mean_curvature`` has measured it.
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
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError("triangles must be an (M, 3) index array")
        if triangles.size and (triangles.min() < 0 or triangles.max() >= len(vertices)):
            raise ValueError("triangle index out of range")
        self._curvature = None  # the CurvatureReport of the first mean_curvature
        self._validate()
        _warn_if_disconnected(self)

    def _validate(self):
        tri = self.triangles
        repeats = (tri[:, 0] == tri[:, 1]) | (tri[:, 1] == tri[:, 2]) | (tri[:, 0] == tri[:, 2])
        if repeats.any():
            raise DegenerateTriangle(f"triangle {tri[repeats.argmax()].tolist()} repeats a vertex")
        span = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        scale2 = float(np.dot(span, span))
        # Gram entries of the edges a = x1 - x0, b = x2 - x0: areas here, P1 gradients later
        a = self.vertices[tri[:, 1]] - self.vertices[tri[:, 0]]
        b = self.vertices[tri[:, 2]] - self.vertices[tri[:, 0]]
        gram = aa, bb, ab = tuple(np.einsum("ij,ij->i", x, y) for x, y in ((a, a), (b, b), (a, b)))
        areas = 0.5 * np.sqrt(np.maximum(aa * bb - ab * ab, 0.0))
        bad = np.nonzero(areas <= 1e-12 * max(scale2, 1e-300))[0]
        if bad.size:
            raise DegenerateTriangle(f"triangle {tri[bad[0]].tolist()} has (near-)zero area")
        # half-edge 3t+k runs tri[t, k] -> tri[t, k+1]; its key is the undirected
        # edge with the direction in the low bit, so one sort puts twins side by side
        nv = len(self.vertices)
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
    """``a`` made read-only for keeping (a copy, if ``copy``), one of 64 KiB or more copied into an anonymous
    mapping of its own: kept inside the malloc heap, it would pin the freed sample-sized arrays below it."""
    if a.nbytes >= 1 << 16:
        own = np.frombuffer(mmap.mmap(-1, a.nbytes), a.dtype, a.size).reshape(a.shape)
        own[...] = a
        a = own
    elif copy:
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
    token.
    """
    text = read_text(source)
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
    return TriMesh(_kept(vertices), _kept(triangles))


def _indices(index, count: int, what: str) -> np.ndarray:
    """``index`` as a flat int array, refusing an index (of a vertex or a triangle) outside [0, count) or one
    that appears more than once."""
    index = np.asarray(index, dtype=int).ravel()
    out_of_range = (index < 0) | (index >= count)
    if out_of_range.any():
        raise ValueError(f"{what} index {index[out_of_range.argmax()]} out of range [0, {count})")
    repeated = np.bincount(index, minlength=count) > 1
    if repeated.any():
        raise ValueError(f"{what} index {repeated.argmax()} appears more than once")
    return index


def _require_field_length(mesh: TriMesh, values: np.ndarray):
    if len(values) != len(mesh.vertices):
        raise ValueError("field length does not match vertex count")


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
        if not np.isfinite(values).all():
            raise ValueError("field values must be finite")
        if np.any(values < 0):
            raise ValueError("field values must be >= 0")
        if self.mesh is not None:
            _require_field_length(self.mesh, values)
            if self.compactly_supported:
                _require_boundary_vanishing(self.mesh, values)
        self._profiles = {}  # (subdivision, target) -> (mesh, rearranged profile), see verify

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
    construction.
    """
    require_order(p)
    tri = mesh.triangles
    u = field.values
    aa, bb, ab = mesh._gram
    du1 = u[tri[:, 1]] - u[tri[:, 0]]
    du2 = u[tri[:, 2]] - u[tri[:, 0]]
    # delta^T G^{-1} delta with G = [[aa, ab], [ab, bb]]
    grad2 = (bb * du1 * du1 - 2.0 * ab * du1 * du2 + aa * du2 * du2) / (aa * bb - ab * ab)
    grad2 = np.maximum(grad2, 0.0)
    return float(np.sum(mesh.triangle_areas() * grad2 ** (0.5 * p)))


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
    corners = v[tri.T]  # (3, M, d), corner-major: the one gather both corner loops share
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


def _region_tc(mesh: TriMesh, report: CurvatureReport, region: np.ndarray) -> float:
    """Total curvature over the interior vertices whose whole star lies inside the triangle region."""
    inside_tri = np.zeros(len(mesh.triangles), dtype=bool)
    inside_tri[_indices(region, len(mesh.triangles), "triangle")] = True
    full_star = np.ones(len(mesh.vertices), dtype=bool)
    full_star[mesh.triangles[~inside_tri]] = False
    return _total_curvature(report.vertex_areas, report.h_norm, full_star & ~report.boundary_mask)


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


@functools.cache
def _cell_centroids(subdivision: int) -> np.ndarray:
    """Read-only barycentric centroids of the 4^s cells of the midpoint refinement."""
    cells = np.eye(3)[None]  # (cells, corner, barycentric): the whole triangle
    for _ in range(subdivision):
        c0, c1, c2 = cells[:, 0], cells[:, 1], cells[:, 2]
        m01, m12, m02 = 0.5 * (c0 + c1), 0.5 * (c1 + c2), 0.5 * (c0 + c2)
        # each cell's four children, in order: the three corner cells, then the middle one
        cells = np.stack([c0, m01, m02, m01, c1, m12, m02, m12, c2, m01, m12, m02], axis=1).reshape(-1, 3, 3)
    centroids = cells.mean(axis=1)
    centroids.setflags(write=False)
    return centroids


def sample_field(mesh: TriMesh, field: VertexField, subdivision: int = 0):
    """Convert a P1 field into weighted samples for the rearrangement engine.

    Each triangle is split into 4^subdivision equal-area barycentric cells;
    each cell contributes one sample whose value is the interpolant at the
    cell centroid and whose weight is the cell area. The weights sum to the
    mesh area exactly (up to rounding), so the sampled measure is a genuine
    partition of the surface.
    """
    from .measure_space import DiscreteMeasuredFunction

    _require_subdivision(subdivision)
    centroids = _cell_centroids(subdivision)  # (4^s, 3) barycentric
    tri = mesh.triangles
    u = field.values
    corner_vals = u[tri]  # (M, 3)
    vals = corner_vals @ centroids.T  # (M, 4^s)
    areas = mesh.triangle_areas() / 4.0**subdivision
    weights = np.repeat(areas, centroids.shape[0])
    return DiscreteMeasuredFunction(vals.ravel(), weights)
