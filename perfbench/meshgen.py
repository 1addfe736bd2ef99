"""Seeded input generators and writers: meshes, vertex fields, sample sets.

The benchmark builds its inputs with its own numpy code, not with psilab's
generators, so a later change to psilab cannot change what it is fed.
Every generator returns plain arrays; the writers emit the text formats the
psilab CLI reads (OFF / ``nOFF d``, ``vertex_index,value`` and
``value,weight`` CSV).
"""

from __future__ import annotations

import math

import numpy as np


def polar_grid(rings: int):
    """Pole-centred grid: vertex 0 at the pole, then ``rings`` rings of 2*rings vertices.

    Returns (ring index per vertex, angle per vertex, triangles). The layout
    matches a fan around the pole plus two triangles per quad, oriented
    consistently.
    """
    seg = 2 * rings
    ring = np.concatenate([[0], np.repeat(np.arange(1, rings + 1), seg)])
    angle = np.concatenate([[0.0], np.tile(2.0 * np.pi * np.arange(seg) / seg, rings)])

    def vid(j, k):
        return 1 + (j - 1) * seg + (k % seg)

    k = np.arange(seg)
    fan = np.column_stack([np.zeros(seg, dtype=int), vid(1, k), vid(1, k + 1)])
    j, k = (a.ravel() for a in np.meshgrid(np.arange(1, rings), np.arange(seg), indexing="ij"))
    a, b, c, d = vid(j, k), vid(j, k + 1), vid(j + 1, k), vid(j + 1, k + 1)
    quads = np.stack([np.column_stack([a, c, d]), np.column_stack([a, d, b])], axis=1).reshape(-1, 3)
    return ring, angle, np.vstack([fan, quads])


def disk(rings: int):
    """Unit disk in z = 0; returns (vertices, triangles, ring index)."""
    ring, angle, tris = polar_grid(rings)
    r = ring / rings
    verts = np.column_stack([r * np.cos(angle), r * np.sin(angle), np.zeros_like(r)])
    return verts, tris, ring


def cap(rings: int, aperture: float):
    """Spherical cap of the unit sphere, polar angle up to ``aperture``."""
    ring, angle, tris = polar_grid(rings)
    phi = aperture * ring / rings
    verts = np.column_stack([np.sin(phi) * np.cos(angle), np.sin(phi) * np.sin(angle), np.cos(phi)])
    return verts, tris, ring


def cap_total_curvature(aperture: float) -> float:
    """Smooth total mean curvature of the cap: |H| = 2 over area 2 pi (1 - cos a)."""
    return 2.0 * math.sqrt(2.0 * math.pi * (1.0 - math.cos(aperture)))


_T = (1.0 + math.sqrt(5.0)) / 2.0
_ICO_V = np.array(
    [(-1, _T, 0), (1, _T, 0), (-1, -_T, 0), (1, -_T, 0), (0, -1, _T), (0, 1, _T),
     (0, -1, -_T), (0, 1, -_T), (_T, 0, -1), (_T, 0, 1), (-_T, 0, -1), (-_T, 0, 1)],
    dtype=float,
)
_ICO_F = np.array(
    [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11), (1, 5, 9), (5, 11, 4),
     (11, 10, 2), (10, 7, 6), (7, 1, 8), (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8),
     (3, 8, 9), (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)],
    dtype=int,
)


def icosphere(subdiv: int):
    """Unit icosphere: midpoint-subdivided icosahedron, projected at every level."""
    verts = _ICO_V / np.linalg.norm(_ICO_V, axis=1, keepdims=True)
    faces = _ICO_F
    for _ in range(subdiv):
        edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
        key = np.sort(edges, axis=1)
        uniq, inv = np.unique(key, axis=0, return_inverse=True)
        mid = 0.5 * (verts[uniq[:, 0]] + verts[uniq[:, 1]])
        mid /= np.linalg.norm(mid, axis=1, keepdims=True)
        m = len(verts) + inv.reshape(3, -1)  # midpoint ids of edges ab, bc, ca
        a, b, c = faces.T
        ab, bc, ca = m
        faces = np.concatenate(
            [np.column_stack(t) for t in ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))]
        )
        verts = np.vstack([verts, mid])
    return verts, faces


def clifford_torus(n: int):
    """Clifford torus (cos s, sin s, cos t, sin t)/sqrt(2) in R^4 on an n x n grid."""
    s = 2.0 * np.pi * np.arange(n) / n
    S, T = (a.ravel() for a in np.meshgrid(s, s, indexing="ij"))
    verts = np.column_stack([np.cos(S), np.sin(S), np.cos(T), np.sin(T)]) / math.sqrt(2.0)
    i, j = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
    a = i * n + j
    b = i * n + (j + 1) % n
    c = ((i + 1) % n) * n + j
    d = ((i + 1) % n) * n + (j + 1) % n
    tris = np.stack([np.column_stack([a, c, d]), np.column_stack([a, d, b])], axis=1).reshape(-1, 3)
    return verts, tris


def random_rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random orthogonal d x d matrix."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def triangle_areas(verts: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Gram-determinant areas, valid in any ambient dimension."""
    a = verts[tris[:, 1]] - verts[tris[:, 0]]
    b = verts[tris[:, 2]] - verts[tris[:, 0]]
    aa, bb, ab = (a * a).sum(1), (b * b).sum(1), (a * b).sum(1)
    return 0.5 * np.sqrt(np.maximum(aa * bb - ab * ab, 0.0))


# ---------------------------------------------------------------------------
# writers


def _rows(sep: str, *cols) -> str:
    """Column arrays as text lines, floats in shortest round-trip form."""
    return "".join(line + "\n" for line in map(sep.join, zip(*(map(repr, c.tolist()) for c in cols))))


def off_text(verts: np.ndarray, tris: np.ndarray) -> str:
    d = verts.shape[1]
    header = "OFF\n" if d == 3 else f"nOFF {d}\n"
    faces = "".join(map("3 {} {} {}\n".format, *tris.T.tolist()))
    return f"{header}{len(verts)} {len(tris)} 0\n" + _rows(" ", *verts.T) + faces


def field_text(values: np.ndarray) -> str:
    return "vertex_index,value\n" + _rows(",", np.arange(len(values)), values)


class SamplePool:
    """``value,weight`` rows held as one bytes buffer with row offsets, so a
    CSV of any subset is written without a Python object per row."""

    CHUNK = 1 << 15

    def __init__(self, values: np.ndarray, weights: np.ndarray):
        self.values, self.weights = values, weights
        c = self.CHUNK
        text = "".join(_rows(",", values[k:k + c], weights[k:k + c]) for k in range(0, len(values), c))
        self.buf = np.frombuffer(text.encode(), dtype=np.uint8)
        self.starts = np.concatenate([[0], np.flatnonzero(self.buf == ord("\n")) + 1])

    def csv(self, idx: np.ndarray) -> bytes:
        """The rows idx, in that order, under a ``value,weight`` header."""
        out = [b"value,weight\n"]
        for k in range(0, len(idx), self.CHUNK):
            i = idx[k:k + self.CHUNK]
            lo, n = self.starts[i], self.starts[i + 1] - self.starts[i]
            pos = np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(int(n.sum()))
            out.append(self.buf[pos].tobytes())
        return b"".join(out)


def write(path: str, text: str | bytes) -> int:
    with open(path, "wb" if isinstance(text, bytes) else "w") as fh:
        fh.write(text)
    return len(text)
