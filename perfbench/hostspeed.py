"""Host speed: a fixed probe timed beside every job, and times scaled by it.

The shared host runs slower by itself for stretches of a few seconds to a
minute, by up to 2x, and it does not slow every kind of code alike. A fixed
kernel that touches no psilab code, timed just before and just after every
job, tracks that slowdown. Each job's time is also given at one reference
host speed, ``seconds * ref_s / probe``. A job's probe is the geometric mean
of its before and after timings, and then the median of that over the job
and its ``window`` neighbours on either side. A slower program shows in
full; a slower host mostly does not.

There are two kernels, and a workload names the one that is most like its
jobs: ``python`` for jobs that run the interpreter on tiny arrays,
``parse`` for jobs that parse text files of thousands of lines into numpy
arrays and then work on those arrays.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np


def _python_kernel():
    s, d = 0.0, {}
    for i in range(1500):
        s += (i * 0.5) ** 0.5
        d[i & 63] = s
    return s


def _grid_off(n):
    """OFF text of an n x n vertex grid with random coordinates, and its vertex count."""
    rng = np.random.default_rng(1)
    v = rng.random((n * n, 3))
    a = (np.arange(n - 1)[:, None] * n + np.arange(n - 1)).ravel()
    f = np.concatenate([np.stack([a, a + 1, a + n], 1), np.stack([a + 1, a + n + 1, a + n], 1)])
    lines = ["OFF", f"{len(v)} {len(f)} 0"] + [f"{x!r} {y!r} {z!r}" for x, y, z in v.tolist()]
    lines += [f"3 {p} {q} {r}" for p, q, r in f.tolist()]
    return "\n".join(lines) + "\n", len(v)


_OFF, _NV = _grid_off(25)  # 625 vertices, 1152 triangles, 40 KB


def _parse_kernel():
    """Line-by-line OFF parse into arrays, then the unique edges: what a mesh job does first."""
    rows = []
    for raw in _OFF.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append(body.split())
    verts = np.array([[float(x) for x in r] for r in rows[2:2 + _NV]])
    tris = np.array([[int(x) for x in r[1:]] for r in rows[2 + _NV:]])
    edges = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1)
    return verts, np.unique(edges, axis=0)


# kernel, and ref_s: about the fastest it ran on a 2-core Xeon host (1st percentile of >1000 probes)
KERNELS = {"python": (_python_kernel, 1.6e-4), "parse": (_parse_kernel, 4.6e-3)}


def probe(kind):
    """Best of three timings of the named kernel, in seconds."""
    kernel = KERNELS[kind][0]
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def adjust(records, kind, window):
    """Give each record its time at the reference host speed, from the probes of its phase around it."""
    ref_s = KERNELS[kind][1]
    for phase in {r["phase"] for r in records}:
        rs = [r for r in records if r["phase"] == phase]
        probes = [math.sqrt(r["probe_before_s"] * r["probe_after_s"]) for r in rs]
        for i, r in enumerate(rs):
            r["probe_s"] = statistics.median(probes[max(0, i - window):i + window + 1])
            r["adj_seconds"] = r["seconds"] * ref_s / r["probe_s"]
