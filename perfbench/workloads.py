"""The three workloads: seeded inputs, the CLI jobs run on them, and their oracles.

A workload hands out rounds. A round is a fixed mix of jobs whose sizes sit
on a fixed ladder across the stated range, each jittered by a few percent,
so every run sees the same mix and size spread whatever its seed; the seed
moves sizes within their jitter, draws the other parameters and shuffles
the order. Inputs are files in the work directory; the program sees
nothing else.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

import checks
import meshgen as G
from reference import lambda_bar, unit_ball_volume

C_N2 = 1.0 / (2.0 * math.sqrt(math.pi))  # Brendle's C at n = 2, codimension 1 or 2
H_TOL = 1e-4  # max ||H| - 2| on the unit icosphere (1.7e-5 at subdiv 4) and Clifford torus


@dataclass
class Job:
    kind: str
    argv: list
    check: object
    fmt: str = "json"
    expect: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    # writes the job's large input and fills its oracle arrays just before it
    # runs, so only one job's data is resident at a time
    prepare: object = None


def _strata(rng, lo, hi, k, log=False):
    """One uniform draw from each of k equal strata of [lo, hi), in random order."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    edges = a + (b - a) * np.arange(k + 1) / k
    x = edges[:-1] + (edges[1:] - edges[:-1]) * rng.random(k)
    x = np.exp(x) if log else x
    return x[rng.permutation(k)]


def _ladder(rng, points, jitter):
    """Each ladder point times (1 + U(-jitter, jitter)), in ladder order."""
    return np.asarray(points, dtype=float) * (1.0 + jitter * rng.uniform(-1.0, 1.0, len(points)))


def _file_sizes(verts, tris, nbytes):
    return {"vertices": int(len(verts)), "triangles": int(len(tris)), "bytes": int(nbytes)}


class Workload:
    name = ""
    # --seconds buys one round per ROUND_S: a run does seconds // ROUND_S rounds (at least one)
    ROUND_S = 1.0
    # the hostspeed kernel most like the jobs, which parse text files of thousands of
    # lines into numpy arrays; a job's probe is the median over it and PROBE_WINDOW jobs either side
    PROBE = "parse"
    PROBE_WINDOW = 1

    def __init__(self, workdir: str, seed: int):
        self.dir = workdir
        self.seed = seed
        self.out = os.path.join(workdir, "out")

    def path(self, name):
        return os.path.join(self.dir, name)

    def rng(self, *key):
        return np.random.default_rng([self.seed, *key])

    def setup(self) -> Job:
        """Generate the inputs shared by every round; returns the warm-up job."""
        raise NotImplementedError

    def round(self, i: int) -> list[Job]:
        """The jobs of round i in run order, writing the input files that are not left to ``prepare``."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class DiskVerify(Workload):
    """Six boundary meshes, a flat disk at K = 0 and a spherical cap at
    K = 1.05 TC at each of three sizes, with hat fields; each goes through
    all verify checks, and the meshes are reused every round."""

    name = "disk-verify"
    ROUND_S = 24.0  # one round of 53 jobs, 20-30 s on a 2-core Xeon
    # 3.9k to 21k vertices. Each size gives a cluster of 17 jobs (a disk and a cap),
    # and the 2 usage-error jobs are the fastest, so the median and the tail job
    # each fall inside a cluster, not on the step between two sizes.
    RINGS = (44, 66, 100)
    CHECKS = {
        "ps": "PolyaSzego", "model": "PolyaSzegoModelSpace", "iso": "Isoperimetric",
        "sobolev": "PSobolev", "gn": "GagliardoNirenberg", "spectral": "SpectralGap",
        "logsob": "LogSobolev", "ms1": "MichaelSimonP1", "mono": "MonotonicityPrinciple",
    }

    def setup(self):
        rng = self.rng(0)
        self.meshes = []
        for i, r in enumerate(np.rint(_ladder(rng, np.repeat(self.RINGS, 2), 0.03)).astype(int)):
            kind = ("disk", "cap")[i % 2]
            if kind == "disk":
                verts, tris, ring = G.disk(int(r))
                K = 0.0
            else:
                aperture = rng.uniform(0.4, 0.9)
                verts, tris, ring = G.cap(int(r), aperture)
                K = 1.05 * G.cap_total_curvature(aperture)
            values = rng.uniform(0.5, 2.0) * (1.0 - ring / r)  # hat, exactly 0 on the boundary ring
            mesh_path, field_path = self.path(f"mesh{i}.off"), self.path(f"field{i}.csv")
            nbytes = G.write(mesh_path, G.off_text(verts, tris)) + G.write(field_path, G.field_text(values))
            areas = G.triangle_areas(verts, tris)
            support = np.any(values[tris] > 0, axis=1)
            self.meshes.append({
                "kind": kind, "mesh": mesh_path, "field": field_path, "K": K,
                "area": float(areas.sum()), "support_area": float(areas[support].sum()),
                "sizes": _file_sizes(verts, tris, nbytes),
            })
        return self._job(self.meshes[0], "iso", 2.0, None)

    def _job(self, m, check, p, q, with_field=True):
        argv = ["verify", check, "--mesh", m["mesh"], "--p", repr(p), "--K", repr(m["K"]), "--out", self.out]
        if with_field:
            argv += ["--field", m["field"]]
        if q is not None:
            argv += ["--q", repr(q)]
        expect = {"id": self.CHECKS[check]}
        if check == "iso":
            expect["area"] = m["area"]
        if check == "spectral":
            expect["support_area"] = m["support_area"]
        if not with_field:
            expect["needs_field"] = check != "iso"
            return Job("verify-nofield", argv, checks.check_verify_nofield, expect=expect, sizes=dict(m["sizes"]))
        return Job("verify", argv, checks.check_verify, expect=expect, sizes=dict(m["sizes"]))

    def round(self, i):
        rng = self.rng(1, i)
        jobs = []
        for m in self.meshes:
            for check in self.CHECKS:
                if check == "logsob" and m["kind"] != "disk":
                    continue  # log-Sobolev needs a minimal (flat) surface
                p = 1.5 if check in ("sobolev", "gn", "logsob") else float(rng.choice([1.5, 2.0]))
                q = float(rng.uniform(1.6, 3.0)) if check == "gn" else None
                jobs.append(self._job(m, check, p, q))
        for m in self.meshes[:2]:  # usage errors: a check on a small mesh without --field
            jobs.append(self._job(m, str(rng.choice(list(self.CHECKS))), 1.5, None, with_field=False))
        return [jobs[k] for k in rng.permutation(len(jobs))]


# ---------------------------------------------------------------------------


def _icosphere_p1_energy(subdiv):
    """Returns lam, p -> P1 gradient p-energy of the blowup field on the unit icosphere."""
    verts, tris = G.icosphere(subdiv)
    e1 = verts[tris[:, 1]] - verts[tris[:, 0]]
    e2 = verts[tris[:, 2]] - verts[tris[:, 0]]
    normal = np.cross(e1, e2)
    twice_area = np.linalg.norm(normal, axis=1)
    r = np.hypot(verts[:, 0], verts[:, 1])

    def energy(lam, p):
        u = np.where((verts[:, 2] > 0) & (r <= 1.0 / lam), lam * r, 1.0)
        du1 = u[tris[:, 1]] - u[tris[:, 0]]
        du2 = u[tris[:, 2]] - u[tris[:, 0]]
        # tangential gradient of the affine interpolant: (du1 n x e2 - du2 n x e1) / |n|^2
        grad = (du1[:, None] * np.cross(normal, e2) - du2[:, None] * np.cross(normal, e1)) / (twice_area**2)[:, None]
        return float(np.sum(0.5 * twice_area * np.linalg.norm(grad, axis=1) ** p))

    return energy


class Blowup(Workload):
    """psilab counterexample sweeps and threshold searches, a few mesh-checked
    sweeps and a few constants tables; no input files, fresh parameters every round."""

    name = "blowup"
    ROUND_S = 0.12  # 16 jobs and their checks take about 0.17 s on a 2-core Xeon
    PROBE = "python"  # quad callbacks, the bisection and constants run in the interpreter on tiny arrays
    PROBE_WINDOW = 5  # jobs of a few ms: the tiny probe is steadied over 11 of them

    def setup(self):
        self._energies = {}
        return self._sweep(self.rng(0), 1.5, 16, "json", subdiv=3)

    def _lams(self, rng, k):
        return sorted(float(x) for x in np.exp(rng.uniform(math.log(1.5), math.log(1e8), k)))

    def _sweep(self, rng, p, k, fmt, subdiv=None):
        lams = self._lams(rng, k)
        argv = ["counterexample", "--p", repr(p), "--lambda", *map(repr, lams), "--format", fmt, "--out", self.out]
        expect = {"p": p, "lams": lams}
        kind = "sweep"
        if subdiv is not None:
            argv += ["--mesh-check", "--subdiv", str(subdiv)]
            if subdiv not in self._energies:
                self._energies[subdiv] = _icosphere_p1_energy(subdiv)
            energy = self._energies[subdiv]
            expect["mesh_energy"] = lambda lam: energy(lam, p)
            kind = "mesh-check"
        return Job(kind, argv, checks.check_sweep, fmt, expect, {"lambdas": k})

    def round(self, i):
        rng = self.rng(1, i)
        jobs = []
        for p, k, fmt in zip(_strata(rng, 1.0, 2.5, 8), _strata(rng, 16, 65, 8), ["json", "csv"] * 4):
            jobs.append(self._sweep(rng, float(p), int(k), fmt))
        for p, N in zip(_strata(rng, 1.0, 2.5, 4), _strata(rng, 10.0, 1e6, 4, log=True)):
            p, N = float(p), float(N)
            argv = ["counterexample", "--p", repr(p), "--N", repr(N), "--out", self.out]
            expect = {"p": p, "N": N, "lams": [10.0], "lambda_bar": lambda_bar(N, p)}
            jobs.append(Job("threshold", argv, checks.check_threshold, "json", expect, {"lambdas": 1}))
        for p in _strata(rng, 1.0, 2.5, 2):
            jobs.append(self._sweep(rng, float(p), 16, "json", subdiv=int(rng.integers(1, 4))))
        for with_q in (False, True):
            n = int(rng.integers(2, 5))
            x = n * unit_ball_volume(n) ** (1.0 / n)  # 1/C
            K, p = float(rng.uniform(0.0, 0.9 * x)), float(rng.uniform(1.05, n - 0.05))
            q = float(rng.uniform(p, p * (n - 1) / (n - p))) if with_q else None
            argv = ["constants", "--n", str(n), "--K", repr(K), "--p", repr(p), "--out", self.out]
            if q is not None:
                argv += ["--q", repr(q)]
            jobs.append(Job("constants", argv, checks.check_constants, "json", {"n": n, "K": K, "p": p, "q": q}))
        return [jobs[k] for k in rng.permutation(len(jobs))]


# ---------------------------------------------------------------------------


class FieldIO(Workload):
    """Inputs used exactly once: curvature of rotated icospheres and Clifford
    tori, mesh-field and sample-set rearrangements, a few malformed files."""

    name = "field-io"
    ROUND_S = 6.5  # 17 jobs, 6-8 s on a 2-core Xeon; three rounds give a steadier tail
    INVALID = ("off-nan", "off-quad", "off-index", "samples-negative", "samples-header", "samples-nan")

    POOL = 520_000  # sample rows per pool: at least the largest sample set (5e5 + 3%)

    def setup(self):
        self.spheres = {s: G.icosphere(s) for s in (2, 4, 5, 6)}
        # every sample file is a fresh random subset, in random order, of one of two
        # pre-formatted pools: continuous values, or values on a 0.05 grid (ties)
        rng = self.rng(0, 2)
        self.pools = {}
        for quantized in (False, True):
            v = rng.gamma(2.0, 1.0, self.POOL)
            v = np.round(v * 20.0) / 20.0 if quantized else np.round(v, 9)
            v[rng.random(self.POOL) < 0.05] = 0.0  # some samples outside the support
            w = np.round(rng.uniform(0.5, 1.5, self.POOL) * 1e-3, 12)
            self.pools[quantized] = G.SamplePool(v, w)
        self.invalid_offset = int(self.rng(0).integers(len(self.INVALID)))
        v, t = self.spheres[4]
        return self._curvature(self.rng(0, 1), "warm", v, t, "json")

    def _curvature(self, rng, tag, verts, tris, fmt):
        verts = verts @ G.random_rotation(rng, verts.shape[1]).T
        path = self.path(f"curv-{tag}.off")
        nbytes = G.write(path, G.off_text(verts, tris))
        expect = {"vertices": len(verts), "area": float(G.triangle_areas(verts, tris).sum()), "h_tol": H_TOL}
        argv = ["curvature", "--mesh", path, "--format", fmt, "--out", self.out]
        return Job("curvature", argv, checks.check_curvature, fmt, expect, _file_sizes(verts, tris, nbytes))

    def _rearrange_mesh(self, rng, tag, rings, interp, fmt):
        aperture, scale = rng.uniform(0.4, 0.9), rng.uniform(0.5, 2.0)
        K = 1.05 * G.cap_total_curvature(aperture)
        mesh_path, field_path = self.path(f"cap-{tag}.off"), self.path(f"capfield-{tag}.csv")
        argv = ["rearrange", "--mesh", mesh_path, "--field", field_path, "--target", "model",
                "--K", repr(K), "--interpolation", interp, "--format", fmt, "--out", self.out]
        coef = (1.0 / C_N2 - K) ** 2 / 4.0
        expect = {"target": "model", "interpolation": interp, "volume_coefficient": coef, "exact_levels": False}
        job = Job("rearrange-mesh", argv, checks.check_rearrange, fmt, expect)

        def prepare():
            verts, tris, ring = G.cap(rings, aperture)
            values = scale * (1.0 - ring / rings)
            nbytes = G.write(mesh_path, G.off_text(verts, tris)) + G.write(field_path, G.field_text(values))
            # sample_field at subdivision 2: 16 equal-area cells per triangle, valued at their centroids
            cells = _cell_centroids(2)
            expect["values"] = (values[tris] @ cells.T).ravel()
            expect["weights"] = np.repeat(G.triangle_areas(verts, tris) / len(cells), len(cells))
            job.sizes.update(_file_sizes(verts, tris, nbytes), samples=int(expect["values"].size))

        job.prepare = prepare
        return job

    def _sample_file(self, rng, n, quantized):
        pool = self.pools[quantized]
        idx = rng.choice(self.POOL, n, replace=False)
        return pool.csv(idx), pool.values[idx], pool.weights[idx]

    def _rearrange_samples(self, rng, tag, n, quantized, interp, fmt):
        path = self.path(f"samples-{tag}.csv")
        argv = ["rearrange", "--input", path, "--interpolation", interp, "--format", fmt, "--out", self.out]
        expect = {"target": "lebesgue", "interpolation": interp, "volume_coefficient": math.pi, "exact_levels": True}
        job = Job("rearrange-samples", argv, checks.check_rearrange, fmt, expect, {"samples": n})
        own = np.random.default_rng(rng.integers(2**63))  # drawn now, used when the job runs

        def prepare():
            data, expect["values"], expect["weights"] = self._sample_file(own, n, quantized)
            job.sizes["bytes"] = G.write(path, data)

        job.prepare = prepare
        return job

    def _invalid(self, rng, tag, kind):
        """A small malformed file, so each round's one invalid job is fast whatever its kind."""
        if kind.startswith("off"):
            verts, tris = self.spheres[2]
            text = G.off_text(verts, tris).splitlines(keepends=True)
            if kind == "off-nan":
                k = 2 + int(rng.integers(len(verts)))
                text[k] = "nan " + text[k].split(" ", 1)[1]
            else:
                k = 2 + len(verts) + int(rng.integers(len(tris)))
                a, b, c = tris[k - 2 - len(verts)]
                text[k] = f"4 {a} {b} {c} {a}\n" if kind == "off-quad" else f"3 {a} {b} {len(verts) + c}\n"
            path = self.path(f"bad-{tag}.off")
            argv = ["curvature", "--mesh", path, "--out", self.out]
        else:
            data, v, w = self._sample_file(rng, 1000, False)
            text = data.decode().splitlines(keepends=True)
            path = self.path(f"bad-{tag}.csv")
            k = 1 + int(rng.integers(len(v)))
            if kind == "samples-negative":
                text[k] = f"{float(v[k - 1])!r},-{float(w[k - 1])!r}\n"
            elif kind == "samples-header":
                text[0] = "weight,value\n"
            else:
                text[k] = f"nan,{float(w[k - 1])!r}\n"
            argv = ["rearrange", "--input", path, "--out", self.out]
        nbytes = G.write(path, "".join(text))
        return Job(f"invalid-{kind}", argv, checks.check_invalid, "json", {}, {"bytes": nbytes})

    def round(self, i):
        rng = self.rng(1, i)
        # output formats alternate along each ladder and swap every round, so each
        # slot is written as JSON in one round and as CSV in the next
        fmts = lambda k: [("json", "csv")[(j + i) % 2] for j in range(k)]  # noqa: E731
        jobs = []
        for s, fmt in zip((4, 4, 5, 5, 6), fmts(5)):
            verts, tris = self.spheres[s]
            jobs.append(self._curvature(rng, f"{len(jobs)}", verts, tris, fmt))
        for n, fmt in zip(np.rint(_ladder(rng, [56, 96, 136], 0.03)), fmts(3)):
            verts, tris = G.clifford_torus(int(n))
            jobs.append(self._curvature(rng, f"{len(jobs)}", verts, tris, fmt))
        for rings, interp, fmt in zip(np.rint(_ladder(rng, [36, 52, 68, 84], 0.03)), ["step", "linear"] * 2, fmts(4)):
            jobs.append(self._rearrange_mesh(rng, f"{len(jobs)}", int(rings), interp, fmt))
        combos = [(q, interp) for q in (False, True) for interp in ("step", "linear")]
        sizes = _ladder(rng, np.geomspace(1e5, 5e5, 4), 0.03)
        for n, (quantized, interp), fmt in zip(sizes, combos, fmts(4)):
            jobs.append(self._rearrange_samples(rng, f"{len(jobs)}", int(n), quantized, interp, fmt))
        kind = self.INVALID[(self.invalid_offset + i) % len(self.INVALID)]
        jobs.append(self._invalid(rng, f"{len(jobs)}", kind))
        return [jobs[k] for k in rng.permutation(len(jobs))]


def _cell_centroids(level):
    """Barycentric centroids of the 4^level cells of the midpoint refinement.

    With m = 2^level, the upright cells have centroids ((i,j,k) + 1/3)/m over
    i+j+k = m-1 and the inverted ones ((i,j,k) + 2/3)/m over i+j+k = m-2.
    """
    m = 2**level
    out = []
    for total, shift in ((m - 1, 1.0 / 3.0), (m - 2, 2.0 / 3.0)):
        for i in range(total + 1):
            for j in range(total + 1 - i):
                out.append(((i + shift) / m, (j + shift) / m, (total - i - j + shift) / m))
    return np.asarray(out)


WORKLOADS = {w.name: w for w in (DiskVerify, Blowup, FieldIO)}
