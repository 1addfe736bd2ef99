"""Output oracles for every job kind, and the known-defect signatures.

A check returns None when the job's exit code and output are right, and a
``Failure`` otherwise. A failure carries the id of the known seed defect it
matches (see ``expectations.json``), or None when it is unexpected; the
benchmark reports ``correct: false`` only for unexpected failures, so a
new bug shows as a wrong run while a fix of a listed defect shows as a
lower failure count. Each check names a known defect only when the
failure lies inside that defect's documented envelope; anything beyond it
is unexpected.

Every reference value comes from ``reference.py`` or from the generated
arrays themselves; nothing here calls psilab.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

import reference as ref

ROW_RTOL = 1e-6  # blowup rows against the closed forms
CONST_RTOL = 1e-10
MEASURE_RTOL = 1e-9  # sums of weights, areas and shell volumes

# deep-lambda-accuracy: the envelope of the seed's loss of accuracy in a blowup row
QUAD_EPSABS = 1.49e-8  # scipy quad's default absolute tolerance, kept by the planar integral
EPS = sys.float_info.epsilon  # 1 - (1 - 1/lam^2)^a and 1 - w0 lose digits like EPS lam^2
LAMBDA_ZERO = 2.0**27  # from here on 1 - 1/lam^2 rounds to 1 and the surface energy to 0
# plane-quad-collapse-near-p2: quad returns almost nothing for 2 - p below about 1.2e-5
P2_WINDOW = 2e-5
# egn-gamma-overflow: psilab's gamma is inf once log-gamma of its argument reaches 709
GAMMA_LOG_OVERFLOW = 708.0


@dataclass
class Failure:
    reason: str
    defect: str | None = None
    waved: int = 0  # blowup rows let through as the known defect


@dataclass
class Result:
    """What one ``dispatch`` call did: its exit code or the exception it raised."""

    rc: int | None
    exc: BaseException | None
    stderr: str
    out_path: str


class Mismatch(Exception):
    """Raised inside a check when the output disagrees with its oracle.

    ``defect`` names the known seed defect the disagreement lies within,
    None for an unexpected one.
    """

    def __init__(self, reason, defect=None, waved=0):
        super().__init__(reason)
        self.defect = defect
        self.waved = waved


def _close(got, want, rtol, what):
    if not (isinstance(got, (int, float)) and math.isfinite(got) and abs(got - want) <= rtol * abs(want)):
        raise Mismatch(f"{what}: got {got!r}, want {want!r} (rtol {rtol})")


def _reject_constant(tok):
    raise Mismatch(f"non-JSON token {tok}")


def _load_json(path, allow_nonfinite=False):
    with open(path) as fh:
        text = fh.read()
    # reject the non-standard NaN / Infinity tokens Python's json would accept
    return json.loads(text) if allow_nonfinite else json.loads(text, parse_constant=_reject_constant)


def _expect_exit(res: Result, code: int):
    if res.exc is not None:
        raise Mismatch(f"uncaught {type(res.exc).__name__}: {res.exc}")
    if res.rc != code:
        raise Mismatch(f"exit {res.rc}, want {code}: {res.stderr.strip()[:200]}")


def run_check(check, job, res: Result) -> Failure | None:
    try:
        check(job, res)
    except Mismatch as exc:
        return Failure(str(exc), exc.defect, exc.waved)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        # unreadable or malformed output
        return Failure(f"{type(exc).__name__}: {exc}")
    return None


# ---------------------------------------------------------------------------
# verify


def check_verify(job, res: Result):
    _expect_exit(res, 0)
    reports = _load_json(res.out_path)
    if len(reports) != 1:
        raise Mismatch(f"{len(reports)} reports, want 1")
    rep = reports[0]
    if rep["inequality_id"] != job.expect["id"]:
        raise Mismatch(f"inequality {rep['inequality_id']}, want {job.expect['id']}")
    if rep["pass"] is not True:
        raise Mismatch(f"admissible check did not pass: ratio {rep['ratio']}")
    if not math.isfinite(rep["ratio"]):
        raise Mismatch(f"ratio {rep['ratio']} is not finite")
    if "area" in job.expect:  # iso: lhs^2 is the whole mesh area
        _close(rep["lhs"] ** 2, job.expect["area"], MEASURE_RTOL, "isoperimetric lhs^2 vs mesh area")
    if "support_area" in job.expect:
        _close(rep["inputs"]["support_area"], job.expect["support_area"], MEASURE_RTOL, "support area")


def check_verify_nofield(job, res: Result):
    if job.expect["needs_field"]:
        if isinstance(res.exc, AttributeError):
            raise Mismatch(f"uncaught AttributeError: {res.exc}", "verify-without-field-attributeerror")
        _expect_exit(res, 2)
    else:
        check_verify(job, res)


# ---------------------------------------------------------------------------
# curvature


def check_curvature(job, res: Result):
    _expect_exit(res, 0)
    e = job.expect
    if job.fmt == "json":
        out = _load_json(res.out_path)
        h = np.asarray(out["h_norm"], dtype=float)
        areas = np.asarray(out["vertex_areas"], dtype=float)
        boundary = np.asarray(out["boundary"])
        _close(out["unit_sphere_reference"], 2.0 * math.sqrt(4.0 * math.pi), 1e-12, "unit sphere reference")
        total = out["total_mean_curvature"]
    else:
        cols = np.loadtxt(res.out_path, delimiter=",", skiprows=1, ndmin=2)
        if not np.array_equal(cols[:, 0], np.arange(len(cols))):
            raise Mismatch("vertex_index column is not 0..n-1")
        h, areas, boundary = cols[:, 1], cols[:, 2], cols[:, 3]
        total = math.sqrt(float(np.sum(areas * h * h)))
    if len(h) != e["vertices"] or len(areas) != e["vertices"]:
        raise Mismatch(f"{len(h)} vertex rows, want {e['vertices']}")
    if np.any(boundary != 0):
        raise Mismatch("closed mesh reported boundary vertices")
    # mixed Voronoi areas partition the surface exactly
    _close(float(areas.sum()), e["area"], MEASURE_RTOL, "sum of vertex areas vs mesh area")
    err = float(np.max(np.abs(h - 2.0)))
    if not err <= e["h_tol"]:
        raise Mismatch(f"max ||H| - 2| = {err}, tolerance {e['h_tol']}")
    _close(total, 2.0 * math.sqrt(e["area"]), e["h_tol"], "total mean curvature vs 2 sqrt(area)")


# ---------------------------------------------------------------------------
# rearrange


def _profile(job, res: Result):
    if job.fmt == "json":
        out = _load_json(res.out_path)
        want = {"kind": job.expect["target"], "n": 2}
        if out["target"]["kind"] != want["kind"] or out["target"]["n"] != 2:
            raise Mismatch(f"target {out['target']}, want {want}")
        if out["interpolation"] != job.expect["interpolation"]:
            raise Mismatch(f"interpolation {out['interpolation']}")
        radii, values = np.asarray(out["radii"], dtype=float), np.asarray(out["values"], dtype=float)
    else:
        cols = np.loadtxt(res.out_path, delimiter=",", skiprows=1, ndmin=2)
        radii, values = cols[:, 0], cols[:, 1]
    if not (np.all(np.isfinite(radii)) and np.all(np.isfinite(values))):
        raise Mismatch("non-finite knot")
    if np.any(np.diff(radii) <= 0) or np.any(np.diff(values) > 0) or np.any(values < 0):
        raise Mismatch("profile is not a non-increasing function of increasing radii")
    return radii, values


def check_rearrange(job, res: Result):
    """Step: exact L^p preservation and equimeasurability. Linear: support volume."""
    _expect_exit(res, 0)
    radii, values = _profile(job, res)
    job.sizes["knots"] = int(radii.size)
    e = job.expect
    coef = e["volume_coefficient"]  # ball volume a r^2
    v, w = e["values"], e["weights"]
    pos = v > 0
    total = float(w[pos].sum())
    vol = coef * radii**2
    if e["interpolation"] == "step":
        shells = np.diff(np.concatenate([[0.0], vol]))
        for p in (1.0, 2.0):
            _close(float(np.sum(shells * values**p)), float(np.sum(w * v**p)), MEASURE_RTOL, f"L^{p:g} mass")
        if e["exact_levels"]:
            levels, inv = np.unique(-v[pos], return_inverse=True)
            cum = np.cumsum(np.bincount(inv, weights=w[pos]))
            if levels.size != values.size or np.any(-levels != values):
                raise Mismatch(f"{values.size} levels, want the {levels.size} distinct positive values")
            if np.any(np.abs(vol - cum) > MEASURE_RTOL * total):
                raise Mismatch("superlevel measures differ from the cumulative sample weights")
        else:
            # distribution function at thresholds between consecutive output levels
            gaps = values[:-1] - values[1:]
            t = (0.5 * (values[:-1] + values[1:]))[gaps > 1e-9 * values[0]]
            order = np.argsort(v)
            cw = np.concatenate([[0.0], np.cumsum(w[order])])
            mass = cw[-1] - cw[np.searchsorted(v[order], t, side="right")]
            idx = np.searchsorted(-values, -t, side="left") - 1  # last knot with value > t
            if np.any(np.abs(vol[idx] - mass) > MEASURE_RTOL * total):
                raise Mismatch("superlevel measures differ from the sample distribution function")
    else:
        if radii[0] != 0.0 or values[-1] != 0.0:
            raise Mismatch("linear profile must start at radius 0 and end at value 0")
        if e["exact_levels"] and values[0] != v.max():
            raise Mismatch(f"linear profile starts at {values[0]!r}, not the sample maximum {v.max()!r}")
    _close(float(vol[-1]), total, MEASURE_RTOL, "support volume vs positive-sample weight")


KNOWN_ACCEPTED = {"invalid-off-nan": "off-nan-coordinate-accepted", "invalid-samples-nan": "samples-nan-value-accepted"}


def check_invalid(job, res: Result):
    """Malformed input: the documented result is exit 2 with a one-line message."""
    if res.exc is None and res.rc == 0 and job.kind in KNOWN_ACCEPTED:
        raise Mismatch(f"{job.kind} input accepted with exit 0", KNOWN_ACCEPTED[job.kind])
    _expect_exit(res, 2)
    if not res.stderr.startswith("psilab: "):
        raise Mismatch(f"exit 2 without a 'psilab:' message: {res.stderr[:200]!r}")


# ---------------------------------------------------------------------------
# counterexample and constants


def _rows(job, res: Result):
    if job.fmt == "json":
        out = _load_json(res.out_path)
        rows = out["rows"]
        lam_bar = out.get("lambda_bar", {}).get("value")
    else:
        lam_bar = None  # threshold jobs write JSON
        with open(res.out_path) as fh:
            header, *lines = fh.read().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    return rows, lam_bar


def _num(x):
    if x in ("inf", "divergent") or x is None:
        return x
    return float(x)


def _row_envelope(lam: float, p: float) -> dict:
    """Relative error per column that the deep-lambda-accuracy defect explains.

    The surface energy cancels in 1 - (1 - 1/lam^2)^((p+1)/2), the planar
    one in 1 - w0, both like EPS lam^2 (measured up to 0.6 of it); the
    planar quadrature also keeps quad's absolute tolerance on an integral
    that shrinks with lam (measured within QUAD_EPSABS / core). The
    curvature term is accurate at every lambda, so it has no envelope.
    """
    cancel = EPS * lam * lam
    env = {"surface_grad_p": cancel, "curvature_term": 0.0}
    if p < 2.0:
        plane = QUAD_EPSABS / ref.plane_core(lam, p) + cancel
        env.update({"plane_grad_p": plane, "ratio": plane + cancel, "gradient_ratio": plane + cancel})
    return env


PLANE_COLUMNS = ("plane_grad_p", "ratio", "gradient_ratio")


def _near_p2(p):
    return 0.0 < 2.0 - p < P2_WINDOW


def _check_row(row, lam, p):
    """Checks one row; returns the defect its within-envelope deviations show, or None.

    A column off by more than ROW_RTOL plus its envelope raises an
    unexpected Mismatch.
    """
    want = ref.blowup_row(lam, p)
    _close(_num(row["lambda"]), lam, 0.0, "lambda")
    if want["plane_grad_p"] is None:
        if row["plane_grad_p"] != "divergent" or row["ratio"] != "inf" or row["gradient_ratio"] != "inf":
            raise Mismatch("p >= 2 must report a divergent planar energy and infinite ratios")
        keys = ("surface_grad_p", "curvature_term")
    else:
        keys = ("surface_grad_p", "curvature_term", *PLANE_COLUMNS)
    env = _row_envelope(lam, p)
    defect = None
    for key in keys:
        got = _num(row[key])
        try:
            _close(got, want[key], ROW_RTOL, key)
            continue
        except Mismatch as exc:
            if key in PLANE_COLUMNS and _near_p2(p):
                defect = "plane-quad-collapse-near-p2"
                continue
            if env[key] == 0.0:
                raise
            try:
                _close(got, want[key], ROW_RTOL + env[key], key)
            except Mismatch:
                raise Mismatch(f"lambda {lam:.6g}: {exc}, beyond the deep-lambda envelope {env[key]:.3g}") from None
            defect = defect or "deep-lambda-accuracy"
    return defect


def check_sweep(job, res: Result):
    e = job.expect
    _expect_exit(res, 0)
    rows, _ = _rows(job, res)
    if len(rows) != len(e["lams"]):
        raise Mismatch(f"{len(rows)} rows, want {len(e['lams'])}")
    waved = []
    for row, lam in zip(rows, e["lams"]):
        if e.get("mesh_energy") is not None:
            _check_mesh_row(row, lam, e)
        defect = _check_row(row, lam, e["p"])
        if defect is not None:
            waved.append((lam, defect))
    if waved:
        defects = {d for _, d in waved}
        defect = "plane-quad-collapse-near-p2" if "plane-quad-collapse-near-p2" in defects else "deep-lambda-accuracy"
        raise Mismatch(f"{len(waved)} rows within the {defect} envelope, first at lambda {waved[0][0]:.6g}",
                       defect, len(waved))


def _check_mesh_row(row, lam, e):
    got = _num(row["mesh_surface"])
    want = e["mesh_energy"](lam)
    _close(got, want, 1e-9, f"lambda {lam:.6g}: mesh_surface vs P1 energy on the icosphere")
    surface = ref.surface_grad_p(lam, e["p"])
    flagged = lam > 20.0 or abs(got - surface) / surface > 0.05
    if str(row["flagged"]).lower() not in (("true", "1") if flagged else ("false", "0")):
        raise Mismatch(f"lambda {lam:.6g}: flagged {row['flagged']}, want {flagged}")


def _root_tolerance(lam: float, p: float) -> float:
    """Relative shift of the threshold that the row envelope allows at lam.

    The ratio's envelope over the slope of log(ratio) in log(lambda), which
    is about 2p - 2 for large lambda and so small near p = 1.
    """
    return _row_envelope(lam, p)["ratio"] / max(ref.log_ratio_slope(lam, p), 1e-3)


def check_threshold(job, res: Result):
    e = job.expect
    want, p = e["lambda_bar"], e["p"]
    if res.exc is None and res.rc == 2 and "division by zero" in res.stderr:
        if _near_p2(p):
            raise Mismatch("division by zero after the planar quadrature collapsed", "plane-quad-collapse-near-p2")
        # the walk (factor 1.1) divides by the zero surface energy once it reaches
        # LAMBDA_ZERO, which it does when its own root (want, within the envelope) lies beyond
        if want is None or (p < 2.0 and 1.1 * want * (1.0 + _root_tolerance(want, p)) >= LAMBDA_ZERO):
            raise Mismatch("division by zero: the walk reached the cancelled surface energy",
                           "lambda-bar-division-by-zero")
    if want is None:
        # no threshold below the 1e12 search ceiling: a domain error that says so
        _expect_exit(res, 2)
        if "threshold" not in res.stderr:
            raise Mismatch(f"no-threshold case reported {res.stderr.strip()[:200]!r}")
        return
    _expect_exit(res, 0)
    rows, lam_bar = _rows(job, res)
    defect = _check_row(rows[0], e["lams"][0], p)
    if not isinstance(lam_bar, float):
        raise Mismatch(f"lambda_bar {lam_bar!r} is not a number")
    # the search returns the upper end of a bracket narrower than 5e-4 relative
    if not lam_bar * (1 - 5e-4) * (1 - 1e-6) <= want <= lam_bar * (1 + 1e-6):
        miss = f"lambda_bar {lam_bar!r} does not bracket the reference root {want!r}"
        if _near_p2(p):
            raise Mismatch(miss, "plane-quad-collapse-near-p2")
        tol = _root_tolerance(want, p)
        if not lam_bar * (1 - 5e-4) * (1 - tol) <= want <= lam_bar * (1 + tol):
            raise Mismatch(f"{miss}, beyond the deep-lambda envelope {tol:.3g}")
        raise Mismatch(f"{miss}, within the deep-lambda envelope {tol:.3g}", "deep-lambda-accuracy")
    if defect is not None:
        raise Mismatch("lambda 10 row within an envelope", defect, 1)


def _egn_gamma_overflows(n, p, q) -> bool:
    """Whether the corrected EGN's numerator gamma, the larger of its two, overflows in psilab."""
    return bool(gammaln(q * (p - 1.0) / (q - p)) >= GAMMA_LOG_OVERFLOW)


def check_constants(job, res: Result):
    e = job.expect
    with_q = e["q"] is not None
    if with_q and isinstance(res.exc, TypeError) and "complex" in str(res.exc):
        raise Mismatch(f"uncaught TypeError: {res.exc}", "egn-literal-complex")
    _expect_exit(res, 0)
    out = _load_json(res.out_path, allow_nonfinite=True)
    table = ref.constants_table(e["n"], e["K"], e["p"], e["q"])
    overflow = []
    for key, want in table.items():
        if want is None:
            if out.get(key) is not None:
                raise Mismatch(f"{key} should be null")
            continue
        got = out[key]
        if key in ("EGN", "GN") and isinstance(got, float) and not math.isfinite(got) \
                and _egn_gamma_overflows(e["n"], e["p"], e["q"]):
            overflow.append(key)
            continue
        _close(got, want, CONST_RTOL, key)
    for key, value in out.items():
        if isinstance(value, float) and not math.isfinite(value) and key not in overflow:
            raise Mismatch(f"{key} is {value}, written as a non-JSON token")
    if overflow:
        raise Mismatch(f"{' and '.join(overflow)} non-finite through the gamma overflow", "egn-gamma-overflow")
