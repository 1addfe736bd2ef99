"""Schwartz rearrangement over weighted samples, with two radial target measures.

A nonnegative function on an arbitrary measure space enters as a finite list
of (value, weight) samples. Its rearrangement is the radially symmetric
non-increasing profile on the target measure whose superlevel sets carry the
same mass: sort the distinct values downward, accumulate weights, and place
each level at the radius whose ball has exactly that accumulated volume.

``rearrange`` does this in one pass. The sort is numpy's default, unstable
one, with each run of equal values then put back in input order, which
gives the stable permutation and so the same weight sums to the last bit.

A target is a power measure, balls of volume V(r) = a r^n, held by n and
log a so that its volumes stay finite at large n. Only its two constructors
know a kind: ``lebesgue(n)`` (a = omega_n) and ``model_space(n, K, C)``, the
half-line measure with density (1/C - K)^n r^(n-1) / n^(n-1). With K = 0 and
C = 1/(n omega_n^(1/n)) the two coincide, so the model rearrangement
reproduces the Euclidean one knot for knot. The mesh verifiers read no target.

Profile integrals are exact sums where the integrand is piecewise constant:
L^p norms of step profiles and gradient p-energies, whose slope is constant
on each segment. The L^p norm of a linear profile goes through
``_radial_integral``, which applies one Gauss-Legendre rule of
max(24, n//2 + 8) nodes to all segments at once, graded toward the end of
a segment that ends at 0.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import xlogy

from ._table import format_table, read_table
from .errors import InterpolationMismatch, require_order
from .constants import _check_curvature_bound
from .special_fn import _check_dimension, log_unit_ball_volume

__all__ = [
    "DiscreteMeasuredFunction",
    "TargetKind",
    "TargetMeasure",
    "lebesgue",
    "model_space",
    "Interpolation",
    "RadialProfile",
    "distribution_function",
    "rearrange",
    "lp_norm",
    "gradient_energy",
]


@dataclass(frozen=True)
class DiscreteMeasuredFunction:
    """Nonnegative function known through weighted value samples.

    ``weights`` are measure masses in the source space's own units; every
    superlevel set {f > t}, t > 0, automatically has finite measure because
    the sample count is finite.
    """

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if values.ndim != 1 or weights.ndim != 1 or values.shape != weights.shape:
            raise ValueError("values and weights must be 1-d arrays of equal length")
        if values.size == 0:
            raise ValueError("at least one sample is required")
        # NaN and +-inf carry through min and max, so four reductions serve every check below
        lo, hi, w_lo, w_hi = values.min(), values.max(), weights.min(), weights.max()
        if not np.isfinite([lo, hi, w_lo, w_hi]).all():
            raise ValueError("sample values and weights must be finite")
        if lo < 0:
            raise ValueError("sample values must be >= 0")
        if w_lo <= 0:
            raise ValueError("sample weights must be > 0")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_samples(cls, samples) -> "DiscreteMeasuredFunction":
        arr = np.asarray(list(samples), dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("samples must be rows of two numbers, value and weight")
        return cls(arr[:, 0], arr[:, 1])

    @classmethod
    def from_csv(cls, stream) -> "DiscreteMeasuredFunction":
        """Read samples from CSV with a ``value,weight`` header."""
        values, weights = read_table(stream, "value,weight")
        if not values.size:
            raise ValueError("no samples in CSV")
        return cls(values, weights)

    def to_csv(self) -> str:
        return format_table("value,weight", self.values, self.weights)

    def total_weight(self) -> float:
        return float(np.sum(self.weights))

    def max_value(self) -> float:
        return float(np.max(self.values))


class TargetKind(Enum):
    LEBESGUE_RN = "lebesgue"
    MODEL_SPACE = "model"


@dataclass(frozen=True)
class TargetMeasure:
    """Radial power measure: balls have volume V(r) = a * r^n, with density n * a * r^(n-1).

    Held by n, log a (a leaves the double range at large n) and ``label``, the (key, value) pairs of its
    JSON description, which ``lebesgue`` and ``model_space`` write after their refusals.
    """

    n: int
    log_a: float
    label: tuple[tuple[str, object], ...]

    def ball_volume(self, r):
        """Measure of the ball (interval) of radius r: exp(log a + n log r)."""
        return np.exp(self.log_a + xlogy(self.n, np.asarray(r, dtype=float)))

    def ball_radius(self, v):
        """Inverse of ball_volume: v^(1/n) exp(-log(a) / n)."""
        return np.asarray(v, dtype=float) ** (1.0 / self.n) * math.exp(-self.log_a / self.n)

    def density(self, r):
        """Radial density, d/dr of ball_volume: exp(log n + log a + (n - 1) log r)."""
        log_na = math.log(self.n) + self.log_a
        return np.exp(log_na + xlogy(self.n - 1, np.asarray(r, dtype=float)))


def lebesgue(n: int) -> TargetMeasure:
    return TargetMeasure(n, log_unit_ball_volume(n), (("kind", TargetKind.LEBESGUE_RN.value), ("n", n)))


def model_space(n: int, K: float, C: float) -> TargetMeasure:
    _check_dimension(n, 2)
    if C is None or C <= 0:
        raise ValueError("model space requires a positive constant C")
    _check_curvature_bound(K, C)
    label = (("kind", TargetKind.MODEL_SPACE.value), ("n", n), ("K", K), ("C", C))
    return TargetMeasure(n, n * math.log((1.0 / C - K) / n), label)


class Interpolation(Enum):
    RIGHT_CONTINUOUS_STEP = "step"
    PIECEWISE_LINEAR = "linear"


@dataclass(frozen=True)
class RadialProfile:
    """Non-increasing radial function against a target measure.

    ``radii`` strictly increase and ``values`` do not increase; the profile
    vanishes beyond the last knot. Step profiles take values[k] on
    [radii[k-1], radii[k]) (right endpoints); linear profiles interpolate
    between consecutive knots and should start at radius 0 and end at
    value 0 when they represent rearrangements of compactly supported data.
    """

    target: TargetMeasure
    radii: np.ndarray
    values: np.ndarray
    interpolation: Interpolation

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if radii.ndim != 1 or values.ndim != 1 or radii.shape != values.shape:
            raise ValueError("radii and values must be 1-d arrays of equal length")
        if radii.size == 0:
            raise ValueError("profile needs at least one knot")
        if not (np.isfinite(radii).all() and np.isfinite(values).all()):
            raise ValueError("radii and values must be finite")
        if radii[0] < 0 or np.any(np.diff(radii) <= 0):
            raise ValueError("radii must be nonnegative and strictly increasing")
        if np.any(values < 0) or np.any(np.diff(values) > 0):
            raise ValueError("values must be nonnegative and non-increasing")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.interpolation is Interpolation.RIGHT_CONTINUOUS_STEP:
            # values[k] on [radii[k-1], radii[k]); 0 from the last radius on
            idx = np.searchsorted(self.radii, r, side="right")
            out = np.where(idx < self.radii.size, self.values[np.minimum(idx, self.radii.size - 1)], 0.0)
        else:
            out = np.interp(r, self.radii, self.values, left=self.values[0], right=0.0)
        return out if out.ndim else float(out)

    def superlevel_measure(self, t: float) -> float:
        """Target measure of {profile > t}: the ball out to the last knot above t (step), or out to the
        last crossing of level t (linear)."""
        if not t >= 0:  # NaN too
            raise ValueError("t must be >= 0")
        radii, values = self.radii, self.values
        if self.interpolation is Interpolation.RIGHT_CONTINUOUS_STEP:
            above = np.flatnonzero(values > t)
            tau = radii[above[-1]] if above.size else 0.0
        elif t >= values[0]:
            tau = 0.0
        elif t <= values[-1]:
            tau = radii[-1]
        else:  # values non-increasing: the first index where value <= t, so v0 > t >= v1
            idx = int(np.argmax(values <= t))
            r0, r1 = radii[idx - 1], radii[idx]
            v0, v1 = values[idx - 1], values[idx]
            tau = r0 + (v0 - t) * (r1 - r0) / (v0 - v1)
        return float(self.target.ball_volume(tau))

    def to_csv(self) -> str:
        return format_table("radius,value", self.radii, self.values)

    @classmethod
    def from_csv(cls, stream, target: TargetMeasure, interpolation: Interpolation) -> "RadialProfile":
        radii, values = read_table(stream, "radius,value")
        return cls(target, radii, values, interpolation)

    def to_json(self) -> str:
        return json.dumps(
            {
                "target": dict(self.target.label),
                "interpolation": self.interpolation.value,
                "radii": self.radii.tolist(),
                "values": self.values.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "RadialProfile":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"a profile must be a JSON object, got {type(obj).__name__}")
        for key in ("target", "interpolation", "radii", "values"):
            if key not in obj:
                raise ValueError(f"a profile needs the key {key!r}")
        if not isinstance(obj["target"], dict):
            raise ValueError(f"a profile's 'target' must be a JSON object, got {type(obj['target']).__name__}")
        args = dict(obj["target"])
        kind = args.pop("kind", None)
        build = {TargetKind.LEBESGUE_RN.value: lebesgue, TargetKind.MODEL_SPACE.value: model_space}.get(kind)
        if build is None:
            raise ValueError(f"target kind must be one of {[t.value for t in TargetKind]}, got {kind!r}")
        keys = inspect.signature(build).parameters  # the label's keys are the constructor's parameters
        for key in args:
            if key not in keys:
                raise ValueError(f"a {kind} target has no key {key!r}")
        for key in keys:
            if key not in args:
                raise ValueError(f"a {kind} target needs the key {key!r}")
        for key, value in args.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"a {kind} target's {key!r} must be a number, got {value!r}")
        target = build(**args)
        return cls(target, np.asarray(obj["radii"]), np.asarray(obj["values"]), Interpolation(obj["interpolation"]))


def distribution_function(dmf: DiscreteMeasuredFunction, t: float) -> float:
    """Total weight of samples with value strictly greater than t."""
    if not t >= 0:  # NaN too
        raise ValueError("t must be >= 0")
    return float(np.sum(dmf.weights[dmf.values > t]))


def rearrange(
    dmf: DiscreteMeasuredFunction,
    target: TargetMeasure,
    interpolation: Interpolation = Interpolation.RIGHT_CONTINUOUS_STEP,
) -> RadialProfile:
    """Schwartz rearrangement of weighted samples onto the target measure.

    Samples are sorted by value downward, ties merged into one level,
    cumulative weights W_1 < ... < W_N formed, and each level v_k placed out
    to radius r_k with ball_volume(r_k) = W_k. The step profile uses these
    knots directly and is exactly equimeasurable with the input.

    The piecewise-linear profile is a quantile sketch of the same data: it
    interpolates the step profile at max(16, round(sqrt(sample count)/8))
    equal-measure radii (value v_1 at radius 0, 0 at the support radius),
    and connects the raw knots when there are no more levels than that.
    Connecting every raw knot of many samples instead would pair sampling
    noise in the values with single-sample weight gaps in the radii and blow
    the slopes up; the coarse radius grid keeps the slope field convergent
    under refinement while staying equimeasurable within one knot cell.

    One pass builds it: one unstable sort, after which each run of equal
    values is put back in input order by sorting the key run * size +
    position, so the merged weights are summed in the order of a stable
    sort; then the merge, the cumulative weights and, for a linear profile,
    the cuts and knot values; last, ``target.ball_radius`` places the knots,
    from radius 0 for a linear profile.
    """
    step = interpolation is Interpolation.RIGHT_CONTINUOUS_STEP

    def place(measures, values):  # each knot at the radius whose ball has its measure
        radii = target.ball_radius(measures)
        if not step:
            radii = np.concatenate([[0.0], radii])
        # a weight below the running sum's resolution, or a root that rounds two radii to one, places a
        # knot at its neighbour's radius; a run of such knots spans no measure, so one of them stays:
        # the first for a step profile (the others' intervals are empty), the last for a linear one (so
        # that it still ends at 0)
        keep = np.diff(radii, prepend=-np.inf) > 0 if step else np.diff(radii, append=np.inf) > 0
        if not keep.all():
            radii, values = radii[keep], values[keep]
        return RadialProfile(target, radii, values, interpolation)

    size = dmf.values.size
    order = np.argsort(dmf.values)[::-1]  # descending; equal values in no particular order yet
    v_sorted = dmf.values[order]
    # merge equal values: one knot per distinct level, each run starting where the value changes
    starts = np.flatnonzero(np.concatenate(([True], v_sorted[1:] != v_sorted[:-1])))
    levels = v_sorted[starts]  # descending
    del v_sorted
    if starts.size < size:
        # the stable order: each run back in input order, by sorting run * size + position
        # (distinct keys below size^2 < 2^63), so the weight sums below add in the same order;
        # run * size is repeated twice rather than kept, so at most two index arrays are alive
        bases, lengths = np.arange(0, starts.size * size, size, dtype=np.int64), np.diff(starts, append=size)
        key = np.repeat(bases, lengths)
        key += order
        del order
        key.sort()
        key -= np.repeat(bases, lengths)
        order = key
    merged_w = np.add.reduceat(dmf.weights[order], starts)
    # drop a zero level: it contributes no mass to any superlevel set
    keep = levels > 0
    levels = levels[keep]
    merged_w = merged_w[keep]
    if levels.size == 0:
        return place(np.array([dmf.total_weight()]), np.zeros(1 if step else 2))
    cum_w = np.cumsum(merged_w)
    if step:
        return place(cum_w, levels)
    budget = max(16, round(math.sqrt(size) / 8.0))
    if levels.size <= budget:
        return place(cum_w, np.concatenate([levels, [0.0]]))
    cuts = cum_w[-1] * np.arange(1, budget + 1) / budget
    # level still active at each cumulative-measure cut
    idx = np.searchsorted(cum_w, cuts * (1.0 - 1e-15), side="left")
    knot_v = np.concatenate([[levels[0]], np.minimum.accumulate(levels[np.minimum(idx, levels.size - 1)])])
    knot_v[-1] = 0.0
    return place(cuts, knot_v)


@functools.cache
def _unit_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only Gauss-Legendre nodes and weights of ``nodes`` points, moved to [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    rule = 0.5 * (x + 1.0), 0.5 * w
    for a in rule:
        a.setflags(write=False)
    return rule


def _radial_integral(profile: RadialProfile, fn) -> float:
    """Integral of fn(profile) against the target measure for a piecewise-linear profile.

    ``fn`` maps an array of profile values elementwise and vanishes at 0; a
    profile whose first knot lies beyond 0 is constant inside it. Each
    segment is walked back from its end b, r = b - width y; a segment that
    ends at 0 takes its rule in s, y = s^2, in which fractional powers of
    its value (b - r)^p are smooth. The rule has max(24, n//2 + 8) nodes:
    the density r^(n-1) needs more of them as n grows (24 were 2e-4 off at
    n = 300), and up to n = 33 it is the same 24-node rule.
    """
    radii = profile.radii
    values = profile.values
    target = profile.target
    total = 0.0
    if radii[0] > 0:
        total += float(fn(values[0]) * target.ball_volume(radii[0]))
    x, w = _unit_rule(max(24, target.n // 2 + 8))
    ends_at_zero = values[1:, None] == 0.0
    y = np.where(ends_at_zero, x**2, x)  # (segments, nodes)
    w = np.where(ends_at_zero, 2.0 * x * w, w)
    width = np.diff(radii)[:, None]
    r = radii[1:, None] - width * y
    vals = fn(values[1:, None] + (values[:-1] - values[1:])[:, None] * y)
    return total + float(np.sum(width * w * vals * target.density(r)))


def lp_norm(obj, p: float) -> float:
    """L^p norm of a sample set or radial profile against its own measure.

    For samples this is the exact weighted power sum; a step profile gives
    the identical sum by construction (rearrangement preserves L^p norms
    exactly), and a linear profile goes through ``_radial_integral``.
    """
    require_order(p)
    if isinstance(obj, DiscreteMeasuredFunction):
        terms = obj.values**p  # the one sample-sized temporary, weighted in place
        terms *= obj.weights
        return float(np.sum(terms)) ** (1.0 / p)
    profile: RadialProfile = obj
    if profile.interpolation is Interpolation.RIGHT_CONTINUOUS_STEP:
        vol = np.asarray(profile.target.ball_volume(profile.radii), dtype=float)
        shell = np.diff(np.concatenate([[0.0], vol]))
        return float(np.sum(shell * profile.values**p)) ** (1.0 / p)
    return _radial_integral(profile, lambda v: v**p) ** (1.0 / p)


def gradient_energy(profile: RadialProfile, p: float) -> float:
    """Gradient p-energy of a piecewise-linear radial profile (not a norm).

    The slope is constant on each segment, so the integral of |rho'|^p
    against the radial measure is |slope|^p times the shell volume, summed
    exactly. Step profiles have distributional gradients and are rejected.
    """
    require_order(p)
    if profile.interpolation is not Interpolation.PIECEWISE_LINEAR:
        raise InterpolationMismatch(
            "gradient energy needs a piecewise-linear profile; step profiles have no gradient"
        )
    vol = np.asarray(profile.target.ball_volume(profile.radii), dtype=float)
    slope = np.abs(np.diff(profile.values) / np.diff(profile.radii))
    return float(np.sum(slope**p * np.diff(vol)))
