"""Closed-form constants for the submanifold functional inequalities.

The exact isoperimetric constant of n-dimensional submanifolds is an open
problem; only its two published upper bounds are offered here, selectable
per call (Michael-Simon's 5^n bound or Brendle's codimension-dependent
constant). Where the printed source formulas contain apparent misprints
(the Gagliardo-Nirenberg constant and the spectral-gap constant), both a
literal and a corrected reading are exposed side by side; the corrected
readings are the ones validated by the extremal-equality oracles in
:mod:`psilab.verify`.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum

from .errors import ComplexValued, CurvatureBoundViolated, GammaPole
from .special_fn import bessel_first_zero, log_gamma, log_unit_ball_volume

__all__ = [
    "IsoperimetricChoice",
    "brendle",
    "Reading",
    "TcConvention",
    "ic_upper_bound",
    "brendle_constant",
    "iso_constant",
    "ps_constant",
    "talenti_constant",
    "gn_beta",
    "gn_theta",
    "gn_r_exponent",
    "egn_constant",
    "log_sobolev_constant",
    "spectral_gap_constant",
    "asymptotic_ratio",
    "tc_unit_sphere",
    "sobolev_conjugate",
    "build_constants_table",
]


class Reading(Enum):
    """The printed (literal) or the repaired (corrected) form of a misprint-suspect constant: the
    Gagliardo-Nirenberg constant and the spectral-gap constant."""

    LITERAL = "literal"
    CORRECTED = "corrected"


class TcConvention(Enum):
    PAPER_FORMULA = "paper"
    TRACE_DERIVED = "trace"


def _n_omega_root(n: int) -> float:
    """n * omega_n^(1/n), evaluated through logs so large n stays finite."""
    return n * math.exp(log_unit_ball_volume(n) / n)


@dataclass(frozen=True)
class IsoperimetricChoice:
    """Which upper bound stands in for the (uncomputable) isoperimetric constant: Brendle's in codimension
    ``m``, or Michael-Simon's where ``m`` is None.

    ``value(n)`` returns the constant C; ``euclidean_product(n)`` returns
    C * n * omega_n^(1/n), which is exactly 1 for Brendle in codimension 1
    and 2 (the cancellation is done algebraically, not in floating point).
    """

    m: int | None = None

    def __post_init__(self):
        if self.m is not None:
            _check_codimension(self.m)

    def value(self, n: int) -> float:
        return ic_upper_bound(n) if self.m is None else brendle_constant(n, self.m)

    def euclidean_product(self, n: int) -> float:
        _check_dimension(n)
        if self.m in (1, 2):
            return 1.0
        return self.value(n) * _n_omega_root(n)

    def label(self) -> str:
        return "michael-simon" if self.m is None else f"brendle:{self.m}"

    @classmethod
    def from_label(cls, text: str) -> IsoperimetricChoice:
        """The choice whose ``label()`` is ``text``, the value of ``--iso``."""
        if text == "michael-simon":
            return cls()
        if text.startswith("brendle:"):
            try:
                m = int(text.split(":", 1)[1])
            except ValueError:
                pass  # not a codimension: refused below
            else:
                return cls(m)
        raise ValueError(f"--iso must be michael-simon or brendle:m, got {text!r}")


def brendle(m: int) -> IsoperimetricChoice:
    _check_codimension(m)  # None here would be Michael-Simon's choice
    return IsoperimetricChoice(m)


def _check_codimension(m: int | None) -> None:
    """Refuse a Brendle codimension m that is missing or below 1."""
    if m is None or m < 1:
        raise ValueError("Brendle choice requires codimension m >= 1")


def _check_dimension(n: int) -> None:
    """Refuse a submanifold dimension n below 2, the least the constants and the model space are stated for."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")


def _check_curvature_bound(K: float, C: float) -> float:
    """Refuse a total-curvature bound K outside [0, 1/C), the paper's hypothesis on K; return C."""
    if not 0 <= K < 1.0 / C:
        raise CurvatureBoundViolated(f"K = {K} is not in [0, 1/C) with 1/C = {1.0 / C}")
    return C


def _check_p_range(n: int, p: float) -> float:
    """p as a Python float, refused outside (1, n), the range of the Sobolev, GN and log-Sobolev inequalities."""
    if not 1.0 < p < n:
        raise ValueError(f"requires 1 < p < n, got p = {p}, n = {n}")
    return float(p)


def _check_gn_domain(n: int, p: float, q: float) -> tuple[float, float]:
    """(p, q) as Python floats, refused outside 1 < p < n, p < q <= p(n-1)/(n-p), the Gagliardo-Nirenberg range."""
    p = _check_p_range(n, p)
    q_max = p * (n - 1.0) / (n - p)
    if not p < q <= q_max + 1e-12:
        raise ValueError(f"requires p < q <= p(n-1)/(n-p) = {q_max}, got q = {q}")
    return p, float(q)


def ic_upper_bound(n: int) -> float:
    """Michael-Simon's bound 5^n / omega_n^(1/n) on the isoperimetric constant, +inf past the double range
    (from n = 440), so that Brendle's minimum picks its general form there."""
    _check_dimension(n)
    try:
        return 5.0**n * math.exp(-log_unit_ball_volume(n) / n)
    except OverflowError:  # 5^n itself, from n = 441
        return math.inf


def brendle_constant(n: int, m: int) -> float:
    """Brendle's explicit isoperimetric constant B(n, m)."""
    _check_dimension(n)
    _check_codimension(m)
    if m in (1, 2):
        return 1.0 / _n_omega_root(n)
    # (1/n) (m omega_m / ((n+m) omega_(n+m)))^(1/n), through logs: omega_(n+m) underflows from n ~ 440
    general = math.exp((math.log(m / (n + m)) + log_unit_ball_volume(m) - log_unit_ball_volume(n + m)) / n) / n
    return min(general, ic_upper_bound(n))


def iso_constant(n: int, K: float, choice: IsoperimetricChoice) -> float:
    """C / (1 - C*K): the curvature-penalized isoperimetric constant."""
    c = _check_curvature_bound(K, choice.value(n))
    return c / (1.0 - c * K)


def ps_constant(n: int, K: float, choice: IsoperimetricChoice) -> float:
    """Multiplicative constant of the rearrangement gradient inequality.

    Equals C*n*omega_n^(1/n) / (1 - C*K); exactly 1 at K = 0 for Brendle
    in codimension 1 or 2.
    """
    c = _check_curvature_bound(K, choice.value(n))
    return choice.euclidean_product(n) / (1.0 - c * K)


def talenti_constant(n: int, p: float) -> float:
    """Talenti's sharp constant for the Euclidean p-Sobolev inequality."""
    p = _check_p_range(n, p)
    return (
        1.0
        / (math.sqrt(math.pi) * n ** (1.0 / p))
        * ((p - 1.0) / (n - p)) ** (1.0 - 1.0 / p)
        * math.exp(
            (log_gamma(1.0 + 0.5 * n) + log_gamma(float(n)) - log_gamma(n / p) - log_gamma(1.0 + n - n / p))
            / n
        )
    )


def sobolev_conjugate(n: int, p: float) -> float:
    if not 1.0 <= p < n:
        raise ValueError(f"requires 1 <= p < n, got p = {p}, n = {n}")
    p = float(p)
    return n * p / (n - p)


def gn_beta(n: int, p: float, q: float) -> float:
    p, q = _check_gn_domain(n, p, q)
    return n * p - q * (n - p)


def gn_theta(n: int, p: float, q: float) -> float:
    """Interpolation exponent of the Gagliardo-Nirenberg inequality, in (0, 1]."""
    p, q = _check_gn_domain(n, p, q)
    return n * (q - p) / ((q - 1.0) * gn_beta(n, p, q))


def gn_r_exponent(n: int, p: float, q: float) -> float:
    p, q = _check_gn_domain(n, p, q)
    return p * (q - 1.0) / (p - 1.0)


def egn_constant(n: int, p: float, q: float, reading: Reading = Reading.CORRECTED) -> float:
    """Sharp Euclidean Gagliardo-Nirenberg constant, in two readings.

    ``LITERAL`` evaluates the printed formula exactly as it stands: gamma
    numerator argument q(p-1)/(1-p) (a pole for every integer q) and middle
    factor (pq / n(q-p))^(1-theta). Where gamma is negative there, the
    printed fractional power of the gamma quotient is complex and
    ``ComplexValued`` is raised.

    ``CORRECTED`` is the gamma-corrected form validated by the extremal
    oracle: gamma argument q(p-1)/(q-p) and middle-factor exponent theta/p.
    It reproduces equality for the explicit extremal family to quadrature
    precision and degenerates to the Talenti constant at the endpoint
    q = p(n-1)/(n-p).
    """
    p, q = _check_gn_domain(n, p, q)
    beta = gn_beta(n, p, q)
    theta = gn_theta(n, p, q)
    r = gn_r_exponent(n, p, q)
    if reading is Reading.LITERAL:
        num_arg = q * (p - 1.0) / (1.0 - p)
        mid_exp = 1.0 - theta
    else:
        num_arg = q * (p - 1.0) / (q - p)
        mid_exp = theta / p
    if num_arg <= 0:
        if abs(num_arg - round(num_arg)) < 1e-12:
            raise GammaPole(f"EGN numerator: gamma pole at argument {num_arg}")
        if math.floor(num_arg) % 2:
            # gamma is negative on (-1, 0), (-3, -2), ...
            raise ComplexValued(f"EGN numerator: gamma({num_arg}) < 0 under a fractional power")
    t1 = ((q - p) / (p * math.sqrt(math.pi))) ** theta
    t2 = (p * q / (n * (q - p))) ** mid_exp
    t3 = (beta / (p * q)) ** (1.0 / r)
    # the gamma quotient through log-gamma: the corrected arguments grow like 1/(q - p)
    log_quotient = (
        math.lgamma(num_arg)
        + math.lgamma(0.5 * n + 1.0)
        - math.lgamma((p - 1.0) * beta / (p * (q - p)))
        - math.lgamma(n * (p - 1.0) / p + 1.0)
    )
    return t1 * t2 * t3 * math.exp(log_quotient * theta / n)


def log_sobolev_constant(n: int, p: float) -> float:
    """Sharp constant of the p-log-Sobolev inequality for minimal submanifolds."""
    p = _check_p_range(n, p)
    return (
        p
        / (n * math.pi ** (0.5 * p))
        * ((p - 1.0) / math.e) ** (p - 1.0)
        * math.exp((log_gamma(0.5 * n + 1.0) - log_gamma(n * (p - 1.0) / p + 1.0)) * p / n)
    )


def spectral_gap_constant(
    n: int,
    K: float,
    choice: IsoperimetricChoice,
    reading: Reading = Reading.CORRECTED,
) -> float:
    """Constant of the spectral-gap (Faber-Krahn style) lower bound.

    ``LITERAL`` is the printed j * omega_n^(2/n) / PS; ``CORRECTED``, the
    Faber-Krahn consistent reading, squares both the Bessel zero and the
    rearrangement constant, which is the variant reproducing equality on the
    Euclidean ball for the first Dirichlet eigenfunction.
    """
    ps = ps_constant(n, K, choice)
    j = bessel_first_zero(0.5 * n - 1.0)
    w = math.exp(2.0 * log_unit_ball_volume(n) / n)  # omega_n^(2/n); omega_n itself underflows from n ~ 450
    if reading is Reading.LITERAL:
        return j * w / ps
    return j * j * w / (ps * ps)


def asymptotic_ratio(n: int, K: float) -> float:
    """n*omega_n^(1/n) / (n*omega_n^(1/n) - K), through log-gamma for large n; K in [0, n*omega_n^(1/n))."""
    _check_dimension(n)
    x = _n_omega_root(n)
    _check_curvature_bound(K, 1.0 / x)
    return x / (x - K)


def tc_unit_sphere(n: int, convention: TcConvention = TcConvention.TRACE_DERIVED) -> float:
    """Total mean curvature of the unit n-sphere, in two conventions.

    The trace convention has |H| = n on the unit sphere and surface measure
    (n+1)*omega_{n+1}, giving n*((n+1)*omega_{n+1})^(1/n); the source's
    closing remark prints n*(n*omega_n)^(1/n) instead. Both tend to the
    reciprocal of the codimension-one Brendle constant as n grows.
    """
    _check_dimension(n)
    k = n if convention is TcConvention.PAPER_FORMULA else n + 1
    return n * math.exp((math.log(k) + log_unit_ball_volume(k)) / n)  # n (k omega_k)^(1/n), finite for large n


def build_constants_table(
    n: int,
    K: float,
    choice: IsoperimetricChoice,
    p: float | None = None,
    q: float | None = None,
) -> dict:
    """The constants table, a row per named constant after the configuration (n, K, the choice's label, p,
    q); optional (p, q) unlock the p-dependent rows.

    Construction fails with CurvatureBoundViolated when K is outside [0, 1/C), and with ValueError on a
    non-finite p or q; a finite p outside (1, n) only leaves out the rows that need it.
    """
    for name, value in (("p", p), ("q", q)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value}")
    p, q = (None if value is None else float(value) for value in (p, q))
    table: dict = {
        "n": n,
        "K": K,
        "iso_choice": choice.label(),
        "p": p,
        "q": q,
        "C": choice.value(n),
        "I": iso_constant(n, K, choice),
        "PS": ps_constant(n, K, choice),
        "asymptotic_ratio": None,
        "tc_sphere_trace": tc_unit_sphere(n, TcConvention.TRACE_DERIVED),
        "tc_sphere_paper": tc_unit_sphere(n, TcConvention.PAPER_FORMULA),
        "spectral_gap": spectral_gap_constant(n, K, choice),
        "spectral_gap_literal": spectral_gap_constant(n, K, choice, Reading.LITERAL),
    }
    with suppress(ValueError):  # K at or past n*omega_n^(1/n) leaves the ratio out
        table["asymptotic_ratio"] = asymptotic_ratio(n, K)
    if p is not None:
        with suppress(ValueError):  # a p outside (1, n) leaves out the rows that need it
            table["TA"] = talenti_constant(n, p)
            table["S"] = table["TA"] * table["PS"]
            table["LS"] = log_sobolev_constant(n, p)
        if q is not None:
            table["theta"] = gn_theta(n, p, q)
            table["r"] = gn_r_exponent(n, p, q)
            table["EGN"] = egn_constant(n, p, q, Reading.CORRECTED)
            try:
                table["EGN_literal"] = egn_constant(n, p, q, Reading.LITERAL)
            except GammaPole:
                table["EGN_literal"] = "gamma-pole"
            except ComplexValued:
                table["EGN_literal"] = "complex"
            table["GN"] = table["EGN"] * table["PS"]
    return table
