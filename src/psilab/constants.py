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
from dataclasses import dataclass, field
from enum import Enum

from .errors import ComplexValued, CurvatureBoundViolated, GammaPole
from .special_fn import gamma, log_gamma, log_unit_ball_volume, unit_ball_volume, bessel_first_zero

__all__ = [
    "IsoKind",
    "IsoperimetricChoice",
    "michael_simon",
    "brendle",
    "EgnReading",
    "SpectralReading",
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
    "ConstantsTable",
    "build_constants_table",
]


class IsoKind(Enum):
    MICHAEL_SIMON = "michael-simon"
    BRENDLE = "brendle"


class EgnReading(Enum):
    LITERAL = "literal"
    GAMMA_CORRECTED = "corrected"


class SpectralReading(Enum):
    LITERAL = "literal"
    FABER_KRAHN_CONSISTENT = "corrected"


class TcConvention(Enum):
    PAPER_FORMULA = "paper"
    TRACE_DERIVED = "trace"


def _n_omega_root(n: int) -> float:
    """n * omega_n^(1/n), evaluated through logs so large n stays finite."""
    return n * math.exp(log_unit_ball_volume(n) / n)


@dataclass(frozen=True)
class IsoperimetricChoice:
    """Which upper bound stands in for the (uncomputable) isoperimetric constant.

    ``value(n)`` returns the constant C; ``euclidean_product(n)`` returns
    C * n * omega_n^(1/n), which is exactly 1 for Brendle in codimension 1
    and 2 (the cancellation is done algebraically, not in floating point).
    """

    kind: IsoKind
    m: int | None = None

    def __post_init__(self):
        if self.kind is IsoKind.BRENDLE:
            if self.m is None or self.m < 1:
                raise ValueError("Brendle choice requires codimension m >= 1")
        elif self.m is not None:
            raise ValueError("Michael-Simon bound takes no codimension")

    def value(self, n: int) -> float:
        if self.kind is IsoKind.MICHAEL_SIMON:
            return ic_upper_bound(n)
        return brendle_constant(n, self.m)

    def euclidean_product(self, n: int) -> float:
        if self.kind is IsoKind.BRENDLE and self.m in (1, 2):
            return 1.0
        return self.value(n) * _n_omega_root(n)

    def label(self) -> str:
        if self.kind is IsoKind.MICHAEL_SIMON:
            return "michael-simon"
        return f"brendle:{self.m}"


def michael_simon() -> IsoperimetricChoice:
    return IsoperimetricChoice(IsoKind.MICHAEL_SIMON)


def brendle(m: int) -> IsoperimetricChoice:
    return IsoperimetricChoice(IsoKind.BRENDLE, m)


def ic_upper_bound(n: int) -> float:
    """Michael-Simon's bound 5^n / omega_n^(1/n) on the isoperimetric constant."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return 5.0**n * math.exp(-log_unit_ball_volume(n) / n)


def brendle_constant(n: int, m: int) -> float:
    """Brendle's explicit isoperimetric constant B(n, m)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m in (1, 2):
        return 1.0 / _n_omega_root(n)
    general = (1.0 / n) * (
        m * unit_ball_volume(m) / ((n + m) * unit_ball_volume(n + m))
    ) ** (1.0 / n)
    return min(general, ic_upper_bound(n))


def _check_curvature_bound(n: int, K: float, choice: IsoperimetricChoice) -> float:
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    c = choice.value(n)
    if K >= 1.0 / c:
        raise CurvatureBoundViolated(
            f"K = {K} is not below 1/C = {1.0 / c} for {choice.label()} at n = {n}"
        )
    return c


def iso_constant(n: int, K: float, choice: IsoperimetricChoice) -> float:
    """C / (1 - C*K): the curvature-penalized isoperimetric constant."""
    c = _check_curvature_bound(n, K, choice)
    return c / (1.0 - c * K)


def ps_constant(n: int, K: float, choice: IsoperimetricChoice) -> float:
    """Multiplicative constant of the rearrangement gradient inequality.

    Equals C*n*omega_n^(1/n) / (1 - C*K); exactly 1 at K = 0 for Brendle
    in codimension 1 or 2.
    """
    c = _check_curvature_bound(n, K, choice)
    return choice.euclidean_product(n) / (1.0 - c * K)


def talenti_constant(n: int, p: float) -> float:
    """Talenti's sharp constant for the Euclidean p-Sobolev inequality."""
    if not 1.0 < p < n:
        raise ValueError(f"requires 1 < p < n, got p = {p}, n = {n}")
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
    return n * p / (n - p)


def _check_gn_domain(n: int, p: float, q: float) -> None:
    if not 1.0 < p < n:
        raise ValueError(f"requires 1 < p < n, got p = {p}, n = {n}")
    q_max = p * (n - 1.0) / (n - p)
    if not p < q <= q_max + 1e-12:
        raise ValueError(f"requires p < q <= p(n-1)/(n-p) = {q_max}, got q = {q}")


def gn_beta(n: int, p: float, q: float) -> float:
    _check_gn_domain(n, p, q)
    return n * p - q * (n - p)


def gn_theta(n: int, p: float, q: float) -> float:
    """Interpolation exponent of the Gagliardo-Nirenberg inequality, in (0, 1]."""
    beta = gn_beta(n, p, q)
    return n * (q - p) / ((q - 1.0) * beta)


def gn_r_exponent(n: int, p: float, q: float) -> float:
    _check_gn_domain(n, p, q)
    return p * (q - 1.0) / (p - 1.0)


def egn_constant(n: int, p: float, q: float, reading: EgnReading = EgnReading.GAMMA_CORRECTED) -> float:
    """Sharp Euclidean Gagliardo-Nirenberg constant, in two readings.

    ``LITERAL`` evaluates the printed formula exactly as it stands: gamma
    numerator argument q(p-1)/(1-p) (a pole for every integer q) and middle
    factor (pq / n(q-p))^(1-theta). Where gamma is negative there, the
    printed fractional power of the gamma quotient is complex and
    ``ComplexValued`` is raised.

    ``GAMMA_CORRECTED`` is the repaired form validated by the extremal
    oracle: gamma argument q(p-1)/(q-p) and middle-factor exponent theta/p.
    It reproduces equality for the explicit extremal family to quadrature
    precision and degenerates to the Talenti constant at the endpoint
    q = p(n-1)/(n-p).
    """
    beta = gn_beta(n, p, q)
    theta = gn_theta(n, p, q)
    r = gn_r_exponent(n, p, q)
    if reading is EgnReading.LITERAL:
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
    if not 1.0 < p < n:
        raise ValueError(f"requires 1 < p < n, got p = {p}, n = {n}")
    return (
        p
        / (n * math.pi ** (0.5 * p))
        * ((p - 1.0) / math.e) ** (p - 1.0)
        * (gamma(0.5 * n + 1.0) / gamma(n * (p - 1.0) / p + 1.0)) ** (p / n)
    )


def spectral_gap_constant(
    n: int,
    K: float,
    choice: IsoperimetricChoice,
    reading: SpectralReading = SpectralReading.FABER_KRAHN_CONSISTENT,
) -> float:
    """Constant of the spectral-gap (Faber-Krahn style) lower bound.

    ``LITERAL`` is the printed j * omega_n^(2/n) / PS; the Faber-Krahn
    consistent reading squares both the Bessel zero and the rearrangement
    constant, which is the variant reproducing equality on the Euclidean
    ball for the first Dirichlet eigenfunction.
    """
    ps = ps_constant(n, K, choice)
    j = bessel_first_zero(0.5 * n - 1.0)
    w = unit_ball_volume(n) ** (2.0 / n)
    if reading is SpectralReading.LITERAL:
        return j * w / ps
    return j * j * w / (ps * ps)


def asymptotic_ratio(n: int, K: float) -> float:
    """n*omega_n^(1/n) / (n*omega_n^(1/n) - K), through log-gamma for large n."""
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    x = _n_omega_root(n)
    if x <= K:
        raise ValueError(f"requires n*omega_n^(1/n) > K, got {x} <= {K}")
    return x / (x - K)


def tc_unit_sphere(n: int, convention: TcConvention = TcConvention.TRACE_DERIVED) -> float:
    """Total mean curvature of the unit n-sphere, in two conventions.

    The trace convention has |H| = n on the unit sphere and surface measure
    (n+1)*omega_{n+1}, giving n*((n+1)*omega_{n+1})^(1/n); the source's
    closing remark prints n*(n*omega_n)^(1/n) instead. Both tend to the
    reciprocal of the codimension-one Brendle constant as n grows.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if convention is TcConvention.PAPER_FORMULA:
        return n * (n * unit_ball_volume(n)) ** (1.0 / n)
    return n * ((n + 1) * unit_ball_volume(n + 1)) ** (1.0 / n)


@dataclass
class ConstantsTable:
    """Every named constant for one (n, K, choice) configuration."""

    n: int
    K: float
    choice: IsoperimetricChoice
    p: float | None = None
    q: float | None = None
    entries: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "n": self.n,
            "K": self.K,
            "iso_choice": self.choice.label(),
            "p": self.p,
            "q": self.q,
        }
        out.update(self.entries)
        return out


def build_constants_table(
    n: int,
    K: float,
    choice: IsoperimetricChoice,
    p: float | None = None,
    q: float | None = None,
) -> ConstantsTable:
    """Assemble the constants table; optional (p, q) unlock the p-dependent rows.

    Construction fails with CurvatureBoundViolated when K >= 1/C.
    """
    entries: dict = {
        "C": choice.value(n),
        "I": iso_constant(n, K, choice),
        "PS": ps_constant(n, K, choice),
        "asymptotic_ratio": None,
        "tc_sphere_trace": tc_unit_sphere(n, TcConvention.TRACE_DERIVED),
        "tc_sphere_paper": tc_unit_sphere(n, TcConvention.PAPER_FORMULA),
        "spectral_gap": spectral_gap_constant(n, K, choice),
        "spectral_gap_literal": spectral_gap_constant(n, K, choice, SpectralReading.LITERAL),
    }
    try:
        entries["asymptotic_ratio"] = asymptotic_ratio(n, K)
    except ValueError:
        pass
    if p is not None:
        if 1.0 < p < n:
            entries["TA"] = talenti_constant(n, p)
            entries["S"] = entries["TA"] * entries["PS"]
            entries["LS"] = log_sobolev_constant(n, p)
        if q is not None:
            entries["theta"] = gn_theta(n, p, q)
            entries["r"] = gn_r_exponent(n, p, q)
            entries["EGN"] = egn_constant(n, p, q, EgnReading.GAMMA_CORRECTED)
            try:
                entries["EGN_literal"] = egn_constant(n, p, q, EgnReading.LITERAL)
            except GammaPole:
                entries["EGN_literal"] = "gamma-pole"
            except ComplexValued:
                entries["EGN_literal"] = "complex"
            entries["GN"] = entries["EGN"] * entries["PS"]
    return ConstantsTable(n=n, K=K, choice=choice, p=p, q=q, entries=entries)
