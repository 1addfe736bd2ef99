"""Special functions on the standard library and scipy: gamma, unit-ball volumes, first Bessel zeros.

Gamma and its logarithm are ``math.gamma`` and ``math.lgamma`` behind the
positive-axis domain check, with +inf where Gamma overflows; ball volumes
for dimensions beyond a few hundred go through the logarithmic form so that
Stirling-regime ratios stay finite.

Bessel functions of the first kind are ``scipy.special.jv``; the first
positive zero is bracketed by an upward scan from below its known lower
bound sqrt(order*(order+2)) and then found by ``scipy.optimize.brentq``.
"""

from __future__ import annotations

import math

from scipy.optimize import brentq
from scipy.special import jv

from .errors import ConvergenceFailure

__all__ = [
    "gamma",
    "log_gamma",
    "unit_ball_volume",
    "log_unit_ball_volume",
    "bessel_j",
    "bessel_first_zero",
]


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if not x > 0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def gamma(x: float) -> float:
    """Gamma(x) for x > 0, +inf beyond the double range; raises ValueError outside the domain."""
    if not x > 0:
        raise ValueError(f"gamma requires x > 0, got {x}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def _check_ball_dimension(n: int) -> None:
    """Refuse a dimension n below 1, where no unit ball and no Lebesgue measure on R^n exist."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")


def log_unit_ball_volume(n: int) -> float:
    """log of the Lebesgue volume of the unit ball in R^n."""
    _check_ball_dimension(n)
    return 0.5 * n * math.log(math.pi) - log_gamma(0.5 * n + 1.0)


def unit_ball_volume(n: int) -> float:
    """Lebesgue volume omega_n = pi^(n/2) / Gamma(n/2 + 1) of the unit n-ball."""
    _check_ball_dimension(n)
    if n <= 200:
        return math.pi ** (0.5 * n) / gamma(0.5 * n + 1.0)
    return math.exp(log_unit_ball_volume(n))


def bessel_j(order: float, x: float) -> float:
    """Bessel function of the first kind J_order(x)."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    return float(jv(order, x))


def bessel_first_zero(order: float) -> float:
    """Smallest positive root of J_order.

    J_order is positive from 0 up to its first zero, which lies above
    sqrt(order*(order+2)); the scan steps upward from there until J is no
    longer positive and hands that bracket to brentq.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    a = math.sqrt(order * (order + 2.0)) if order > 0 else 0.5
    step = 0.25 * (1.0 + order ** (1.0 / 3.0))
    ceiling = order + 4.0 * (1.0 + order ** (1.0 / 3.0)) + 10.0
    while a < ceiling:
        if not jv(order, a + step) > 0.0:
            return float(brentq(lambda x: jv(order, x), a, a + step, xtol=1e-15))
        a += step
    raise ConvergenceFailure(f"failed to bracket first zero of J_{order}")
