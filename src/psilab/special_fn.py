"""Special functions on the standard library and scipy: the unit-ball volume, first Bessel zeros.

The unit-ball volume omega_n is kept as its logarithm,
(n/2) log pi - lgamma(n/2 + 1), which stays finite at every dimension, so
ratios like omega_n^(1/n) in the Stirling regime stay finite too; log-Gamma
is ``math.lgamma`` wherever the package needs it.

Bessel functions of the first kind are ``scipy.special.jv``; the first
positive zero is bracketed by an upward scan from below its known lower
bound sqrt(order*(order+2)) and then found by ``scipy.optimize.brentq``,
which is imported on the first such call, not with the module, and the
zero of each order is kept for the process.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import jv

from .errors import ConvergenceFailure

__all__ = ["log_unit_ball_volume", "bessel_j", "bessel_first_zero"]


def _check_dimension(n: int, least: int = 1) -> None:
    """Refuse a dimension n that is not a whole number (a bool is not one) or lies below ``least``: 1 where a
    unit ball or the Lebesgue measure on R^n is taken, 2 for the submanifolds the paper's constants are for."""
    if isinstance(n, (bool, np.bool_)) or not n % 1 == 0:  # NaN and inf too
        raise ValueError(f"dimension must be a whole number, got {n}")
    if n < least:
        raise ValueError(f"dimension must be >= {least}, got {n}")


def log_unit_ball_volume(n: int) -> float:
    """log of the Lebesgue volume of the unit ball in R^n."""
    _check_dimension(n)
    return 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)


def bessel_j(order: float, x: float) -> float:
    """Bessel function of the first kind J_order(x)."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    return float(jv(order, x))


@functools.lru_cache(maxsize=16)
def bessel_first_zero(order: float) -> float:
    """Smallest positive root of J_order, found once per order and kept.

    J_order is positive from 0 up to its first zero, which lies above
    sqrt(order*(order+2)); the scan steps upward from there until J is no
    longer positive and hands that bracket to brentq.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    from scipy.optimize import brentq  # here, not at import: only the spectral-gap constant needs it
    a = math.sqrt(order * (order + 2.0)) if order > 0 else 0.5
    step = 0.25 * (1.0 + order ** (1.0 / 3.0))
    ceiling = order + 4.0 * (1.0 + order ** (1.0 / 3.0)) + 10.0
    while a < ceiling:
        if not jv(order, a + step) > 0.0:
            return float(brentq(lambda x: jv(order, x), a, a + step, xtol=1e-15))
        a += step
    raise ConvergenceFailure(f"failed to bracket first zero of J_{order}")
