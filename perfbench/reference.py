"""Closed-form reference values, written with scipy only.

Nothing here imports psilab: these are the independent oracles the
benchmark checks the program's outputs against.
"""

from __future__ import annotations

import math

from scipy import optimize, special


# ---------------------------------------------------------------------------
# the sphere blowup family u_lambda (lambda*r on the polar cap r <= 1/lambda)


def _log1m_inv_sq(lam: float) -> float:
    """log(1 - 1/lam^2), -inf at lam = 1."""
    return math.log1p(-1.0 / lam**2) if lam > 1.0 else -math.inf


def _one_minus_w0(lam: float) -> float:
    """1 - sqrt(1 - 1/lam^2) without cancellation."""
    w0 = math.exp(0.5 * _log1m_inv_sq(lam))
    return 1.0 / (lam**2 * (1.0 + w0))


def surface_grad_p(lam: float, p: float) -> float:
    """Integral of |grad u|^p over the sphere: 2 pi lam^p (1 - (1-1/lam^2)^((p+1)/2)) / (p+1)."""
    return 2.0 * math.pi * lam**p * -math.expm1(0.5 * (p + 1.0) * _log1m_inv_sq(lam)) / (p + 1.0)


def surface_lp(lam: float, p: float) -> float:
    """Integral of u^p over the sphere: the off-cap area plus pi lam^p B(p/2+1, 1/2) I_{1/lam^2}(p/2+1, 1/2)."""
    cap_area = 2.0 * math.pi * _one_minus_w0(lam)
    a, b = 0.5 * p + 1.0, 0.5
    cap = math.pi * lam**p * special.beta(a, b) * special.betainc(a, b, 1.0 / lam**2)
    return (4.0 * math.pi - cap_area) + cap


def plane_core(lam: float, p: float) -> float:
    """B(1-p/2, p+1) I_{1-w0}(1-p/2, p+1), the integral of w^p (1-w)^(-p/2) over (w0, 1), for p < 2."""
    a, b = 1.0 - 0.5 * p, p + 1.0
    return special.beta(a, b) * special.betainc(a, b, _one_minus_w0(lam))


def plane_grad_p(lam: float, p: float):
    """Planar energy 2 pi lam^p 2^(p/2) plane_core(lam, p); None (divergent) for p >= 2."""
    if p >= 2.0:
        return None
    return 2.0 * math.pi * lam**p * 2.0 ** (0.5 * p) * plane_core(lam, p)


def blowup_row(lam: float, p: float) -> dict:
    surface = surface_grad_p(lam, p)
    curvature = 2.0**p * surface_lp(lam, p)
    plane = plane_grad_p(lam, p)
    row = {"surface_grad_p": surface, "curvature_term": curvature, "plane_grad_p": plane}
    if plane is None:
        row["ratio"] = row["gradient_ratio"] = math.inf
    else:
        row["ratio"] = plane / (surface + curvature)
        row["gradient_ratio"] = plane / surface
    return row


def log_ratio_slope(lam: float, p: float) -> float:
    """d log(plane / (surface + curvature)) / d log(lam), by a forward difference; p < 2."""

    def log_ratio(log_lam):
        return math.log(blowup_row(math.exp(log_lam), p)["ratio"])

    h = 1e-4
    return (log_ratio(math.log(lam) + h) - log_ratio(math.log(lam))) / h


def lambda_bar(N: float, p: float, ceiling: float = 1e12):
    """Root of plane - N (surface + curvature) in lambda, or None above the ceiling.

    For p >= 2 the planar energy diverges, so the threshold is 1.
    """
    if p >= 2.0:
        return 1.0

    def excess(log_lam):
        row = blowup_row(math.exp(log_lam), p)
        return row["plane_grad_p"] - N * (row["surface_grad_p"] + row["curvature_term"])

    if excess(0.0) > 0:
        return 1.0
    if excess(math.log(ceiling)) <= 0:
        return None
    return math.exp(optimize.brentq(excess, 0.0, math.log(ceiling), xtol=1e-14, rtol=1e-13))


# ---------------------------------------------------------------------------
# the constants table of ``psilab constants`` (Brendle choice, codimension 1)


def unit_ball_volume(n: float) -> float:
    return math.pi ** (0.5 * n) / special.gamma(0.5 * n + 1.0)


def _bessel_first_zero(order: float) -> float:
    if float(order).is_integer():
        return float(special.jn_zeros(int(order), 1)[0])
    # the first zero of J_nu lies in (nu, nu + 2 sqrt(nu + 1) + 3) for nu >= -1/2
    return optimize.brentq(lambda x: special.jv(order, x), max(order, 0.0) + 1e-9, order + 2 * math.sqrt(order + 1) + 3)


def constants_table(n: int, K: float, p: float | None, q: float | None) -> dict:
    """Closed forms for the numeric rows of the table (EGN_literal excluded)."""
    x = n * unit_ball_volume(n) ** (1.0 / n)  # n omega_n^(1/n)
    C = 1.0 / x
    PS = 1.0 / (1.0 - C * K)
    out = {
        "C": C,
        "I": C * PS,
        "PS": PS,
        "tc_sphere_trace": n * ((n + 1) * unit_ball_volume(n + 1)) ** (1.0 / n),
        "tc_sphere_paper": n * (n * unit_ball_volume(n)) ** (1.0 / n),
        "asymptotic_ratio": x / (x - K) if x > K else None,
    }
    j = _bessel_first_zero(0.5 * n - 1.0)
    w = unit_ball_volume(n) ** (2.0 / n)
    out["spectral_gap"] = j * j * w / PS**2
    out["spectral_gap_literal"] = j * w / PS
    if p is not None and 1.0 < p < n:
        lg = special.gammaln
        out["TA"] = (
            1.0 / (math.sqrt(math.pi) * n ** (1.0 / p)) * ((p - 1.0) / (n - p)) ** (1.0 - 1.0 / p)
            * math.exp((lg(1 + 0.5 * n) + lg(n) - lg(n / p) - lg(1 + n - n / p)) / n)
        )
        out["S"] = out["TA"] * PS
        out["LS"] = (
            p / (n * math.pi ** (0.5 * p)) * ((p - 1.0) / math.e) ** (p - 1.0)
            * (special.gamma(0.5 * n + 1.0) / special.gamma(n * (p - 1.0) / p + 1.0)) ** (p / n)
        )
        if q is not None:
            beta = n * p - q * (n - p)
            theta = n * (q - p) / ((q - 1.0) * beta)
            r = p * (q - 1.0) / (p - 1.0)
            # gamma ratio through log-gamma: the arguments grow without bound as q -> p
            log_ratio = (lg(q * (p - 1.0) / (q - p)) + lg(0.5 * n + 1.0)
                         - lg((p - 1.0) * beta / (p * (q - p))) - lg(n * (p - 1.0) / p + 1.0))
            egn = (
                ((q - p) / (p * math.sqrt(math.pi))) ** theta
                * (p * q / (n * (q - p))) ** (theta / p)
                * (beta / (p * q)) ** (1.0 / r)
                * math.exp(log_ratio * theta / n)
            )
            out.update({"theta": theta, "r": r, "EGN": egn, "GN": egn * PS})
    return out
