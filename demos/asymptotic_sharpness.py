"""Asymptotic sharpness as n grows.

The log-Sobolev extremal meets equality at every n (one log-space quadrature
reaches n = 10^4, where the extremal's normalizing constant is far outside
the double range). At a fixed curvature bound K the penalty
n omega_n^(1/n) / (n omega_n^(1/n) - K) tends to 1, and the unit sphere's
total mean curvature times Brendle's constant tends to 1, so the hypothesis
K < 1/C is sharp in the limit.
"""

import sys

from psilab import constants as const
from psilab.analytic import logsobolev_extremal, verify_radial_log_sobolev

P, S, K = 1.5, 1.0, 1.0


def main():
    print(f"{'n':>6}  {'log-Sobolev ratio':>19}  {'asymptotic_ratio(n, 1)':>22}  {'TC(S^n) * B(n, 1)':>18}")
    worst = 0.0
    for n in (2, 10, 100, 1000, 10_000):
        ratio = verify_radial_log_sobolev(logsobolev_extremal(n, P, S), P).ratio
        worst = max(worst, abs(ratio - 1.0))
        tc_b = const.tc_unit_sphere(n) * const.brendle_constant(n, 1)
        print(f"{n:>6}  {ratio:>19.15f}  {const.asymptotic_ratio(n, K):>22.15f}  {tc_b:>18.15f}")
    print(f"log-Sobolev equality to {worst:.1e}:", "PASS" if worst < 1e-12 else "FAIL")
    return 0 if worst < 1e-12 else 1


if __name__ == "__main__":
    sys.exit(main())
