"""Print the constants table for a few configurations and sanity-check
the headline identities by hand.
"""

import math

from psilab import constants as const


def main():
    print("=== flat, codimension 1 (the sharp regime) ===")
    for n in (2, 3, 5):
        d = const.build_constants_table(n, 0.0, const.brendle(1), p=None, q=None)
        print(f"n={n}: C={d['C']:.6g}  I={d['I']:.6g}  PS={d['PS']}  "
              f"G={d['spectral_gap']:.6g}")
    # PS = 1 exactly is the whole point of the Brendle constant here
    ok = all(
        const.ps_constant(n, 0.0, const.brendle(m)) == 1.0
        for n in range(2, 11) for m in (1, 2)
    )
    print("PS == 1 for m in {1,2}, K = 0:", "PASS" if ok else "FAIL")

    print()
    print("=== curvature penalty ===")
    for K in (0.0, 1.0, 2.0, 3.0):
        print(f"K={K}: PS(2,K) = {const.ps_constant(2, K, const.brendle(1)):.6f}")

    print()
    print("=== the two readings of the suspect constants ===")
    g_fk = const.spectral_gap_constant(2, 0.0, const.brendle(1))
    g_lit = const.spectral_gap_constant(
        2, 0.0, const.brendle(1), const.Reading.LITERAL
    )
    print(f"spectral gap, Faber-Krahn consistent: {g_fk:.6f}  (j0^2 * pi = "
          f"{2.404825557695773**2 * math.pi:.6f})")
    print(f"spectral gap, literal printed form:   {g_lit:.6f}")

    egn = const.egn_constant(3, 2.0, 3.5)
    egn_lit = const.egn_constant(3, 2.0, 3.5, const.Reading.LITERAL)
    print(f"EGN(3,2,3.5) corrected: {egn:.6f}   literal: {egn_lit:.6f}")
    print("(at integer q the literal gamma argument is a pole; try q=4)")

    print()
    print("=== total curvature of the unit sphere, two conventions ===")
    print(f"trace convention:  {const.tc_unit_sphere(2):.6f}  "
          f"(4 sqrt(pi) = {4 * math.sqrt(math.pi):.6f})")
    print(f"printed formula:   {const.tc_unit_sphere(2, const.TcConvention.PAPER_FORMULA):.6f}")
    print("large n, ratio of the two:",
          const.tc_unit_sphere(300) / const.tc_unit_sphere(300, const.TcConvention.PAPER_FORMULA))


if __name__ == "__main__":
    main()
