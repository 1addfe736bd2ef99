"""The gradient-blowup family on the closed unit sphere.

For 1 < p < 2 the planar gradient energy of the rearrangement outruns the
surface side by lambda^(p), so the rearrangement inequality fails by any
prescribed factor once lambda is large enough; for p >= 2 the planar
energy is outright divergent. This script sweeps lambda, prints the
thresholds, and cross-checks one row against a discrete sphere.
"""

import math

from psilab.counterexample import asymptotic_check, find_lambda_bar, sweep
from psilab.errors import DIVERGENT

p = 1.5
lams = [10.0 ** k for k in range(5)]
rows = sweep(p, lams)

print(f"p = {p}")
print(f"{'lambda':>10}{'surface':>12}{'curv term':>12}{'plane':>14}{'plane/surface':>16}")
for row in rows:
    plane = "divergent" if row.plane_grad_p is DIVERGENT else f"{row.plane_grad_p:.4g}"
    print(f"{row.lam:>10.4g}{row.surface_grad_p:>12.4g}{row.curvature_term:>12.4g}"
          f"{plane:>14}{row.gradient_ratio:>16.4g}")

# slope of log(plane/surface) against log(lambda) should be p
x0, x1 = math.log(rows[1].lam), math.log(rows[-1].lam)
y0, y1 = math.log(rows[1].gradient_ratio), math.log(rows[-1].gradient_ratio)
slope = (y1 - y0) / (x1 - x0)
print(f"\nlog-log slope of the gradient ratio: {slope:.4f}  (p = {p})  "
      + ("PASS" if abs(slope - p) / p < 0.1 else "FAIL"))

print("\nthresholds lambda_bar(N, p): smallest lambda where the planar energy")
print("exceeds N times the full right-hand side")
for N in (1.0, 10.0, 100.0):
    print(f"  N = {N:>5g}: lambda_bar = {find_lambda_bar(N, p):.4g}")
print("  (for p >= 2 the threshold is 1: the planar side is divergent)")

print("\nmesh cross-check at lambda = 5 (icosphere, subdivision 5):")
(row,) = sweep(p, [5.0], mesh_check=True, subdiv=5)
dev = abs(row.mesh_surface - row.surface_grad_p) / row.surface_grad_p
print(f"  closed form {row.surface_grad_p:.6f}  mesh {row.mesh_surface:.6f}  "
      f"deviation {dev:.2%}  " + ("PASS" if dev < 0.05 else "FAIL"))

print("\nleading constant of the planar energy (computed / asymptote):")
s_ratio, printed, corrected = asymptotic_check(p, 1e5)
print(f"  surface vs pi lambda^(p-2):          {s_ratio:.6f}")
print(f"  plane vs printed 2^(2p-p/2)/(2-p):   {printed:.6f}")
print(f"  plane vs corrected 2^(p+1)/(2-p):    {corrected:.6f}")
print("only the corrected closure tends to 1")
