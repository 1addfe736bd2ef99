"""Rearrange a random weighted sample set and a mesh field, and verify the
two invariants that define the construction: equimeasurability and L^p
preservation.
"""

import math

import numpy as np

from psilab.analytic import make_disk
from psilab.measure_space import (
    DiscreteMeasuredFunction,
    Interpolation,
    distribution_function,
    gradient_energy,
    lebesgue,
    lp_norm,
    rearrange,
)
from psilab.mesh import VertexField, sample_field

rng = np.random.default_rng(0)

# --- raw samples -----------------------------------------------------------

dmf = DiscreteMeasuredFunction(rng.uniform(0, 3, 40), rng.uniform(0.1, 1.0, 40))
profile = rearrange(dmf, lebesgue(2))
print(f"{len(dmf.values)} samples -> step profile with {len(profile.radii)} knots")

worst = 0.0
for t in np.linspace(0.01, dmf.max_value() - 0.01, 50):
    worst = max(worst, abs(profile.superlevel_measure(t) - distribution_function(dmf, t)))
print("equimeasurability, worst gap over 50 levels:", worst,
      "PASS" if worst < 1e-12 else "FAIL")

for p in (1.0, 2.0, 3.0):
    a, b = lp_norm(dmf, p), lp_norm(profile, p)
    print(f"L^{p} norm: samples {a:.12f}  profile {b:.12f}",
          "PASS" if abs(a - b) < 1e-12 * max(1, a) else "FAIL")

# --- a mesh field ----------------------------------------------------------

print()
disk = make_disk(1.0, 24)
r = np.hypot(disk.vertices[:, 0], disk.vertices[:, 1])
vals = np.maximum(1.0 - r, 0.0)
vals[disk.boundary_vertices()] = 0.0
hat = VertexField(vals)

samples = sample_field(disk, hat, 3)
lin = rearrange(samples, lebesgue(2), Interpolation.PIECEWISE_LINEAR)
print(f"disk hat field sampled into {len(samples.values)} cells,",
      f"linear profile has {len(lin.radii)} knots")

# the hat 1 - r is already radial decreasing: the rearrangement is (almost) itself
energy = gradient_energy(lin, 2.0)
print(f"gradient 2-energy of the profile: {energy:.6f}  (continuum value pi = {math.pi:.6f})")
print("PASS" if abs(energy - math.pi) / math.pi < 0.05 else "FAIL")
