"""The admissible weight couples (f, g) and their certification.

A couple of positive functions on (0, lambda) is admissible when every pair
of points satisfies the quadratic-form condition checked below.  Four power
families are admissible for suitable parameters; anything else has to be
certified sample by sample, and generic couples fail.  Each certified couple
then feeds the paper's polyharmonic couple inequality on a box spectrum.
"""

import numpy as np

from specgap.bounds import check_general_poly
from specgap.couples import FunctionCouple, certify_on_samples, check_necessary_differentiable
from specgap.operators import SpectrumPrefix, box_spectrum

CERTIFIED = [
    ("const-power", (1.5,)),
    ("linear-power", (0.5,)),
    ("equal-power", (2.0,)),
    ("neg-power", (-1.0, 1.0)),
]

rng = np.random.default_rng(7)
lam = 10.0
samples = lam * rng.uniform(0.01, 0.99, size=24)

print("certified families on", len(samples), "random samples in (0, 10):")
for family, params in CERTIFIED:
    couple = FunctionCouple(family, lam, params)
    rep = certify_on_samples(couple, samples)
    screen = check_necessary_differentiable(couple, samples)
    print(f"  {couple.describe():24s} pairwise worst {rep.worst:+.3e}  pass={rep.passed}"
          f"   screen worst margin {screen.worst:+.3e}")

print()
print("equal-power at delta = 2 sits exactly on the boundary: every pair value")
print("is zero up to round-off, which is why the check carries a tolerance.")
print()

# a tabulated couple that is NOT admissible: f decaying linearly, g constant
xs = np.array([2.0, 5.0, 8.0])
bad = FunctionCouple("tabulated", lam, (), (xs, lam - xs, np.ones_like(xs)))
rep = certify_on_samples(bad, xs)
print(f"tabulated f = lambda - x, g = 1:  pass={rep.passed}, worst pair value {rep.worst:.3f},")
print(f"  witness pair {rep.witness}")
print()

# the differentiable screen rejects out-of-range exponents before any
# sampling: compare delta inside and outside (0, 2]
inside = FunctionCouple("equal-power", lam, (2.0,))
print("screen margins, delta = 2.0:", check_necessary_differentiable(inside, [2.0, 5.0]).worst)
print("(delta beyond 2 is rejected at construction; the screen margin")
print(" (2 delta - delta^2)/(lambda - x)^2 would turn negative)")
print()

# the condition quantifies over pairs x != y, so a single sample certifies
# vacuously (couple check refuses a sample set without two distinct points)
single = certify_on_samples(inside, [4.0])
print("single-sample certificate (vacuous):", single.passed, "pairs checked:", single.n_checked)

# the paper's polyharmonic couple inequality on the first 11 Dirichlet
# eigenvalues of the unit square, each couple bound at z = lambda_12
# (20 pi^2, above lambda_11 = 18 pi^2); a negative margin would refute it
box = box_spectrum([1.0, 1.0], 12)
prefix, z = SpectrumPrefix(box.values[:11], n=2), float(box.values[11])
print()
print("polyharmonic couple inequality on the unit square, k = 11, z = lambda_12:")
for family, params in CERTIFIED:
    couple = FunctionCouple(family, z, params)
    print(f"  {couple.describe():24s} margin RHS - LHS {check_general_poly(prefix, couple):+.3e}")
