"""Tour of the bound catalogue on an exactly known spectrum.

The first eigenvalues of the Dirichlet Laplacian on the unit square are
pi^2 (p^2 + q^2) for integers p, q >= 1.  Every registered l = 1 inequality,
read as a constraint on the next eigenvalue, must therefore produce an upper
bound that the true next eigenvalue respects.  This script computes the full
table for a few prefix lengths and shows the classical ordering of the four
Laplacian bounds.
"""

import numpy as np

from specgap.bounds import REGISTRY, chain_compare, compute_bound, registry_names, verify_margins
from specgap.operators import SpectrumPrefix, box_spectrum

full = box_spectrum([1.0, 1.0], 16)
print("unit square spectrum / pi^2:", np.round(full.values / np.pi**2, 6))
print()

for k in (1, 4, 10):
    prefix = SpectrumPrefix(full.values[:k], n=2, l=1)
    candidate = float(full.values[k])
    print(f"k = {k}: lambda_k = {prefix.values[-1]:.4f}, true lambda_(k+1) = {candidate:.4f}")
    table = verify_margins(prefix, candidate, which=registry_names(prefix.problem, 1))
    for name, squared, bound, margin in zip(table.names, table.squared, table.bound[0], table.margin[0]):
        tag = "slack" if squared else "bound"
        value = f"{bound:12.4f}" if np.isfinite(bound) else "      (n/a)"
        print(f"    {name:20s} {tag}  {value}   margin {margin:+.4f}")
    print()

print("ordering of the four Laplacian bounds (sharpest first) along the spectrum:")
for k in range(1, 13):
    prefix = SpectrumPrefix(full.values[:k], n=2, l=1)
    rep = chain_compare(prefix)
    vals = "  ".join(f"{v:9.3f}" for v in rep.values())
    print(f"  k = {k:2d}:  {vals}   ordered = {rep.ordered}")

print()
print("the same machinery covers the clamped plate (l = 2) and higher powers;")
print("for example the l = 2 catalogue on a synthetic prefix:")
prefix = SpectrumPrefix(np.array([1.0, 1.31, 1.72]), n=2, l=2)
for name in registry_names(prefix.problem, 2):
    if not REGISTRY[name].extracts_bound:
        continue  # this entry reports an inequality slack, not a bound
    res = compute_bound(name, prefix)
    print(f"    {name:22s} -> {res.value:9.4f}  ({res.method}, {res.iterations} iterations)")
