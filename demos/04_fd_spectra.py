"""Finite-difference spectra against exact references.

Three stories: the 1D Dirichlet stencil has a closed-form spectrum the solver
must hit at machine precision; 2D stencil eigenvalues converge to the exact
box values at second order; and the clamped beam has no elementary spectrum,
so the discretization is validated by Richardson-extrapolating its own grid
family.
"""

import numpy as np

from specgap import box_spectrum, fd_clamped_plate, fd_laplacian
from specgap.eigensolve import dense_symmetric_eig, smallest_eigs
from specgap.operators import operator_power_spectrum

# --- 1D: closed-form stencil spectrum ---------------------------------------
N = 50
op = fd_laplacian([1.0], [N])
w = dense_symmetric_eig(op.matrix).eigenvalues
h = 1.0 / (N + 1)
exact = np.sort((4.0 / h**2) * np.sin(np.arange(1, N + 1) * np.pi * h / 2.0) ** 2)
print(f"1D Dirichlet, N = {N}: max relative deviation from the stencil formula"
      f" = {np.abs(w / exact - 1).max():.2e}")
print()

# --- 2D: second-order convergence to the box spectrum -----------------------
exact5 = box_spectrum([1.0, 1.0], 5).values
print("2D convergence to the exact box eigenvalues (first five):")
errs = []
for N in (10, 20, 40):
    op = fd_laplacian([1.0, 1.0], [N, N])
    w = smallest_eigs(op, 5).eigenvalues
    err = np.abs(w - exact5).sum()
    errs.append(err)
    print(f"  N = {N:3d}: summed error {err:10.5f}")
print(f"  error ratios {errs[0] / errs[1]:.2f}, {errs[1] / errs[2]:.2f}"
      "  (4.0 would be exactly second order)")
print()

# --- clamped beam: self-convergence -----------------------------------------
print("clamped beam, smallest eigenvalue by grid doubling:")
vals = {}
for N in (40, 80, 160):
    op = fd_clamped_plate([1.0], [N])
    vals[N] = operator_power_spectrum(op, 1, 1).values[0]
    print(f"  N = {N:3d}: lambda_1 = {vals[N]:.6f}")
rich1 = (4 * vals[80] - vals[40]) / 3.0
rich2 = (4 * vals[160] - vals[80]) / 3.0
print(f"  Richardson extrapolations: {rich1:.6f}, {rich2:.6f}")
print(f"  relative drift {abs(rich2 - rich1) / rich2:.2e}; the continuum value is")
print(f"  (4.7300407...)^4 = {4.7300407448627**4:.4f}")
