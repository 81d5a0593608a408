"""The commutator inequality on concrete matrices.

For Hermitian A, Hermitian B_p and anti-self-adjoint T_p the squared weighted
trace of [T_p, B_p] is controlled by the product of the quadratic coefficient
sum g <[A,B_p]u, B_p u> and the gap-weighted sum of ||T_p u||^2.  The smallest
instance where both sides meet is 2 x 2.
"""

import numpy as np

from specgap.abstract import (
    OperatorTriple,
    admissible_ks,
    moment_inequality_check,
    random_instance,
    verify_corollary,
    verify_theorem,
)
from specgap.couples import FunctionCouple

# --- the 2 x 2 equality instance -------------------------------------------
A = np.diag([1.0, 2.0]).astype(complex)
B = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
T = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
triple = OperatorTriple(A, (B,), (T,))
rep = verify_theorem(triple, 1, FunctionCouple("const-power", 2.0, (0.0,)))
print("2x2 instance, f = g = 1:")
print(f"  lhs = {rep.lhs}, rhs = {rep.rhs}, quadratic coefficient = {rep.quad_coeff}")
print(f"  equality is attained; pass = {rep.passed}")
print()

# --- the one-family corollary (T_p := [A, B_p], no factor 4) ----------------
repc = verify_corollary(A, (B,), 1, FunctionCouple("const-power", 2.0, (0.0,)))
print("corollary with T = [A, B]:")
print(f"  lhs = {repc.lhs}, rhs = {repc.rhs}, identity residual = {repc.identity_residual:.2e}")
print()

# --- random instances, several weight couples -------------------------------
print("random 10-dimensional instances, three operator pairs:")
for seed in range(4):
    t = random_instance(10, 3, seed=seed)
    lam = t.spectral.lam
    worst = np.inf
    checks = 0
    for k in admissible_ks(t):
        z = float(lam[k])
        for fam, par in [("const-power", (0.0,)), ("equal-power", (2.0,)), ("linear-power", (1.0,))]:
            r = verify_theorem(t, k, FunctionCouple(fam, z, par))
            assert r.passed
            worst = min(worst, r.rhs - r.lhs)
            checks += 1
    print(f"  seed {seed}: {checks} (k, couple) checks, smallest rhs - lhs = {worst:.3e}")
print()

# --- spectral moment inequality ---------------------------------------------
print("moment inequality <Q^r u,u> <= <Q^q u,u>^(r/q) for PSD Q:")
rng = np.random.default_rng(0)
W = rng.standard_normal((6, 6))
Q = W @ W.T / 6.0
u = rng.standard_normal(6)
u /= np.linalg.norm(u)
for r, q in [(1, 2), (2, 3), (1, 6), (5, 6)]:
    print(f"  r = {r}, q = {q}: margin = {moment_inequality_check(Q, u, r, q):.6f}")
