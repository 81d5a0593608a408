"""Symmetric eigensolvers backing the rest of the package.

Two routes, one per size regime: a dense solver for full spectra of small
matrices (LAPACK via numpy behind the contract below) and, for the smallest
eigenpairs of large sparse operators, scipy's ARPACK (an implicitly restarted
Lanczos method) in shift-invert mode.  The dense route is the reference the
test suite checks the ARPACK route against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError, InputError

DENSE_DIM_CAP = 4096
DENSE_FALLBACK_DIM = 2048
SYMMETRY_DEFECT_REL = 1e-12
RESIDUAL_REL_TOL = 1e-10
SHIFT_REL = 1e-6
V0_SEED = 20240901


@dataclass
class EigResult:
    """Ascending eigenvalues with optional orthonormal eigenvectors.

    residuals[i] = ||A v_i - w_i v_i|| when vectors were requested.
    ``iterations`` is the Lanczos basis size of the ARPACK route.  No route
    returns a partial result, so ``converged`` is always True.
    """

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]
    residuals: Optional[np.ndarray]
    method: str
    converged: bool = True
    iterations: int = 0


def _as_array(M):
    if sp.issparse(M):
        return M
    return np.asarray(M)


def _matnorm(M) -> float:
    """Max-abs entry norm, cheap for both dense and sparse."""
    if sp.issparse(M):
        return float(np.abs(M.data).max()) if M.nnz else 0.0
    return float(np.abs(M).max()) if M.size else 0.0


def _symmetry_defect(M) -> float:
    if sp.issparse(M):
        d = M - M.conj().T if np.iscomplexobj(M.data if hasattr(M, "data") else M) else M - M.T
        return float(np.abs(d.data).max()) if d.nnz else 0.0
    return float(np.abs(M - M.conj().T).max()) if M.size else 0.0


def _inf_norm(A) -> float:
    """||A||_inf, the largest absolute row sum: an upper bound on the spectral
    radius, floored away from zero."""
    return max(float(abs(A).sum(axis=1).max()), 1e-300)


def _check_residuals(res: np.ndarray, scale: float) -> None:
    """Refuse eigenpairs unless every residual is within RESIDUAL_REL_TOL * scale."""
    if not np.all(res <= RESIDUAL_REL_TOL * scale):
        raise ConvergenceError(
            f"eigenpair residual {float(res.max()):.3g} exceeds {RESIDUAL_REL_TOL:g} * ||A||_inf = "
            f"{RESIDUAL_REL_TOL * scale:.3g}"
        )


def dense_symmetric_eig(M, want_vectors: bool = True) -> EigResult:
    """Full spectrum of a symmetric or Hermitian matrix, ascending.

    Rejects matrices with symmetry defect above 1e-12 * max|M| and dimensions
    above 4096.
    """
    M = _as_array(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError(f"need a square matrix, got shape {M.shape}")
    dim = M.shape[0]
    if dim > DENSE_DIM_CAP:
        raise InputError(f"dimension {dim} exceeds the dense cap {DENSE_DIM_CAP}")
    norm = _matnorm(M)
    if _symmetry_defect(M) > SYMMETRY_DEFECT_REL * max(norm, 1e-300):
        raise InputError("matrix is not symmetric/Hermitian within 1e-12 * max|M|")
    Md = M.toarray() if sp.issparse(M) else M
    if want_vectors:
        w, V = np.linalg.eigh(Md)
        R = Md @ V - V * w[None, :]
        res = np.linalg.norm(R, axis=0)
        return EigResult(w, V, res, "dense")
    w = np.linalg.eigvalsh(Md)
    return EigResult(w, None, None, "dense")


def _lanczos_smallest(A, m: int) -> EigResult:
    """ARPACK's implicitly restarted Lanczos method in shift-invert mode.

    The shift is -SHIFT_REL * ||A||_inf: strictly below zero, so A - sigma*I
    stays nonsingular for a singular PSD operator (``kohn_fd`` on all-odd
    grids has an exact zero eigenvalue), and close enough to zero that the
    smallest eigenvalues stay well separated after inversion.  The starting
    vector is seeded, so reruns are identical.  Raises ConvergenceError
    unless ARPACK converged and every residual ||A v - theta v|| is within
    RESIDUAL_REL_TOL * ||A||_inf, an upper bound on the spectral radius.
    """
    # scipy.sparse.linalg is imported here: it would roughly double the
    # package's import time, and only this route needs it
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    dim = A.shape[0]
    scale = _inf_norm(A)
    ncv = min(dim, max(2 * m + 1, 20))  # scipy's default, passed so it can be reported
    v0 = np.random.default_rng(V0_SEED).standard_normal(dim)
    try:
        w, V = eigsh(A, k=m, sigma=-SHIFT_REL * scale, which="LM", v0=v0, ncv=ncv, tol=0.0)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(f"ARPACK did not converge for the {m} smallest eigenpairs") from exc
    order = np.argsort(w)
    w, V = w[order], V[:, order]
    res = np.linalg.norm(A @ V - V * w[None, :], axis=0)
    _check_residuals(res, scale)
    return EigResult(w, V, res, "lanczos", iterations=ncv)


def smallest_eigs(op, m: int, method: str = "auto") -> EigResult:
    """The m smallest eigenpairs of a symmetric PSD operator.

    ``op`` may be a DiscreteOperator (its ``matrix`` is used), a scipy sparse
    matrix, or a dense array.  ``method`` is "auto" (dense below dimension
    2048, ARPACK otherwise), "dense", or "lanczos" (ARPACK).  Both routes
    raise ConvergenceError rather than return pairs that did not converge or
    whose residuals exceed 1e-10 * ||A||_inf.
    """
    M = getattr(op, "matrix", op)
    M = _as_array(M)
    dim = M.shape[0]
    if not 1 <= m <= dim // 4:
        raise InputError(f"need 1 <= m <= dim/4 = {dim // 4}, got m = {m}")
    norm = _matnorm(M)
    if _symmetry_defect(M) > SYMMETRY_DEFECT_REL * max(norm, 1e-300):
        raise InputError("operator is not symmetric within 1e-12 * max|M|")
    if method not in ("auto", "dense", "lanczos"):
        raise InputError(f"unknown method {method!r}")
    if method == "auto":
        method = "dense" if dim < DENSE_FALLBACK_DIM else "lanczos"

    if method == "dense":
        full = dense_symmetric_eig(M, want_vectors=True)
        res = full.residuals[:m]
        _check_residuals(res, _inf_norm(M))
        return EigResult(full.eigenvalues[:m], full.eigenvectors[:, :m], res, "dense-fallback")
    return _lanczos_smallest(M.tocsr() if sp.issparse(M) else M, m)
