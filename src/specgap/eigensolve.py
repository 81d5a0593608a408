"""Symmetric eigensolvers backing the rest of the package.

Two routes, one per size regime: a dense solver for full spectra of small
matrices (LAPACK via numpy behind the contract below) and, for the smallest
eigenpairs of large sparse operators, scipy's ARPACK (an implicitly restarted
Lanczos method) in shift-invert mode.  The dense route is the reference the
test suite checks the ARPACK route against.

Each route checks the eigenpairs it computes: it raises ConvergenceError
unless every residual ||A v - w v|| is within RESIDUAL_REL_TOL * ||A||_inf, so
no caller can receive an eigenvalue whose residual was not checked.

Every Hermitian check and every eigendecomposition of the package goes
through this module: ``hermitian_defect`` measures max |M - M^H| of a dense
or sparse matrix (the solvers refuse a defect above SYMMETRY_DEFECT_REL *
max|M|; ``abstract`` applies its own tolerance to the same measure), and
``dense_symmetric_eig`` is the only Hermitian eigendecomposition.  The two
other eigenvalue calls are not decompositions whose pairs are used: a shift
in ``abstract.random_instance`` and the roots of a (non-Hermitian) companion
matrix in ``bounds``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError

DENSE_DIM_CAP = 4096
DENSE_FALLBACK_DIM = 2048
SYMMETRY_DEFECT_REL = 1e-12
RESIDUAL_REL_TOL = 1e-10
SHIFT_REL = 1e-6
V0_SEED = 20240901


@dataclass
class EigResult:
    """Ascending eigenvalues with orthonormal eigenvectors (as columns).

    residuals[i] = ||A v_i - w_i v_i||, each within RESIDUAL_REL_TOL *
    ||A||_inf.  ``iterations`` is the Lanczos basis size of the ARPACK route.
    No route returns a partial result, so ``converged`` is always True.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    method: str
    converged: bool = True
    iterations: int = 0


def _issparse(M) -> bool:
    """scipy.sparse.issparse without importing scipy.sparse, which is most of
    the package's import time: no sparse matrix exists before it is loaded."""
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(M)


def hermitian_defect(M) -> float:
    """max |M - M^H| over the entries of a nonempty square matrix, dense or
    scipy sparse."""
    if M.shape[0] == 0:
        raise InputError("need a nonempty matrix")
    return float(abs(M - M.conj().T).max())


def _require_symmetric(M) -> None:
    if hermitian_defect(M) > SYMMETRY_DEFECT_REL * max(float(abs(M).max()), 1e-300):
        raise InputError("matrix is not symmetric/Hermitian within 1e-12 * max|M|")


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


def dense_symmetric_eig(M) -> EigResult:
    """Full spectrum of a symmetric or Hermitian matrix, ascending, with its
    eigenvectors.

    Rejects matrices with symmetry defect above 1e-12 * max|M| and dimensions
    above 4096, and raises ConvergenceError if any residual exceeds
    RESIDUAL_REL_TOL * ||M||_inf.
    """
    if not _issparse(M):
        M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError(f"need a square matrix, got shape {M.shape}")
    dim = M.shape[0]
    if dim > DENSE_DIM_CAP:
        raise InputError(f"dimension {dim} exceeds the dense cap {DENSE_DIM_CAP}")
    _require_symmetric(M)
    Md = M.toarray() if _issparse(M) else M
    w, V = np.linalg.eigh(Md)
    res = np.linalg.norm(Md @ V - V * w[None, :], axis=0)
    _check_residuals(res, _inf_norm(M))
    return EigResult(w, V, res, "dense")


def _lanczos_smallest(A, m: int) -> EigResult:
    """ARPACK's implicitly restarted Lanczos method in shift-invert mode.

    The shift is -SHIFT_REL * ||A||_inf: strictly below zero, so A - sigma*I
    stays nonsingular for a singular PSD operator (``kohn_fd`` on all-odd
    grids has an exact zero eigenvalue), and close enough to zero that the
    smallest eigenvalues stay well separated after inversion.  The starting
    vector is seeded, so reruns are identical.  Raises ConvergenceError
    unless ARPACK converged and every residual ||A v - theta v|| is within
    RESIDUAL_REL_TOL * ||A||_inf, an upper bound on the spectral radius.
    Rejects operators with symmetry defect above 1e-12 * max|A|.
    """
    # scipy.sparse.linalg is imported here: it would roughly double the
    # package's import time, and only this route needs it
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    _require_symmetric(A)
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


def smallest_eigs(op, m: int) -> EigResult:
    """The m smallest eigenpairs of a symmetric PSD operator, 1 <= m <= dim/4.

    ``op`` may be a DiscreteOperator (its ``matrix`` is used), a scipy sparse
    matrix, or a dense array.  Below dimension DENSE_FALLBACK_DIM the first m
    pairs of the dense route are returned (route name "dense-fallback"),
    otherwise those of ARPACK.  Either route raises ConvergenceError rather
    than return pairs that did not converge or whose residuals exceed
    RESIDUAL_REL_TOL * ||A||_inf.
    """
    M = getattr(op, "matrix", op)
    dim = M.shape[0]
    if not 1 <= m <= dim // 4:
        raise InputError(f"need 1 <= m <= dim/4 = {dim // 4}, got m = {m}")
    if dim < DENSE_FALLBACK_DIM:
        full = dense_symmetric_eig(M)
        return EigResult(
            full.eigenvalues[:m], full.eigenvectors[:, :m], full.residuals[:m], "dense-fallback"
        )
    return _lanczos_smallest(M.tocsr() if _issparse(M) else M, m)
