"""Symmetric eigensolvers backing the rest of the package.

Two routes, one per size regime: a dense solver (LAPACK via numpy behind the
contract below) and, for a few smallest eigenpairs of a large sparse
operator, scipy's ARPACK (an implicitly restarted Lanczos method) in
shift-invert mode.  ``smallest_eigs`` takes ARPACK for m of the dim
eigenpairs when dim >= DENSE_FALLBACK_DIM and m <= dim / ARPACK_DIM_PER_PAIR,
or when dim exceeds DENSE_DIM_CAP; the dense route otherwise
(``_dense_route``).  Both limits come from a measured sweep of the two
routes (README, "Eigensolver").  It takes every m up to dim at or below
DENSE_DIM_CAP, where the dense route holds every m above dim/10, and at
most dim/4 above it.  ``operators._block_smallest`` reads ``_dense_route``
to pick the build and the solver of each block (a clamped parity block or
a Kohn t-Fourier block): a numpy array for ``dense_symmetric_eig`` on the
dense route, a sparse matrix for ``smallest_eigs`` otherwise.  The dense
route is the reference the test suite checks the ARPACK route against.

Each route checks the eigenpairs it computes: it raises ConvergenceError
unless every residual ||A v - w v|| is within RESIDUAL_REL_TOL * ||A||_inf, so
no caller can receive an eigenvalue whose residual was not checked.  The
ARPACK route also proves that it skipped no eigenvalue, by a Sylvester
inertia count of A - sigma I just below its largest returned values (see
``_lanczos_smallest``); when the count disagrees, the dense route answers up
to DENSE_DIM_CAP and ConvergenceError is raised above it.  Running out of
memory anywhere on the ARPACK route, or in the count, is ConvergenceError
too.  The operator builders and block spectra of ``operators`` use the same
out-of-memory mapping, and its closed-form Laplacian spectrum and its
clamped and Kohn blocks the same residual check.

Every Hermitian check and every eigendecomposition of the package goes
through this module: ``hermitian_defect`` measures max |M - M^H| of a dense
or sparse matrix (the solvers refuse a defect above SYMMETRY_DEFECT_REL *
max|M|; ``abstract`` applies its own tolerance to the same measure), and
``dense_symmetric_eig`` is the only Hermitian eigendecomposition.  The two
other eigenvalue calls are not decompositions whose pairs are used: a shift
in ``abstract.random_instance`` and the roots of a (non-Hermitian) companion
matrix in ``bounds``.  ARPACK (``eigsh``) and SuperLU (``splu``) are called
only here.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InputError

DENSE_DIM_CAP = 4096
# the crossover measured on the Laplacian, clamped-plate and Kohn operators at
# dims 256-2500 (README, "Eigensolver"): below dim 512 both routes take under
# 0.1 s; above it ARPACK is faster or close while m <= dim/10, and up to 4.7x
# slower beyond
DENSE_FALLBACK_DIM = 512
ARPACK_DIM_PER_PAIR = 10
# ARPACK's Ritz basis holds ncv x dim floats: no more than an operator triple
# at the dense cap
MAX_RITZ_ENTRIES = 3 * DENSE_DIM_CAP**2
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


def _dense_smallest(M, m: int) -> EigResult:
    """The first m pairs of the dense route, as route "dense-fallback"."""
    full = dense_symmetric_eig(M)
    return EigResult(full.eigenvalues[:m], full.eigenvectors[:, :m], full.residuals[:m], "dense-fallback")


@contextmanager
def _out_of_memory_refused(step: str):
    """Raise ConvergenceError when ``step`` runs out of memory: numpy raises
    MemoryError, SuperLU a RuntimeError naming SUPERLU_MALLOC, and the
    dynamic loader, importing a scipy module, an ImportError that it failed
    to map a segment of a shared library."""
    try:
        yield
    except MemoryError as exc:
        raise ConvergenceError(f"out of memory in {step}") from exc
    except (RuntimeError, ImportError) as exc:
        sign = "SUPERLU_MALLOC" if isinstance(exc, RuntimeError) else "failed to map segment"
        if sign not in str(exc):
            raise
        raise ConvergenceError(f"out of memory in {step}") from exc


def _eigenvalues_below(A, sigma: float):
    """The number of eigenvalues of A below sigma, or None if SuperLU cannot
    show it.

    SuperLU factors P (A - sigma I) P^T = L U with a symmetric fill-reducing
    order P and diagonal pivots only.  U's diagonal is then the D of the
    congruence L D L^T, and by Sylvester's law of inertia its negative
    entries count the eigenvalues below sigma.  None when SuperLU had to
    leave the diagonal (perm_r != perm_c) or met an exactly singular pivot.
    """
    with _out_of_memory_refused("the inertia count"):
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        shifted = sp.csc_matrix(A) - sigma * sp.identity(A.shape[0], format="csc")
        try:
            lu = splu(
                shifted, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
            )
        except RuntimeError as exc:
            if "singular" not in str(exc):
                raise
            return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def _lanczos_smallest(A, m: int, floor: float = 0.0) -> EigResult:
    """ARPACK's implicitly restarted Lanczos method in shift-invert mode,
    with a certificate that no eigenvalue below the returned ones is missing.

    The shift is -SHIFT_REL * ||A||_inf: strictly below zero, so A - sigma*I
    stays nonsingular for a singular PSD operator (``kohn_fd`` on all-odd
    grids has an exact zero eigenvalue), and close enough to zero that the
    smallest eigenvalues stay well separated after inversion, unless A is
    ill-conditioned: on a clamped beam of 4096 points the smallest
    eigenvalue is 500 and the shift -4.5e9, and ARPACK took 6.8 s to tell
    the clustered inverted values apart (0.4 s on 2048 points, over 90 s on
    8192).  A caller that has proven a positive lower bound ``floor`` of the
    spectrum gets the shift floor / 2 instead, below every eigenvalue and
    at their scale.  The starting
    vector is seeded, so reruns are identical.  Raises ConvergenceError
    unless ARPACK converged and every residual ||A v - theta v|| is within
    RESIDUAL_REL_TOL * ||A||_inf, an upper bound on the spectral radius.
    Rejects operators with symmetry defect above 1e-12 * max|A|, and Ritz
    bases of more than MAX_RITZ_ENTRIES floats before allocating them.

    Residuals show that each pair is *an* eigenpair, not that the pairs are
    the m smallest: Lanczos can miss one copy of a multiple eigenvalue and
    return the next eigenvalue instead.  By Kahan's theorem the m values lie
    within margin = sqrt(m) * RESIDUAL_REL_TOL * ||A||_inf of m distinct
    eigenvalues.  The top cluster is the run of largest values less than
    2 margins apart; sigma sits one margin below it, so each value below
    sigma stands for an eigenvalue below sigma, and an inertia count of
    exactly that many eigenvalues below sigma shows that none is missing.
    When the count disagrees or cannot be made, the first m pairs of the
    dense route are returned up to DENSE_DIM_CAP, and ConvergenceError is
    raised above it.
    """
    dim = A.shape[0]
    # the import maps shared libraries, and the symmetry check and the
    # residuals copy A or allocate dim x m floats: each can run out of memory
    with _out_of_memory_refused(f"ARPACK for {m} eigenpairs of dimension {dim}"):
        # scipy.sparse.linalg is imported here: it would roughly double the
        # package's import time, and only this route needs it
        from scipy.sparse.linalg import ArpackNoConvergence, eigsh

        _require_symmetric(A)
        scale = _inf_norm(A)
        ncv = min(dim, max(2 * m + 1, 20))  # scipy's default, passed so it can be reported
        if ncv * dim > MAX_RITZ_ENTRIES:
            raise InputError(
                f"ARPACK's Ritz basis of {ncv} x {dim} floats for {m} eigenpairs exceeds the cap of "
                f"3 * {DENSE_DIM_CAP}^2"
            )
        v0 = np.random.default_rng(V0_SEED).standard_normal(dim)
        shift = floor / 2.0 if floor > 0.0 else -SHIFT_REL * scale
        try:
            w, V = eigsh(A, k=m, sigma=shift, which="LM", v0=v0, ncv=ncv, tol=0.0)
        except ArpackNoConvergence as exc:
            raise ConvergenceError(f"ARPACK did not converge for the {m} smallest eigenpairs") from exc
        order = np.argsort(w)
        w, V = w[order], V[:, order]
        res = np.linalg.norm(A @ V - V * w[None, :], axis=0)
    _check_residuals(res, scale)

    margin = np.sqrt(m) * RESIDUAL_REL_TOL * scale
    breaks = np.flatnonzero(np.diff(w) > 2 * margin)
    top = int(breaks[-1]) + 1 if breaks.size else 0  # index of the top cluster's lowest value
    sigma = w[top] - margin
    if _eigenvalues_below(A, sigma) != top:
        if dim > DENSE_DIM_CAP:
            raise ConvergenceError(
                f"ARPACK returned {top} eigenvalues below {sigma:.17g}, and an inertia count of "
                f"A - sigma I did not confirm that no other lies there"
            )
        return _dense_smallest(A, m)
    return EigResult(w, V, res, "lanczos", iterations=ncv)


def _dense_route(dim: int, m: int) -> bool:
    """Whether the m smallest of dim eigenpairs take the dense route: the
    measured crossover of ``smallest_eigs``, which holds every m above
    dim/10 up to DENSE_DIM_CAP.  ``operators._block_smallest`` reads it to
    build a block as a dense array for ``dense_symmetric_eig`` when True,
    and as a sparse matrix for ``smallest_eigs`` when False."""
    return dim <= DENSE_DIM_CAP and (dim < DENSE_FALLBACK_DIM or m * ARPACK_DIM_PER_PAIR > dim)


def smallest_eigs(op, m: int, floor: float = 0.0) -> EigResult:
    """The m smallest eigenpairs of a symmetric PSD operator: 1 <= m <= dim
    up to DENSE_DIM_CAP, 1 <= m <= dim/4 above it.

    ``op`` may be a DiscreteOperator (its ``matrix`` is used), a scipy sparse
    matrix, or a dense array.  The route follows the measured crossover: the
    first m pairs of the dense route (route name "dense-fallback") when
    dim <= DENSE_DIM_CAP and either dim < DENSE_FALLBACK_DIM or
    m > dim / ARPACK_DIM_PER_PAIR, ARPACK's otherwise (route name "lanczos"
    once its inertia count has shown that no eigenvalue was skipped).
    Either route raises ConvergenceError rather than return pairs that did
    not converge, whose residuals exceed RESIDUAL_REL_TOL * ||A||_inf, or
    that may not be the m smallest.  A positive ``floor``, a proven lower
    bound of the spectrum, moves ARPACK's shift to floor / 2 (see
    ``_lanczos_smallest``); the inertia count does not rely on it.
    """
    M = getattr(op, "matrix", op)
    dim = M.shape[0]
    top, bound = (dim, "dim") if dim <= DENSE_DIM_CAP else (dim // 4, "dim/4")
    if not 1 <= m <= top:
        raise InputError(f"need 1 <= m <= {bound} = {top}, got m = {m}")
    if _dense_route(dim, m):
        return _dense_smallest(M, m)
    return _lanczos_smallest(M.tocsr() if _issparse(M) else M, m, floor)
