"""Finite-dimensional verification of the commutator eigenvalue inequality.

For a Hermitian A with orthonormal eigenpairs (lambda_i, u_i), Hermitian B_p
and anti-self-adjoint T_p (p = 1..n), an admissible couple (f, g) on
(0, lambda_{k+1}) must satisfy

    ( sum_{i<=k} sum_p f(lambda_i) <[T_p,B_p] u_i, u_i> )^2
      <= 4 * ( sum g(lambda_i) <[A,B_p] u_i, B_p u_i> )
           * ( sum f(lambda_i)^2 / (g(lambda_i)(lambda_{k+1}-lambda_i))
               * ||T_p u_i||^2 ),

with the first right-hand factor (the quadratic coefficient) nonnegative.
The couple carries the point where the inequality is read: the verifiers
take z = couple.lam in (lambda_k, lambda_{k+1}] in place of lambda_{k+1}, and
no z is passed beside the couple.  This module checks that inequality, its
one-family corollary obtained by setting T_p = [A, B_p] (which drops the
factor 4), and the spectral moment inequality
<Q^r u, u> <= <Q^q u, u>^(r/q) <u, u>^(1-r/q)  for PSD Q.

Everything here is exact linear algebra on small dense matrices; the only
hypotheses used are symmetry, skew-symmetry, and the spectral decomposition,
all of which are finite-dimensionally meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import couples as _couples
from .errors import InputError
from .eigensolve import DENSE_DIM_CAP, dense_symmetric_eig, hermitian_defect

HERMITICITY_TOL = 1e-13
ENSEMBLES = ("dense-gaussian", "sparse", "commuting-diagnostic")


def commutator(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """XY - YX for conformable square matrices."""
    X = np.asarray(X)
    Y = np.asarray(Y)
    if X.ndim != 2 or X.shape[0] != X.shape[1] or X.shape != Y.shape:
        raise InputError(f"need equal square shapes, got {X.shape} and {Y.shape}")
    return X @ Y - Y @ X


def _require_hermitian(M: np.ndarray, name: str, skew: bool = False) -> None:
    """Refuse M, called ``name``, unless it is Hermitian (anti-self-adjoint
    if ``skew``) within HERMITICITY_TOL * max|M|."""
    defect = float(np.abs(M + M.conj().T).max()) if skew else hermitian_defect(M)
    if defect > HERMITICITY_TOL * max(float(np.abs(M).max()), 1e-300):
        kind = "anti-self-adjoint" if skew else "Hermitian"
        raise InputError(f"{name} is not {kind} within 1e-13 * max|{name[0]}|")


@dataclass(eq=False)
class OperatorTriple:
    """A finite-dimensional instance (A, {B_p}, {T_p}).

    A and every B_p Hermitian, every T_p anti-self-adjoint, all d x d.  The
    spectral data used by the verifiers is computed once, from residual-checked
    eigenpairs of A, and cached.
    """

    A: np.ndarray
    Bs: tuple
    Ts: tuple

    def __post_init__(self):
        A = np.asarray(self.A, dtype=complex)
        Bs = tuple(np.asarray(B, dtype=complex) for B in self.Bs)
        Ts = tuple(np.asarray(T, dtype=complex) for T in self.Ts)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise InputError(f"A must be square, got {A.shape}")
        if len(Bs) != len(Ts) or not Bs:
            raise InputError("need equally many (at least one) B and T operators")
        d = A.shape[0]
        _require_hermitian(A, "A")
        for p, (B, T) in enumerate(zip(Bs, Ts)):
            if B.shape != (d, d) or T.shape != (d, d):
                raise InputError(f"operator pair {p} has wrong shape")
            _require_hermitian(B, f"B[{p}]")
            _require_hermitian(T, f"T[{p}]", skew=True)
        self.A, self.Bs, self.Ts = A, Bs, Ts

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return len(self.Bs)

    @cached_property
    def spectral(self) -> "SpectralData":
        eig = dense_symmetric_eig(self.A)
        U = eig.eigenvectors
        n, d = self.n, self.d
        tb = np.empty((n, d))
        ab = np.empty((n, d))
        tn = np.empty((n, d))
        for p, (B, T) in enumerate(zip(self.Bs, self.Ts)):
            TU = T @ U
            BU = B @ U
            tb[p] = np.real(np.sum(np.conj(U) * (commutator(T, B) @ U), axis=0))
            ab[p] = np.real(np.sum(np.conj(BU) * (commutator(self.A, B) @ U), axis=0))
            tn[p] = np.sum(np.abs(TU) ** 2, axis=0)
        return SpectralData(eig.eigenvalues, tb, ab, tn)


@dataclass(eq=False)
class SpectralData:
    """Per-(p, i) inner products entering the inequality, in A's eigenbasis.

    tb[p, i] = <[T_p,B_p] u_i, u_i>, ab[p, i] = <[A,B_p] u_i, B_p u_i>,
    tn[p, i] = ||T_p u_i||^2.  All real up to round-off by symmetry.
    """

    lam: np.ndarray
    tb: np.ndarray
    ab: np.ndarray
    tn: np.ndarray


@dataclass
class TheoremReport:
    """One inequality evaluation: sides, quadratic coefficient, verdict."""

    k: int
    lhs: float
    rhs: float
    quad_coeff: float
    gap: float
    passed: bool
    z: float
    slack: float = 0.0
    identity_residual: Optional[float] = None

    def as_dict(self) -> dict:
        """The fields in order, ``passed`` written as "pass", and no
        identity_residual where there is none.  Read from the instance dict:
        ``dataclasses.asdict`` deep-copies each value, at ten times the cost."""
        out = {"pass" if key == "passed" else key: value for key, value in vars(self).items()}
        if self.identity_residual is None:
            del out["identity_residual"]
        return out


def _evaluate(sd: SpectralData, k: int, couple, left: np.ndarray, factor: float) -> TheoremReport:
    """Check the hypotheses shared by the theorem and its corollary, then
    compare ( sum f(lambda_i) left[p, i] )^2 with factor * quad * second at
    z = couple.lam."""
    lam = sd.lam
    if not 1 <= k < lam.size:
        raise InputError(f"need 1 <= k < d = {lam.size}, got k = {k}")
    gap = float(lam[k] - lam[k - 1])
    if not gap > 0:
        raise InputError(f"lambda_{k + 1} > lambda_{k} required, gap = {gap}")
    z = float(couple.lam)
    if not (lam[k - 1] < z <= lam[k] * (1.0 + 1e-12)):
        raise InputError(f"z must lie in (lambda_k, lambda_(k+1)], got {z}")

    f, g = _couples.admissible_weights(couple, lam[:k])
    lhs = float(np.sum(f[None, :] * left[:, :k])) ** 2
    quad = float(np.sum(g[None, :] * sd.ab[:, :k]))
    quad_scale = float(np.sum(np.abs(g[None, :] * sd.ab[:, :k])))
    second = float(np.sum((f**2 / (g * (z - lam[:k])))[None, :] * sd.tn[:, :k]))
    rhs = factor * quad * second
    passed = lhs <= rhs + 1e-9 * (1.0 + abs(rhs)) and quad >= -1e-9 * (1.0 + quad_scale)
    return TheoremReport(k, lhs, rhs, quad, gap, passed, z, lhs - rhs)


def verify_theorem(triple: OperatorTriple, k: int, couple) -> TheoremReport:
    """Evaluate the main inequality for the first k eigenpairs of the triple.

    Requires lambda_{k+1} > lambda_k.  The inequality is read at
    z = couple.lam, which must lie in (lambda_k, lambda_{k+1}].
    """
    sd = triple.spectral
    return _evaluate(sd, k, couple, sd.tb, 4.0)


def verify_corollary(A, Bs, k: int, couple) -> TheoremReport:
    """Evaluate the one-family corollary with T_p = [A, B_p].

    The squared left side uses <[A,B_p] u_i, B_p u_i> directly and the right
    side carries no factor 4; the hypotheses on k and the couple are those
    of :func:`verify_theorem`.  Also checks the identity
    <[A,B_p] u_i, B_p u_i> = -1/2 <[[A,B_p],B_p] u_i, u_i> and reports its
    largest residual.
    """
    A = np.asarray(A, dtype=complex)
    Bs = tuple(np.asarray(B, dtype=complex) for B in Bs)
    Ts = tuple(commutator(A, B) for B in Bs)
    sd = OperatorTriple(A, Bs, Ts).spectral
    report = _evaluate(sd, k, couple, sd.ab, 1.0)
    # with T_p = [A,B_p], tb[p, i] is <[[A,B_p],B_p] u_i, u_i>
    worst = float(np.abs(-0.5 * sd.tb - sd.ab).max())
    report.identity_residual = worst / max(float(np.abs(sd.ab).max()), 1.0)
    return report


def moment_inequality_check(Q, u, r: int, q: int) -> float:
    """Margin <Q^q u,u>^(r/q) <u,u>^(1-r/q) - <Q^r u,u> for PSD Hermitian Q
    and a unit vector u; nonnegative up to round-off for 0 <= r <= q.  Q is
    decomposed by the residual-checked dense route."""
    Q = np.asarray(Q, dtype=complex)
    u = np.asarray(u, dtype=complex).ravel()
    if not (isinstance(r, (int, np.integer)) and isinstance(q, (int, np.integer)) and 0 <= r <= q):
        raise InputError(f"need integers 0 <= r <= q, got r={r}, q={q}")
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or Q.shape[0] != u.size:
        raise InputError("Q must be square and conformable with u")
    nrm = np.linalg.norm(u)
    if nrm == 0:
        raise InputError("u must be nonzero")
    u = u / nrm
    _require_hermitian(Q, "Q")
    eig = dense_symmetric_eig(Q)  # ConvergenceError unless every residual is small
    w, V = eig.eigenvalues, eig.eigenvectors
    if w[0] < -1e-12 * max(abs(w[-1]), abs(w[0]), 1e-300):
        raise InputError(f"Q is not positive semidefinite (smallest eigenvalue {w[0]:g})")
    w = np.clip(w, 0.0, None)
    c2 = np.abs(V.conj().T @ u) ** 2
    if q == 0:
        return 0.0
    mq = float(np.sum(w**q * c2))
    mr = float(np.sum(w**r * c2))
    return mq ** (r / q) - mr


def random_instance(d: int, n: int, seed: int, ensemble: str = "dense-gaussian") -> OperatorTriple:
    """A seeded random (A, {B_p}, {T_p}) instance, deterministic in
    (seed, d, n, ensemble).

    A is symmetrized Gaussian shifted by a multiple of the identity so its
    spectrum is positive (couples live on (0, lambda); commutators and gaps
    are unchanged by the shift).
    """
    if not (d >= 2 and n >= 1):
        raise InputError(f"need d >= 2 and n >= 1, got d={d}, n={n}")
    if d > DENSE_DIM_CAP:
        raise InputError(f"dimension {d} exceeds the dense cap {DENSE_DIM_CAP}")
    # no triple holds more entries than A, B and T at the dense cap
    if (2 * n + 1) * d * d > 3 * DENSE_DIM_CAP**2:
        raise InputError(
            f"{2 * n + 1} operators of dimension {d} exceed the cap of 3 * {DENSE_DIM_CAP}^2 entries"
        )
    if ensemble not in ENSEMBLES:
        raise InputError(f"unknown ensemble {ensemble!r}; known: {ENSEMBLES}")
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed), int(d), int(n), ENSEMBLES.index(ensemble)])
    )

    def gaussian(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    if ensemble == "commuting-diagnostic":
        A = np.diag(np.sort(rng.uniform(0.5, 4.0, size=d))).astype(complex)
        Bs = tuple(np.diag(rng.standard_normal(d)).astype(complex) for _ in range(n))
        Ts = []
        for _ in range(n):
            N = gaussian((d, d))
            Ts.append((N - N.conj().T) / 2.0)
        return OperatorTriple(A, Bs, tuple(Ts))

    M = gaussian((d, d))
    if ensemble == "sparse":
        M = M * (rng.uniform(size=(d, d)) < 0.3)
    A = (M + M.conj().T) / 2.0
    # only a shift: the verifiers read A's eigenpairs from the checked `spectral`
    lam_min = float(np.linalg.eigvalsh(A)[0])
    A = A + (1.0 - lam_min) * np.eye(d)

    Bs, Ts = [], []
    for _ in range(n):
        Mb = gaussian((d, d))
        Nt = gaussian((d, d))
        if ensemble == "sparse":
            Mb = Mb * (rng.uniform(size=(d, d)) < 0.3)
            Nt = Nt * (rng.uniform(size=(d, d)) < 0.3)
        Bs.append((Mb + Mb.conj().T) / 2.0)
        Ts.append((Nt - Nt.conj().T) / 2.0)
    return OperatorTriple(A, tuple(Bs), tuple(Ts))


def admissible_ks(triple: OperatorTriple, min_gap_rel: float = 1e-6) -> list[int]:
    """All k whose spectral gap exceeds min_gap_rel * ||A||_2."""
    sd = triple.spectral
    lam = sd.lam
    norm = max(abs(float(lam[0])), abs(float(lam[-1])))
    return [k for k in range(1, triple.d) if lam[k] - lam[k - 1] > min_gap_rel * norm]
