"""Spectrum factories: exact box spectra and finite-difference operators.

Everything is a sparse symmetric matrix on a tensor grid of interior points
with homogeneous Dirichlet truncation:

* ``fd_laplacian``      second-order central stencil for -Laplace;
* ``fd_clamped_plate``  13-point biharmonic stencil with boundary value 0 and
                        zero normal derivative encoded by mirroring the first
                        interior point into the ghost point;
* ``kohn_fd``           the Heisenberg sub-Laplacian as a Gram form
                        X^T X + Y^T Y of exactly skew-symmetric central
                        difference fields (n = 1 only).

``box_spectrum`` enumerates the exact Dirichlet Laplacian spectrum of a box,
and ``operator_power_spectrum`` raises computed eigenvalues to an integer
power (the matrix power shares eigenvectors).  Note that powering the
Dirichlet Laplacian realizes Navier-type, not clamped, conditions; outputs
are labeled accordingly.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .bounds import EUCLIDEAN, HEISENBERG, SpectrumPrefix
from .errors import InputError, SpectrumError
from .eigensolve import dense_symmetric_eig, smallest_eigs


@dataclass(eq=False)
class DiscreteOperator:
    """Sparse symmetric operator with its tensor-grid metadata."""

    matrix: sp.csr_matrix
    extents: tuple
    npoints: tuple
    spacings: tuple
    stencil: str

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def symmetry_defect(self) -> float:
        d = self.matrix - self.matrix.T
        return float(np.abs(d.data).max()) if d.nnz else 0.0


@dataclass(eq=False)
class KohnOperator(DiscreteOperator):
    """Kohn Laplacian plus its skew field matrices for structure checks."""

    x_field: sp.csr_matrix = None
    y_field: sp.csr_matrix = None
    t_field: sp.csr_matrix = None
    heisenberg_n: int = 1


def _validate_grid(sides, grids, min_pts: int):
    sides = tuple(float(s) for s in np.atleast_1d(sides))
    grids = tuple(int(g) for g in np.atleast_1d(grids))
    if len(grids) == 1 and len(sides) > 1:
        grids = grids * len(sides)
    if len(sides) != len(grids):
        raise InputError(f"got {len(sides)} sides but {len(grids)} grid sizes")
    if any(s <= 0 for s in sides):
        raise InputError(f"box sides must be positive, got {sides}")
    if any(g < min_pts for g in grids):
        raise InputError(f"need at least {min_pts} interior points per axis, got {grids}")
    h = tuple(s / (g + 1) for s, g in zip(sides, grids))
    return sides, grids, h


def box_spectrum(sides, count: int) -> SpectrumPrefix:
    """First ``count`` exact Dirichlet Laplacian eigenvalues of a box,

        pi^2 * sum_j (p_j / a_j)^2,   p_j >= 1 integers,

    sorted with multiplicity."""
    sides = tuple(float(s) for s in np.atleast_1d(sides))
    if any(s <= 0 for s in sides):
        raise InputError(f"box sides must be positive, got {sides}")
    if count < 1:
        raise InputError(f"count must be >= 1, got {count}")
    a = np.asarray(sides)
    a_max = float(a.max())
    M = max(2, int(np.ceil(count ** (1.0 / len(sides)))) + 1)
    while True:
        grids = np.meshgrid(*[np.arange(1, M + 1)] * len(sides), indexing="ij")
        vals = np.zeros(grids[0].shape)
        for p, side in zip(grids, sides):
            vals += (p / side) ** 2
        vals = np.sort(np.pi**2 * vals.ravel())
        # any tuple outside the enumeration cube has some p_j >= M+1, hence
        # value >= pi^2 (M+1)^2 / a_max^2
        safe = np.pi**2 * (M + 1) ** 2 / a_max**2
        if vals.size >= count and vals[count - 1] <= safe:
            return SpectrumPrefix(vals[:count], n=len(sides), l=1, problem=EUCLIDEAN)
        M *= 2


def _second_difference(n: int, h: float) -> sp.csr_matrix:
    """Tridiagonal -d^2/dx^2 with Dirichlet ends, SPD."""
    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def _central_difference(n: int, h: float) -> sp.csr_matrix:
    """Tridiagonal skew d/dx with Dirichlet truncation, exactly antisymmetric."""
    off = np.full(n - 1, 1.0 / (2.0 * h))
    return sp.diags([off, -off], [1, -1], format="csr")


def _clamped_fourth_difference(n: int, h: float) -> sp.csr_matrix:
    """Pentadiagonal d^4/dx^4 for a clamped end: boundary value zero and the
    ghost point mirroring the first interior point (zero normal derivative)."""
    if n < 4:
        raise InputError(f"clamped stencil needs at least 4 interior points, got {n}")
    main = np.full(n, 6.0)
    main[0] = main[-1] = 7.0  # ghost mirror folds into the diagonal
    off1 = np.full(n - 1, -4.0)
    off2 = np.full(n - 2, 1.0)
    return sp.diags([off2, off1, main, off1, off2], [-2, -1, 0, 1, 2], format="csr") / h**4


def _kron_chain(mats) -> sp.csr_matrix:
    out = mats[0]
    for m in mats[1:]:
        out = sp.kron(out, m, format="csr")
    return out


def _axis_operator(op_1d, axis: int, grids) -> sp.csr_matrix:
    mats = [sp.identity(g, format="csr") for g in grids]
    mats[axis] = op_1d
    return _kron_chain(mats)


def fd_laplacian(sides, grids) -> DiscreteOperator:
    """Central-difference Dirichlet Laplacian (sign convention -Laplace)."""
    sides, grids, h = _validate_grid(sides, grids, min_pts=2)
    total = _axis_operator(_second_difference(grids[0], h[0]), 0, grids)
    for ax in range(1, len(grids)):
        total = total + _axis_operator(_second_difference(grids[ax], h[ax]), ax, grids)
    return DiscreteOperator(total.tocsr(), sides, grids, h, "dirichlet-laplacian")


def fd_clamped_plate(sides, grids) -> DiscreteOperator:
    """Biharmonic operator with clamped conditions: per-axis fourth
    differences with ghost mirroring plus twice the mixed products of the
    per-axis second differences."""
    sides, grids, h = _validate_grid(sides, grids, min_pts=4)
    ndim = len(grids)
    total = _axis_operator(_clamped_fourth_difference(grids[0], h[0]), 0, grids)
    for ax in range(1, ndim):
        total = total + _axis_operator(_clamped_fourth_difference(grids[ax], h[ax]), ax, grids)
    for ax1 in range(ndim):
        for ax2 in range(ax1 + 1, ndim):
            mats = [sp.identity(g, format="csr") for g in grids]
            mats[ax1] = _second_difference(grids[ax1], h[ax1])
            mats[ax2] = _second_difference(grids[ax2], h[ax2])
            total = total + 2.0 * _kron_chain(mats)
    return DiscreteOperator(total.tocsr(), sides, grids, h, "clamped-plate")


def kohn_fd(n: int = 1, sides=(1.0, 1.0, 1.0), grids=(12, 12, 12)) -> KohnOperator:
    """Kohn Laplacian on a Heisenberg box (n = 1: coordinates (x, y, t),
    box centered at the origin).

    The horizontal fields are discretized with exactly skew-symmetric central
    differences; the variable coefficient enters through the symmetric
    product average (D_t M + M D_t)/2, which preserves skewness exactly.  The
    operator is the Gram form X^T X + Y^T Y, symmetric PSD by construction.
    """
    if n != 1:
        raise InputError("only the n = 1 Heisenberg group is supported at desk scale")
    sides, grids, h = _validate_grid(sides, grids, min_pts=4)
    if len(grids) != 3:
        raise InputError(f"n = 1 needs a 3-axis grid (x, y, t), got {len(grids)} axes")
    (ax, ay, at), (Nx, Ny, Nt), (hx, hy, ht) = sides, grids, h

    xs = -ax / 2.0 + hx * np.arange(1, Nx + 1)
    ys = -ay / 2.0 + hy * np.arange(1, Ny + 1)

    Dx = _axis_operator(_central_difference(Nx, hx), 0, grids)
    Dy = _axis_operator(_central_difference(Ny, hy), 1, grids)
    Dt = _axis_operator(_central_difference(Nt, ht), 2, grids)
    My = _axis_operator(sp.diags(ys / 2.0, format="csr"), 1, grids)
    Mx = _axis_operator(sp.diags(xs / 2.0, format="csr"), 0, grids)

    X = (Dx + 0.5 * (Dt @ My + My @ Dt)).tocsr()
    Y = (Dy - 0.5 * (Dt @ Mx + Mx @ Dt)).tocsr()
    L = (X.T @ X + Y.T @ Y).tocsr()
    L = (0.5 * (L + L.T)).tocsr()  # exact bitwise symmetry of the Gram sum
    return KohnOperator(
        L, sides, grids, h, "kohn-heisenberg", x_field=X, y_field=Y, t_field=Dt, heisenberg_n=n
    )


def operator_power_spectrum(op: DiscreteOperator, l: int, count: int) -> SpectrumPrefix:
    """First ``count`` eigenvalues of op^l: eigenvalues of op are computed
    once and raised to the l-th power (the matrix power shares eigenvectors).

    For a Dirichlet Laplacian base this realizes Navier-type conditions, not
    clamped ones; CSV metadata written by the CLI says so.  The clamped plate
    is already the l = 2 problem: it takes only l = 1 and is labeled l = 2.
    """
    if not (isinstance(l, (int, np.integer)) and l >= 1):
        raise InputError(f"l must be a positive integer, got {l}")
    clamped = op.stencil == "clamped-plate"
    if clamped and l != 1:
        raise InputError("the clamped operator is already the l = 2 problem; "
                         "powers apply to laplacian and kohn spectra")
    if not 1 <= count <= op.dim:
        raise SpectrumError(f"count must satisfy 1 <= count <= {op.dim}, got {count}")
    if count <= op.dim // 4:
        vals = smallest_eigs(op, count).eigenvalues
    else:
        vals = dense_symmetric_eig(op.matrix, want_vectors=False).eigenvalues[:count]
    vals = np.sort(vals) ** l
    if isinstance(op, KohnOperator):
        return SpectrumPrefix(vals, n=op.heisenberg_n, l=int(l), problem=HEISENBERG)
    return SpectrumPrefix(vals, n=len(op.npoints), l=2 if clamped else int(l), problem=EUCLIDEAN)


# ---------------------------------------------------------------------------
# CSV interface for spectra
# ---------------------------------------------------------------------------


def write_spectrum_csv(stream, values, metadata: Optional[dict] = None) -> None:
    """One eigenvalue per line at 17 significant digits, with `#` metadata
    comments first.  ``stream`` is a text file object."""
    for key, val in (metadata or {}).items():
        stream.write(f"# {key}: {val}\n")
    for v in np.asarray(values, dtype=float).ravel():
        stream.write(format(float(v), ".17g") + "\n")


def read_spectrum_csv(stream) -> tuple[np.ndarray, dict]:
    """Inverse of write_spectrum_csv; returns (values, metadata)."""
    if isinstance(stream, (str, bytes)):
        stream = io.StringIO(stream.decode() if isinstance(stream, bytes) else stream)
    meta: dict = {}
    vals: list[float] = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, val = body.partition(":")
                meta[key.strip()] = val.strip()
            continue
        try:
            vals.append(float(line))
        except ValueError as exc:
            raise SpectrumError(f"bad eigenvalue line {line!r}") from exc
    return np.asarray(vals, dtype=float), meta
