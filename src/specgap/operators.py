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

``fd_laplacian`` is a Kronecker sum of 1-D second differences, whose
eigenpairs are sine modes, so ``laplacian_power_spectrum`` writes the
spectrum of its l-th power in closed form: the same sort of per-axis sums
that ``box_spectrum`` makes, with the residual of every sine mode it uses
checked.  No matrix is built and no eigensolver runs.

The builders import scipy.sparse when they run, not when this module is
imported: ``bound``, ``verify`` and the Laplacian's closed form never build a
sparse matrix and need not pay for it.  Running out of memory in a builder
is ConvergenceError, like running out of memory in an eigensolver.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .bounds import EUCLIDEAN, HEISENBERG, MAX_PREFIX_LEN, SpectrumPrefix
from .errors import InputError
from .eigensolve import (
    DENSE_DIM_CAP,
    _check_residuals,
    _out_of_memory_refused,
    dense_symmetric_eig,
    hermitian_defect,
    smallest_eigs,
)

if TYPE_CHECKING:  # the builders import scipy.sparse when they run
    import scipy.sparse as sp

# interior points of a finite-difference grid: the shift-invert factorization
# of a 32^3 clamped plate, the largest 3-D grid admitted, peaks near 1.1 GB
MAX_GRID_POINTS = 2**15
# natural logarithms of the normal float range: a spectrum outside it rounds
# to zero or overflows
_LOG_TINY, _LOG_HUGE = math.log(sys.float_info.min), math.log(sys.float_info.max)
# floats per chunk of sine modes whose residuals are checked at once
_MODE_CHUNK = 2**16
LAPLACIAN_STENCIL = "dirichlet-laplacian"


@dataclass(eq=False)
class DiscreteOperator:
    """Sparse symmetric operator with its tensor-grid metadata."""

    matrix: sp.csr_matrix
    npoints: tuple
    stencil: str

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def symmetry_defect(self) -> float:
        return hermitian_defect(self.matrix)


@dataclass(eq=False)
class KohnOperator(DiscreteOperator):
    """Kohn Laplacian plus its skew field matrices for structure checks."""

    x_field: sp.csr_matrix = None
    y_field: sp.csr_matrix = None
    t_field: sp.csr_matrix = None
    heisenberg_n: int = 1


def _box_sides(sides, modes: int, order: int = 2) -> tuple:
    """At least one box side, each positive and finite, as floats, such that
    an operator of ``order`` (2 for the Laplacian, 4 for the clamped plate)
    with at most ``modes`` modes per side has a spectrum of positive finite
    floats.

    Mode p of side a, exact (pi^2 p^2 / a^2) or on a grid of step h
    ((4 / h^2) sin^2(p pi h / (2 a))), lies in [a^-2, (pi p / a)^2], so for
    d sides the operator's modes along each side are at least a_max^-order
    and its spectrum lies below (d (pi modes / a_min)^2)^(order / 2).
    Refused unless both bounds are normal floats: outside that range values
    overflow, or round to zero and lose a side.  The Kohn operator is held
    to the same scales.  Powers of a spectrum are checked on its computed
    values (see ``_raise_to``), since a bound from the sides alone would
    refuse prefixes whose powers are finite.
    """
    sides = tuple(float(s) for s in np.atleast_1d(sides))
    if not sides or not all(0.0 < s < math.inf for s in sides):  # NaN fails too
        raise InputError(f"box sides must be positive and finite, got {sides}")
    log_top = 2.0 * (math.log(math.pi * modes) - math.log(min(sides))) + math.log(len(sides))
    if not (-order * math.log(max(sides)) >= _LOG_TINY and order / 2 * log_top <= _LOG_HUGE):
        raise InputError(
            f"box sides {sides} put the spectrum of an order-{order} operator with {modes} modes per side "
            "outside the range of floating-point numbers"
        )
    return sides


def _raise_to(values: np.ndarray, l: int) -> np.ndarray:
    """values ** l for ascending finite values; InputError if a power
    overflows or rounds to zero."""
    with np.errstate(over="ignore", under="ignore"):
        powered = values**l
    if np.any(np.isinf(powered) | ((powered == 0) & (values != 0))):
        raise InputError(
            f"eigenvalues from {values[0]:.6g} to {values[-1]:.6g} raised to the power {l} leave the range "
            "of floating-point numbers"
        )
    return powered


def _validate_grid(sides, grids, min_pts: int, order: int = 2):
    grids = tuple(int(g) for g in np.atleast_1d(grids))
    if any(g < min_pts for g in grids):
        raise InputError(f"need at least {min_pts} interior points per axis, got {grids}")
    if math.prod(grids) > MAX_GRID_POINTS:  # refused before the builders allocate
        raise InputError(f"{math.prod(grids)} interior points exceed the cap of {MAX_GRID_POINTS}")
    sides = _box_sides(sides, max(grids, default=1), order)
    if len(grids) == 1 and len(sides) > 1:
        grids = grids * len(sides)
    if len(sides) != len(grids):
        raise InputError(f"got {len(sides)} sides but {len(grids)} grid sizes")
    h = tuple(s / (g + 1) for s, g in zip(sides, grids))
    return sides, grids, h


def _smallest_sums(axes, count: int):
    """The ``count`` smallest of the sums sum_j axes[j][p_j] over every index
    tuple (fewer if there are fewer tuples), ascending with multiplicity,
    and the per-axis indices p_j of each."""
    sums = np.zeros(())
    for axis in axes:
        sums = np.add.outer(sums, axis)
    flat = sums.ravel()
    first = np.argpartition(flat, count - 1)[:count] if count < flat.size else np.arange(flat.size)
    first = first[np.argsort(flat[first], kind="stable")]
    return flat[first], np.unravel_index(first, sums.shape)


def box_spectrum(sides, count: int) -> SpectrumPrefix:
    """First ``count`` exact Dirichlet Laplacian eigenvalues of a box,

        pi^2 * sum_j (p_j / a_j)^2,   p_j >= 1 integers,

    sorted with multiplicity; at most MAX_PREFIX_LEN of them, from an
    enumeration cube of at most DENSE_DIM_CAP^2 lattice points."""
    if not 1 <= count <= MAX_PREFIX_LEN:  # refused before the enumeration allocates
        raise InputError(f"count must satisfy 1 <= count <= {MAX_PREFIX_LEN}, got {count}")
    sides = _box_sides(sides, count)
    a_max = max(sides)
    M = max(2, int(np.ceil(count ** (1.0 / len(sides)))) + 1)
    while True:
        if M ** len(sides) > DENSE_DIM_CAP**2:
            raise InputError(
                f"{count} eigenvalues of a {len(sides)}-dimensional box need an enumeration of "
                f"{M}^{len(sides)} lattice points, above the cap of {DENSE_DIM_CAP}^2"
            )
        vals = np.pi**2 * _smallest_sums([(np.arange(1, M + 1) / side) ** 2 for side in sides], count)[0]
        # any tuple outside the enumeration cube has some p_j >= M+1, hence
        # value >= pi^2 (M+1)^2 / a_max^2
        safe = np.pi**2 * (M + 1) ** 2 / a_max**2
        if vals.size >= count and vals[count - 1] <= safe:
            return SpectrumPrefix(vals[:count], n=len(sides), l=1, problem=EUCLIDEAN)
        M *= 2


def _check_power(l) -> None:
    if not (isinstance(l, (int, np.integer)) and l >= 1):
        raise InputError(f"l must be a positive integer, got {l}")


def _check_count(count: int, dim: int) -> None:
    if not 1 <= count <= dim:
        raise InputError(f"count must satisfy 1 <= count <= {dim}, got {count}")


def _sine_modes(n: int) -> np.ndarray:
    """The eigenvalues 4 sin^2(p pi / (2 (n + 1))), p = 1..n, of the second
    difference tridiag(-1, 2, -1) of size n, ascending: h^2 times those of
    ``_second_difference(n, h)``."""
    return 4.0 * np.sin(np.arange(1, n + 1) * (np.pi / (2 * (n + 1)))) ** 2


def _sine_mode_residual(n: int, modes: np.ndarray, used: np.ndarray) -> float:
    """max ||T u - modes[q] u|| over the 0-based mode indices q in ``used``,
    where T = tridiag(-1, 2, -1) of size n and u is the unit vector along
    sin(i (q + 1) pi / (n + 1)), i = 1..n.

    The sines are read from one period of sin(k pi / (n + 1)), so the
    argument of each is reduced exactly; modes are checked in chunks of
    _MODE_CHUNK floats, so memory stays bounded for any n and count.
    """
    period = 2 * (n + 1)
    sines = np.sin(np.arange(period) * (np.pi / (n + 1)))
    rows = np.arange(1, n + 1)
    worst = 0.0
    step = max(1, _MODE_CHUNK // n)
    for start in range(0, used.size, step):
        q = used[start : start + step]
        u = sines[np.multiply.outer(q + 1, rows) % period]
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = (2.0 - modes[q, None]) * u
        r[:, 1:] -= u[:, :-1]
        r[:, :-1] -= u[:, 1:]
        worst = max(worst, float(np.linalg.norm(r, axis=1).max()))
    return worst


def laplacian_power_spectrum(sides, grids, l: int, count: int) -> tuple[SpectrumPrefix, tuple]:
    """First ``count`` eigenvalues of fd_laplacian(sides, grids)^l in closed
    form, as (SpectrumPrefix, grid sizes with one per side).

    Axis j, with n_j interior points and step h_j, has the modes
    mu_{j,p} = (4 / h_j^2) sin^2(p pi / (2 (n_j + 1))), p = 1..n_j, and the
    spectrum is every sum of one mode per axis: enumerated in full, so no
    eigenvalue is skipped.  The certificate: for unit vectors u_j,
    ||A (x)u_j - (sum_j mu_j) (x)u_j|| <= sum_j r_{j,p_j}, the residuals of
    the 1-D sine pairs, so ConvergenceError is raised (by the eigensolvers'
    residual check) unless sum_j of the largest r_j over the modes the
    written values use is within RESIDUAL_REL_TOL * ||A||_inf.
    """
    _check_power(l)
    sides, grids, h = _validate_grid(sides, grids, min_pts=2)
    _check_count(count, math.prod(grids))
    modes = [_sine_modes(n) for n in grids]
    vals, used = _smallest_sums([m / hj**2 for m, hj in zip(modes, h)], count)
    residual = sum(
        _sine_mode_residual(n, m, np.unique(q)) / hj**2 for n, m, q, hj in zip(grids, modes, used, h)
    )
    # ||A||_inf: the rows of tridiag(-1, 2, -1) sum to 4 in absolute value, 3 at n = 2
    _check_residuals(np.array([residual]), sum((2.0 + min(n - 1, 2)) / hj**2 for n, hj in zip(grids, h)))
    return SpectrumPrefix(_raise_to(vals, l), n=len(grids), l=int(l), problem=EUCLIDEAN), grids


def _second_difference(n: int, h: float) -> sp.csr_matrix:
    """Tridiagonal -d^2/dx^2 with Dirichlet ends, SPD."""
    import scipy.sparse as sp

    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def _central_difference(n: int, h: float) -> sp.csr_matrix:
    """Tridiagonal skew d/dx with Dirichlet truncation, exactly antisymmetric."""
    import scipy.sparse as sp

    off = np.full(n - 1, 1.0 / (2.0 * h))
    return sp.diags([off, -off], [1, -1], format="csr")


def _clamped_fourth_difference(n: int, h: float) -> sp.csr_matrix:
    """Pentadiagonal d^4/dx^4 for a clamped end: boundary value zero and the
    ghost point mirroring the first interior point (zero normal derivative)."""
    import scipy.sparse as sp

    if n < 4:
        raise InputError(f"clamped stencil needs at least 4 interior points, got {n}")
    main = np.full(n, 6.0)
    main[0] = main[-1] = 7.0  # ghost mirror folds into the diagonal
    off1 = np.full(n - 1, -4.0)
    off2 = np.full(n - 2, 1.0)
    return sp.diags([off2, off1, main, off1, off2], [-2, -1, 0, 1, 2], format="csr") / h**4


def _kron_chain(mats) -> sp.csr_matrix:
    import scipy.sparse as sp

    out = mats[0]
    for m in mats[1:]:
        out = sp.kron(out, m, format="csr")
    return out


def _axis_operator(op_1d, axis: int, grids) -> sp.csr_matrix:
    import scipy.sparse as sp

    mats = [sp.identity(g, format="csr") for g in grids]
    mats[axis] = op_1d
    return _kron_chain(mats)


@_out_of_memory_refused("building the finite-difference Laplacian")
def fd_laplacian(sides, grids) -> DiscreteOperator:
    """Central-difference Dirichlet Laplacian (sign convention -Laplace)."""
    sides, grids, h = _validate_grid(sides, grids, min_pts=2)
    total = _axis_operator(_second_difference(grids[0], h[0]), 0, grids)
    for ax in range(1, len(grids)):
        total = total + _axis_operator(_second_difference(grids[ax], h[ax]), ax, grids)
    return DiscreteOperator(total.tocsr(), grids, LAPLACIAN_STENCIL)


@_out_of_memory_refused("building the clamped plate")
def fd_clamped_plate(sides, grids) -> DiscreteOperator:
    """Biharmonic operator with clamped conditions: per-axis fourth
    differences with ghost mirroring plus twice the mixed products of the
    per-axis second differences."""
    import scipy.sparse as sp

    sides, grids, h = _validate_grid(sides, grids, min_pts=4, order=4)
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
    return DiscreteOperator(total.tocsr(), grids, "clamped-plate")


@_out_of_memory_refused("building the Kohn Laplacian")
def kohn_fd(n: int = 1, sides=(1.0, 1.0, 1.0), grids=(12, 12, 12)) -> KohnOperator:
    """Kohn Laplacian on a Heisenberg box (n = 1: coordinates (x, y, t),
    box centered at the origin).

    The horizontal fields are discretized with exactly skew-symmetric central
    differences; the variable coefficient enters through the symmetric
    product average (D_t M + M D_t)/2, which preserves skewness exactly.  The
    operator is the Gram form X^T X + Y^T Y, symmetric PSD by construction.
    """
    import scipy.sparse as sp

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
    return KohnOperator(L, grids, "kohn-heisenberg", x_field=X, y_field=Y, t_field=Dt, heisenberg_n=n)


def operator_power_spectrum(op: DiscreteOperator, l: int, count: int) -> SpectrumPrefix:
    """First ``count`` eigenvalues of op^l: eigenvalues of op are computed
    once and raised to the l-th power (the matrix power shares eigenvectors).

    Up to dim/4 eigenvalues come from ``smallest_eigs``, more from the full
    dense spectrum; either way every eigenpair's residual is checked, and
    ConvergenceError is raised rather than an unchecked value returned.

    For a Dirichlet Laplacian base this realizes Navier-type conditions, not
    clamped ones; CSV metadata written by the CLI says so.  The CLI takes
    that spectrum from ``laplacian_power_spectrum`` instead, in closed form.
    The clamped plate is already the l = 2 problem: it takes only l = 1 and
    is labeled l = 2.
    """
    _check_power(l)
    clamped = op.stencil == "clamped-plate"
    if clamped and l != 1:
        raise InputError("the clamped operator is already the l = 2 problem; "
                         "powers apply to laplacian and kohn spectra")
    _check_count(count, op.dim)
    if count <= op.dim // 4:
        vals = smallest_eigs(op, count).eigenvalues
    else:
        vals = dense_symmetric_eig(op.matrix).eigenvalues[:count]
    vals = _raise_to(np.sort(vals), l)
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
    """Inverse of write_spectrum_csv; returns (values, metadata).  ``stream``
    is a text file object."""
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
            raise InputError(f"bad eigenvalue line {line!r}") from exc
    return np.asarray(vals, dtype=float), meta
