"""Spectrum factories: exact box spectra and finite-difference operators.

Each builder returns a sparse symmetric matrix on a tensor grid of interior
points with homogeneous Dirichlet truncation, though no command computes a
spectrum from a builder's matrix: the Laplacian's is written in closed form,
the clamped plate's comes from its reflection-parity blocks and the Kohn
Laplacian's from its t-Fourier blocks, each block dense or sparse (see
below).  The builders serve the tests, the demos and the benchmark's
reference checks:

* ``fd_laplacian``      second-order central stencil for -Laplace;
* ``fd_clamped_plate``  13-point biharmonic stencil with boundary value 0 and
                        zero normal derivative encoded by mirroring the first
                        interior point into the ghost point;
* ``kohn_fd``           the Heisenberg sub-Laplacian as a Gram form
                        X^T X + Y^T Y of exactly skew-symmetric central
                        difference fields (n = 1 only).

``box_spectrum`` enumerates the exact Dirichlet Laplacian spectrum of a box,
and ``operator_power_spectrum`` raises the computed eigenvalues of a built
operator to an integer power (the matrix power shares eigenvectors).  Note
that powering the Dirichlet Laplacian realizes Navier-type, not clamped,
conditions.
``fd_spectrum`` gives the spectrum of each of FD_PROBLEMS with the labels
of its CSV: grid sizes, stencil, and ``spectrum-type: navier-power`` for a
power of the Laplacian.

``fd_laplacian`` is a Kronecker sum of 1-D second differences, whose
eigenpairs are sine modes, so ``laplacian_power_spectrum`` writes the
spectrum of its l-th power in closed form: the same sort of per-axis sums
that ``box_spectrum`` makes, with the residual of every sine mode it uses
checked.  No matrix is built and no eigensolver runs.

The 1-D stencils of ``fd_clamped_plate`` (fourth difference, second
difference, identity) are symmetric and persymmetric, so the plate commutes
with the reversal of each axis, and ``clamped_block_spectrum`` writes its
spectrum from the 2^d blocks of its even and odd vectors, each the Kronecker
sum of stencils folded to half an axis from their diagonals.  A block takes
the eigensolvers' route for its size, built dense below the dense/ARPACK
crossover (a 30 x 30 plate is four dense blocks of 225 points), with the
lower bound (sum of the axes' smallest sine modes)^2 of its spectrum for
ARPACK's shift.  The block residuals plus a bound on the fold's rounding
are checked against ||A||_inf.  The whole operator is not built.

The t derivative of ``kohn_fd`` acts on t alone and its central difference
has closed-form eigenvectors, so ``kohn_block_spectrum`` writes the Kohn
spectrum from Nt exact blocks of size Nx Ny, half of them solved (a block
at -theta has the spectrum of the one at theta).  Each block takes the
eigensolvers' route for its size, built dense below the dense/ARPACK
crossover; the theta = 0 block of an odd Nt is a sum of squared sine modes,
written in closed form.  The residuals of the blocks and of the t-modes
bound the residual of the 3-D pairs, checked against ||L||_inf.  The 3-D
operator is not built.

The builders import scipy.sparse when they run, not when this module is
imported: ``bound``, ``verify``, the Laplacian's closed form and the
clamped and Kohn blocks below the crossover never build a sparse matrix and
need not pay for it.  Running out of memory in a builder or in the blocks
is ConvergenceError, like running out of memory in an eigensolver.
"""

from __future__ import annotations

import itertools
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
    _dense_route,
    _out_of_memory_refused,
    dense_symmetric_eig,
    hermitian_defect,
    smallest_eigs,
)

if TYPE_CHECKING:  # the builders import scipy.sparse when they run
    import scipy.sparse as sp

# interior points of a finite-difference grid: solving the whole 32^3 clamped
# plate, the largest 3-D grid admitted, peaks near 1.6 GB in shift-invert
# ARPACK, and its parity blocks, which the CLI solves, near 120 MB
MAX_GRID_POINTS = 2**15
# natural logarithms of the normal float range: a spectrum outside it rounds
# to zero or overflows
_LOG_TINY, _LOG_HUGE = math.log(sys.float_info.min), math.log(sys.float_info.max)
# floats per chunk of sine modes whose residuals are checked at once
_MODE_CHUNK = 2**16
LAPLACIAN_STENCIL = "dirichlet-laplacian"
CLAMPED_STENCIL = "clamped-plate"
KOHN_STENCIL = "kohn-heisenberg"


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


def _check_plate_power(l) -> None:
    """The clamped plate is already the l = 2 problem: it takes only l = 1."""
    if l != 1:
        raise InputError("the clamped operator is already the l = 2 problem; "
                         "powers apply to laplacian and kohn spectra")


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

    Row i is split as i = width * s + r with 0 <= r < width ~ sqrt(n), and
    sin(k i phi) = sin(k width s phi) cos(k r phi) + cos(k width s phi) sin(k r phi):
    two small tables per chunk of modes, whose entries are read from one
    period of sin and cos(j pi / (n + 1)), so every argument is reduced
    exactly.  Modes are checked in chunks of _MODE_CHUNK floats, so memory
    stays bounded for any n and count.
    """
    period = 2 * (n + 1)
    angles = np.arange(period) * (np.pi / (n + 1))
    sin_tab, cos_tab = np.sin(angles), np.cos(angles)
    width = math.isqrt(n) + 1
    low, high = np.arange(width), width * np.arange(n // width + 1)
    worst = 0.0
    step = max(1, _MODE_CHUNK // n)
    for start in range(0, used.size, step):
        q = used[start : start + step]
        hi = np.multiply.outer(q + 1, high) % period
        lo = np.multiply.outer(q + 1, low) % period
        # (modes, s, 2) @ (modes, 2, r): the two products of the angle addition
        u = np.stack([sin_tab[hi], cos_tab[hi]], axis=2) @ np.stack([cos_tab[lo], sin_tab[lo]], axis=1)
        u = u.reshape(q.size, -1)[:, 1 : n + 1]
        r = (2.0 - modes[q, None]) * u
        r[:, 1:] -= u[:, :-1]
        r[:, :-1] -= u[:, 1:]
        worst = max(worst, float(np.sqrt(np.einsum("ij,ij->i", r, r) / np.einsum("ij,ij->i", u, u)).max()))
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


def _second_difference(n: int, h: float) -> tuple:
    """tridiag(-1, 2, -1) / h^2, -d^2/dx^2 with Dirichlet ends, as its bands
    (main diagonal, value of the off-diagonal at distance 1)."""
    return np.full(n, 2.0 / h**2), (-1.0 / h**2,)


def _clamped_fourth_difference(n: int, h: float) -> tuple:
    """Pentadiagonal d^4/dx^4 for a clamped end, as its bands (main diagonal,
    values of the off-diagonals at distance 1 and 2): boundary value zero
    and the ghost point mirroring the first interior point (zero normal
    derivative), which folds into the corners of the diagonal."""
    if n < 4:
        raise InputError(f"clamped stencil needs at least 4 interior points, got {n}")
    main = np.full(n, 6.0 / h**4)
    main[0] = main[-1] = 7.0 / h**4
    return main, (-4.0 / h**4, 1.0 / h**4)


def _banded(bands) -> sp.csr_matrix:
    """The symmetric sparse matrix of ``bands`` (main diagonal, value of each
    off-diagonal by distance)."""
    import scipy.sparse as sp

    main, offs = bands
    n = main.size
    diagonals = [main] + [np.full(n - k, v) for k, v in enumerate(offs, 1) for _ in (0, 1)]
    offsets = [0] + [k * sign for k in range(1, len(offs) + 1) for sign in (1, -1)]
    return sp.diags(diagonals, offsets, format="csr")


def _central_difference(n: int, h: float) -> sp.csr_matrix:
    """Tridiagonal skew d/dx with Dirichlet truncation, exactly antisymmetric."""
    import scipy.sparse as sp

    off = np.full(n - 1, 1.0 / (2.0 * h))
    return sp.diags([off, -off], [1, -1], format="csr")


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
    total = _axis_operator(_banded(_second_difference(grids[0], h[0])), 0, grids)
    for ax in range(1, len(grids)):
        total = total + _axis_operator(_banded(_second_difference(grids[ax], h[ax])), ax, grids)
    return DiscreteOperator(total.tocsr(), grids, LAPLACIAN_STENCIL)


@_out_of_memory_refused("building the clamped plate")
def fd_clamped_plate(sides, grids) -> DiscreteOperator:
    """Biharmonic operator with clamped conditions, as one sparse matrix:
    per-axis fourth differences with ghost mirroring plus twice the mixed
    products of the per-axis second differences.  ``fd_spectrum`` solves its
    parity blocks instead (``clamped_block_spectrum``)."""
    import scipy.sparse as sp

    sides, grids, h = _validate_grid(sides, grids, min_pts=4, order=4)
    ndim = len(grids)
    total = _axis_operator(_banded(_clamped_fourth_difference(grids[0], h[0])), 0, grids)
    for ax in range(1, ndim):
        total = total + _axis_operator(_banded(_clamped_fourth_difference(grids[ax], h[ax])), ax, grids)
    for ax1 in range(ndim):
        for ax2 in range(ax1 + 1, ndim):
            mats = [sp.identity(g, format="csr") for g in grids]
            mats[ax1] = _banded(_second_difference(grids[ax1], h[ax1]))
            mats[ax2] = _banded(_second_difference(grids[ax2], h[ax2]))
            total = total + 2.0 * _kron_chain(mats)
    return DiscreteOperator(total.tocsr(), grids, CLAMPED_STENCIL)


def _block_smallest(build, dim: int, need: int, floor: float = 0.0):
    """The ``need`` smallest eigenvalues of a symmetric block of size ``dim``
    and their largest residual, through the eigensolvers: in full from
    ``dense_symmetric_eig`` above a quarter of the block, from
    ``smallest_eigs`` otherwise (with the block's proven spectral ``floor``).
    ``build(dense)`` makes the block, as a numpy array below the dense/ARPACK
    crossover and as a scipy sparse matrix above it."""
    block = build(_dense_route(dim, need))
    found = dense_symmetric_eig(block) if need > dim // 4 else smallest_eigs(block, need, floor=floor)
    return found.eigenvalues[:need], float(found.residuals[:need].max())


def _fold(bands, even: bool):
    """The block Q^T A Q of the symmetric persymmetric banded matrix A of
    ``bands`` (``_banded``) on its even (J v = v) or odd (J v = -v) vectors,
    J the reversal, as (size, (rows, cols, values)) with no repeated entry.

    With n = 2m or 2m + 1 and the orthonormal basis (e_j +- e_(n-1-j)) / sqrt 2,
    j < m, plus e_m among the even vectors of an odd n, the block is
    B[i, j] = A[i, j] +- A[i, n-1-j] for i, j < m, B[i, m] = B[m, i] =
    sqrt 2 A[i, m] and B[m, m] = A[m, m]: read from the bands of the first
    m (+ 1) rows, so no n x n matrix is formed.  Each entry is exact but for
    at most two roundings (sqrt 2 and its product, or a sum of two entries)."""
    main, offs = bands
    n, width = main.size, len(offs)
    size = n // 2 + (n % 2 if even else 0)
    rows = np.repeat(np.arange(size), 2 * width + 1)
    cols = rows + np.tile(np.arange(-width, width + 1), size)
    mirror = n - 1 - cols
    middle_row = 2 * rows == n - 1
    # the middle row of an odd n reads its columns up to the middle only
    keep = (cols >= 0) & (cols < n) & ~(middle_row & (cols > rows))
    if not even:
        keep &= cols != mirror
    rows, cols, mirror, middle_row = rows[keep], cols[keep], mirror[keep], middle_row[keep]
    values = np.where(cols == rows, main[rows], np.concatenate([offs[::-1], [0.0], offs])[cols - rows + width])
    values = np.where(middle_row != (cols == mirror), math.sqrt(2.0) * values, values)
    if not even:
        values = np.where(cols > mirror, -values, values)
    key, where = np.unique(rows * size + np.minimum(cols, mirror), return_inverse=True)
    return size, (key // size, key % size, np.bincount(where, weights=values))


def _kron_triplets(factors):
    """(rows, cols, values) of the Kronecker product of ``factors``, each
    (size, triplets of a size x size matrix, or None for the identity)."""
    rows = cols = np.zeros(1, dtype=np.int64)
    values = np.ones(1)
    for size, triplets in factors:
        r, c, v = (np.arange(size), np.arange(size), np.ones(size)) if triplets is None else triplets
        rows = (rows[:, None] * size + r).ravel()
        cols = (cols[:, None] * size + c).ravel()
        values = (values[:, None] * v).ravel()
    return rows, cols, values


def _plate_block(axes, dense: bool):
    """sum_a B4_a + 2 sum_(a < b) B2_a B2_b over the axes' folded pieces
    (size, B4, B2) of one parity pattern, each B acting on its own axis, as
    a dense array or a scipy CSR matrix."""
    ndim, dim = len(axes), math.prod(size for size, _, _ in axes)
    terms = []
    for a in range(ndim):
        terms.append(_kron_triplets([(size, f4 if b == a else None) for b, (size, f4, _) in enumerate(axes)]))
        for a2 in range(a + 1, ndim):
            rows, cols, values = _kron_triplets(
                [(size, f2 if b in (a, a2) else None) for b, (size, _, f2) in enumerate(axes)]
            )
            terms.append((rows, cols, 2.0 * values))
    rows, cols, values = (np.concatenate(v) for v in zip(*terms))
    if dense:
        return np.bincount(rows * dim + cols, weights=values, minlength=dim * dim).reshape(dim, dim)
    import scipy.sparse as sp

    return sp.csr_matrix((values, (rows, cols)), shape=(dim, dim))


def _row_abs_sums(bands) -> np.ndarray:
    """The row sums of |A| for the banded matrix A of ``bands``."""
    main, offs = bands
    sums = np.abs(main)
    for k, v in enumerate(offs, 1):
        sums[k:] += abs(v)
        sums[:-k] += abs(v)
    return sums


def _plate_inf_norm(fourth, second) -> float:
    """||A||_inf of fd_clamped_plate's operator from the axes' stencil bands.

    No two terms of A have entries of opposite sign at one place (both -4 at
    distance 1 along an axis, positive elsewhere), so the row sums of |A|
    are sum_a |D4_a| 1 + 2 sum_(a < b) |D2_a| 1 (x) |D2_b| 1 on the grid."""
    ndim = len(fourth)

    def on_axis(v, a):
        return v.reshape([-1 if b == a else 1 for b in range(ndim)])

    r4, r2 = [_row_abs_sums(b) for b in fourth], [_row_abs_sums(b) for b in second]
    total = sum(on_axis(r4[a], a) for a in range(ndim))
    total = total + sum(
        2.0 * on_axis(r2[a], a) * on_axis(r2[b], b) for a in range(ndim) for b in range(a + 1, ndim)
    )
    return float(np.max(total))


@_out_of_memory_refused("the clamped plate's parity blocks")
def clamped_block_spectrum(sides, grids, l: int, count: int) -> tuple[SpectrumPrefix, tuple]:
    """First ``count`` eigenvalues of fd_clamped_plate(sides, grids) from its
    exact reflection-parity blocks, as (SpectrumPrefix labeled l = 2, grid
    sizes).  The plate is already the l = 2 problem, so ``l`` must be 1.  The
    whole operator is not built.

    Each 1-D stencil of A = sum_a D4_a + 2 sum_(a < b) D2_a D2_b (the clamped
    fourth difference, the second difference and the identity) is symmetric
    and persymmetric, so A commutes with the reversal of every axis: it is
    the direct sum of 2^d blocks, one per parity pattern, each the same
    Kronecker sum of the axes' folded stencils (``_fold``).  Each block
    gives its smallest min(count, size) values through ``_block_smallest``,
    and one stable sort merges them.  Every block is enumerated and each
    route certifies its values complete, so no eigenvalue is skipped.

    A = L^2 + C with L = sum_a D2_a, the FD Laplacian, and C >= 0 (twice
    1 / h^4 at the two end points of each axis), and L maps each parity
    space to itself, so every block is at least (sum_a mu_a)^2, with mu_a the
    smallest sine mode of axis a: the floor ARPACK takes its shift from.

    The certificate: a block entry sums at most T = d (d + 1) / 2 Kronecker
    terms, each one folded entry or twice a product of two, so with the
    fold's two roundings per entry it carries at most T + 4 roundings of
    terms of |Q|^T |A| |Q|, whose 2-norm is at most ||A||_inf; the computed
    block B' is within (T + 4) eps ||A||_inf of Q^T A Q in 2-norm.  So a
    block pair (lambda, u) of residual r gives the pair (lambda, Q u) of A a
    residual of at most r + (T + 4) eps ||A||_inf, and ConvergenceError is
    raised unless the largest block residual plus that bound is within
    RESIDUAL_REL_TOL * ||A||_inf, computed from the stencils
    (``_plate_inf_norm``).
    """
    sides, grids, h = _validate_grid(sides, grids, min_pts=4, order=4)
    _check_power(l)
    _check_plate_power(l)
    _check_count(count, math.prod(grids))
    fourth = [_clamped_fourth_difference(n, hj) for n, hj in zip(grids, h)]
    second = [_second_difference(n, hj) for n, hj in zip(grids, h)]
    folds = [
        {even: (*_fold(b4, even), _fold(b2, even)[1]) for even in (True, False)} for b4, b2 in zip(fourth, second)
    ]
    floor = sum(4.0 * math.sin(math.pi / (2 * (n + 1))) ** 2 / hj**2 for n, hj in zip(grids, h)) ** 2
    values, worst = [], 0.0
    for parity in itertools.product((True, False), repeat=len(grids)):
        axes = [fold[even] for fold, even in zip(folds, parity)]
        dim = math.prod(size for size, _, _ in axes)
        vals, residual = _block_smallest(lambda dense: _plate_block(axes, dense), dim, min(count, dim), floor)
        values.append(vals)
        worst = max(worst, residual)
    terms = len(grids) * (len(grids) + 1) // 2
    norm = _plate_inf_norm(fourth, second)
    _check_residuals(np.array([worst + (terms + 4) * np.finfo(float).eps * norm]), norm)
    vals = np.sort(np.concatenate(values), kind="stable")[:count]
    return SpectrumPrefix(vals, n=len(grids), l=2, problem=EUCLIDEAN), grids


def _kohn_grid(sides, grids):
    """Grid sizes (Nx, Ny, Nt), steps and x, y coordinates of an n = 1
    Heisenberg box centered at the origin."""
    sides, grids, h = _validate_grid(sides, grids, min_pts=4)
    if len(grids) != 3:
        raise InputError(f"n = 1 needs a 3-axis grid (x, y, t), got {len(grids)} axes")
    xs = -sides[0] / 2.0 + h[0] * np.arange(1, grids[0] + 1)
    ys = -sides[1] / 2.0 + h[1] * np.arange(1, grids[1] + 1)
    return grids, h, xs, ys


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
    grids, (hx, hy, ht), xs, ys = _kohn_grid(sides, grids)
    Nx, Ny, Nt = grids

    Dx = _axis_operator(_central_difference(Nx, hx), 0, grids)
    Dy = _axis_operator(_central_difference(Ny, hy), 1, grids)
    Dt = _axis_operator(_central_difference(Nt, ht), 2, grids)
    My = _axis_operator(sp.diags(ys / 2.0, format="csr"), 1, grids)
    Mx = _axis_operator(sp.diags(xs / 2.0, format="csr"), 0, grids)

    X = (Dx + 0.5 * (Dt @ My + My @ Dt)).tocsr()
    Y = (Dy - 0.5 * (Dt @ Mx + Mx @ Dt)).tocsr()
    L = (X.T @ X + Y.T @ Y).tocsr()
    L = (0.5 * (L + L.T)).tocsr()  # exact bitwise symmetry of the Gram sum
    return KohnOperator(L, grids, KOHN_STENCIL, x_field=X, y_field=Y, t_field=Dt)


def _kohn_t_modes(nt: int, ht: float) -> np.ndarray:
    """theta_p = cos(p pi / (nt + 1)) / ht, p = 1..nt: D_t v_p = i theta_p v_p
    for v_p(j) = i^j sin(j p pi / (nt + 1)).  Written as a sine of the
    complementary angle, so the middle mode of an odd nt is exactly 0."""
    return np.sin((nt + 1 - 2 * np.arange(1, nt + 1)) * (np.pi / (2 * (nt + 1)))) / ht


def _kohn_block(xs, ys, hx: float, hy: float, theta: float, dense: bool):
    """A_theta = (Tx (x) I + theta I (x) My)^2 + (I (x) Ty - theta Mx (x) I)^2,
    with T = tridiag(1, 0, 1) / (2 h) and M = diag(coordinate / 2): a 9-point
    stencil on the (x, y) grid, as a dense array or a scipy CSR matrix."""
    nx, ny = xs.size, ys.size
    a, b = np.divmod(np.arange(nx * ny), ny)
    rows, cols, vals = [], [], []

    def put(da, db, value):
        keep = (0 <= a + da) & (a + da < nx) & (0 <= b + db) & (b + db < ny)
        rows.append(np.flatnonzero(keep))
        cols.append(rows[-1] + da * ny + db)
        vals.append(np.broadcast_to(value, a.shape)[keep])

    # the diagonal of T^2 counts the neighbours of a point
    x_near, y_near = (a > 0).astype(float) + (a < nx - 1), (b > 0).astype(float) + (b < ny - 1)
    put(0, 0, x_near / (4 * hx**2) + y_near / (4 * hy**2) + theta**2 * (xs[a] ** 2 + ys[b] ** 2) / 4)
    for s in (-1, 1):
        put(2 * s, 0, 1 / (4 * hx**2))
        put(0, 2 * s, 1 / (4 * hy**2))
        put(s, 0, theta * ys[b] / (2 * hx))
        put(0, s, -theta * xs[a] / (2 * hy))
    rows, cols, vals = (np.concatenate(v) for v in (rows, cols, vals))
    if dense:
        block = np.zeros((nx * ny, nx * ny))
        block[rows, cols] = vals
        return block
    import scipy.sparse as sp

    return sp.csr_matrix((vals, (rows, cols)), shape=(nx * ny, nx * ny))


def _kohn_middle_block(xs, ys, hx: float, hy: float, need: int):
    """The ``need`` smallest eigenvalues of A_0 = Tx^2 (x) I + I (x) Ty^2 in
    closed form, and a bound on their residuals.

    T = tridiag(1, 0, 1) / (2 h) has the sine modes of the second difference,
    with eigenvalues c_p = cos(p pi / (n + 1)) / h, so A_0 has the values
    c_{x,p}^2 + c_{y,q}^2.  (T^2 - c^2) u = (T + c)(T - c) u with
    ||T|| + |c| <= 2 / h and (T - c) u = -(tridiag(-1, 2, -1) - (2 - 2 h c)) u
    / (2 h), so each axis adds at most its sine residual / h^2.
    """
    cos = [np.cos(np.arange(1, g.size + 1) * (np.pi / (g.size + 1))) for g in (xs, ys)]
    vals, used = _smallest_sums([(c / h) ** 2 for c, h in zip(cos, (hx, hy))], need)
    residual = sum(
        _sine_mode_residual(c.size, 2.0 - 2.0 * c, np.unique(q)) / h**2 for c, q, h in zip(cos, used, (hx, hy))
    )
    return vals, residual


def _kohn_inf_norm(xs, ys, nt: int, h) -> float:
    """||L||_inf of kohn_fd's operator L = X^T X + Y^T Y without building it.

    No two paths of |X| or |Y| cancel, so the row sums of |L| are those of
    |X| |X| 1 + |Y| |Y| 1, where |X| = Tx (x) I (x) I + I (x) |My| (x) Tt
    with T = tridiag(1, 0, 1) / (2 h) and M = diag(coordinate / 2)."""
    hx, hy, ht = h

    def near(v, step):  # tridiag(1, 0, 1) v / (2 step)
        out = np.zeros_like(v)
        out[1:] += v[:-1]
        out[:-1] += v[1:]
        return out / (2 * step)

    cx, cy, ct = (near(np.ones(size), step) for size, step in ((xs.size, hx), (ys.size, hy), (nt, ht)))
    x, y = np.abs(xs)[:, None, None], np.abs(ys)[None, :, None]
    x_part = near(cx, hx)[:, None, None] + cx[:, None, None] * y * ct + y**2 / 4 * near(ct, ht)
    y_part = near(cy, hy)[None, :, None] + cy[None, :, None] * x * ct + x**2 / 4 * near(ct, ht)
    return float((x_part + y_part).max())


@_out_of_memory_refused("the Kohn Laplacian's t-Fourier blocks")
def kohn_block_spectrum(sides, grids, l: int, count: int) -> tuple[SpectrumPrefix, tuple]:
    """First ``count`` eigenvalues of kohn_fd(1, sides, grids).matrix^l from
    its exact t-Fourier blocks, as (SpectrumPrefix, grid sizes).  The 3-D
    operator is not built.

    L = X^T X + Y^T Y with X = Dx + Dt My and Y = Dy - Dt Mx, and Dt acts on t
    alone, so L maps u (x) v_p to L_p u (x) v_p for the eigenvectors v_p of
    the t central difference (``_kohn_t_modes``): L is the direct sum of Nt
    blocks L_p of size Nx Ny.  Conjugated by diag(i^a) (x) diag(i^b), L_p is
    the real symmetric A_theta of ``_kohn_block`` at theta = theta_p, and so
    is L_{Nt+1-p} (theta = -theta_p) by the conjugate diagonal: only the
    first ceil(Nt/2) blocks are solved, and each value of a pair counts twice.

    Each block gives its smallest min(count, Nx Ny) values (ceil(count/2) for
    a pair) through the eigensolvers: in full from ``dense_symmetric_eig``
    above a quarter of the block, from ``smallest_eigs`` otherwise, built
    dense below the dense/ARPACK crossover and sparse above it.  The theta = 0
    block of an odd Nt is written in closed form (``_kohn_middle_block``).
    Every block is enumerated and each route certifies its values complete,
    so no eigenvalue is skipped.  The certificate: with D_t v = i theta v + e,
    ||L (u (x) v) - lambda u (x) v|| <= ||A_theta w - lambda w|| + ||e|| K
    with K = ymax / hx + xmax / hy + (xmax^2 + ymax^2) / (2 ht) (the norms of
    the D_t and D_t^2 coefficients of L times |theta| + ||D_t|| <= 2 / ht);
    ConvergenceError is raised unless the largest block residual plus the
    largest t-mode residual times K is within RESIDUAL_REL_TOL * ||L||_inf.
    """
    _check_power(l)
    grids, (hx, hy, ht), xs, ys = _kohn_grid(sides, grids)
    nt, dim = grids[2], grids[0] * grids[1]
    _check_count(count, dim * nt)
    theta = _kohn_t_modes(nt, ht)
    values, block_residual = [], 0.0
    for p in range((nt + 1) // 2):
        pair = 2 * p + 1 < nt  # block nt - 1 - p, at -theta_p, has the same spectrum
        need = min(dim, -(-count // 2) if pair else count)
        if theta[p] == 0.0:
            vals, residual = _kohn_middle_block(xs, ys, hx, hy, need)
        else:
            build = lambda dense: _kohn_block(xs, ys, hx, hy, theta[p], dense=dense)  # noqa: E731
            vals, residual = _block_smallest(build, dim, need)
        values.append(np.repeat(vals, 2) if pair else vals)
        block_residual = max(block_residual, residual)
    # (D_t v - i theta v)(j) = i^(j+1) ((tridiag(1, 0, 1) w)(j) / (2 ht) - theta w(j)) for v(j) = i^j w(j)
    mode_residual = _sine_mode_residual(nt, 2.0 - 2.0 * ht * theta, np.arange(nt)) / (2 * ht)
    xmax, ymax = float(np.abs(xs).max()), float(np.abs(ys).max())
    spread = ymax / hx + xmax / hy + (xmax**2 + ymax**2) / (2 * ht)
    _check_residuals(np.array([block_residual + mode_residual * spread]), _kohn_inf_norm(xs, ys, nt, (hx, hy, ht)))
    vals = np.sort(np.concatenate(values), kind="stable")[:count]
    return SpectrumPrefix(_raise_to(vals, l), n=1, l=int(l), problem=HEISENBERG), grids


def operator_power_spectrum(op: DiscreteOperator, l: int, count: int) -> SpectrumPrefix:
    """First ``count`` eigenvalues of op^l: eigenvalues of op are computed
    once and raised to the l-th power (the matrix power shares eigenvectors).

    Up to dim/4 eigenvalues come from ``smallest_eigs``, more from the full
    dense spectrum; either way every eigenpair's residual is checked, and
    ConvergenceError is raised rather than an unchecked value returned.

    No command calls it: ``fd_spectrum`` writes the Laplacian's powers in
    closed form, and takes the clamped plate from its parity blocks and the
    Kohn Laplacian from its t-Fourier blocks.  It serves a demo, the tests
    that check those routes against a built operator, and the benchmark's
    tracer, which times it.  For a Dirichlet Laplacian base it realizes
    Navier-type conditions, not clamped ones.  The clamped plate is already
    the l = 2 problem: it takes only l = 1 and is labeled l = 2.
    """
    _check_power(l)
    if op.stencil == KOHN_STENCIL:
        raise InputError("the Kohn spectrum comes from kohn_block_spectrum, which labels it")
    clamped = op.stencil == CLAMPED_STENCIL
    if clamped:
        _check_plate_power(l)
    _check_count(count, op.dim)
    if count <= op.dim // 4:
        vals = smallest_eigs(op, count).eigenvalues
    else:
        vals = dense_symmetric_eig(op.matrix).eigenvalues[:count]
    vals = _raise_to(np.sort(vals), l)
    return SpectrumPrefix(vals, n=len(op.npoints), l=2 if clamped else int(l), problem=EUCLIDEAN)


FD_PROBLEMS = ("laplacian", "clamped", "kohn")


def fd_spectrum(problem: str, sides, grids, l: int, count: int) -> tuple[SpectrumPrefix, dict]:
    """First ``count`` eigenvalues of the l-th power of an FD_PROBLEMS
    operator, and the labels of its spectrum: the grid sizes, the stencil
    and, for a power of the Laplacian, its Navier-type conditions.

    The Laplacian comes in closed form, the clamped plate from its
    reflection-parity blocks and the Kohn Laplacian from its t-Fourier
    blocks, so no whole operator is built and no builder runs.  The clamped
    plate takes only l = 1 (it is the l = 2 problem).
    """
    if problem == "laplacian":
        prefix, npoints = laplacian_power_spectrum(sides, grids, l, count)
        stencil = LAPLACIAN_STENCIL
    elif problem == "kohn":
        prefix, npoints = kohn_block_spectrum(sides, grids, l, count)
        stencil = KOHN_STENCIL
    elif problem == "clamped":
        prefix, npoints = clamped_block_spectrum(sides, grids, l, count)
        stencil = CLAMPED_STENCIL
    else:
        raise InputError(f"unknown fd problem {problem!r} ({'|'.join(FD_PROBLEMS)})")
    labels = {"grid": ",".join(str(g) for g in npoints), "stencil": stencil}
    if problem == "laplacian" and l > 1:
        labels["spectrum-type"] = "navier-power"
    return prefix, labels


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
