"""Spectrum factories: exact box spectra and finite-difference operators.

``box_spectrum`` enumerates the exact Dirichlet Laplacian spectrum of a box.
Each of FD_PROBLEMS is declared once, as a row of ``_FD``, and
``fd_spectrum`` alone runs the row: it checks the power, the grid
(``_validate_grid``) and the count, checks the residual bound of the row's
producer against its ||A||_inf, raises the values to the power and labels
them.  The clamped plate is already the l = 2 problem: it takes only the
power 1 and is labelled l = 2.  A power of the Laplacian realizes
Navier-type, not clamped, conditions, and is labelled so.  No producer
builds a whole operator.  The builders, which serve the tests, the demos and
the benchmark's reference checks, return sparse symmetric matrices on a
tensor grid of interior points with homogeneous Dirichlet truncation, and
``operator_power_spectrum`` raises a built operator's eigenvalues to a power:

* ``fd_laplacian``      second-order central stencil for -Laplace;
* ``fd_clamped_plate``  13-point biharmonic stencil with boundary value 0 and
                        zero normal derivative encoded by mirroring the first
                        interior point into the ghost point;
* ``kohn_fd``           the Heisenberg sub-Laplacian as a Gram form
                        X^T X + Y^T Y of exactly skew-symmetric central
                        difference fields (n = 1 only).

``fd_laplacian`` is a Kronecker sum of 1-D second differences, whose
eigenpairs are sine modes, so ``_laplacian_closed_form`` writes its spectrum
as the per-axis sums that ``box_spectrum`` makes, with the residual of every
sine mode it uses checked: no matrix is built and no eigensolver runs.

The 1-D stencils of ``fd_clamped_plate`` (fourth difference, second
difference, identity) are symmetric and persymmetric, so the plate commutes
with the reversal of each axis, and ``_clamped_parity_blocks`` writes its
spectrum from the 2^d blocks of its even and odd vectors, each the Kronecker
sum of stencils folded to half an axis from their diagonals.  A block is
handed over as its Kronecker terms, and ``_block_smallest`` alone turns it
into a matrix and solves it: ``_dense_route`` picks a dense array for
``dense_symmetric_eig`` (a 30 x 30 plate is four dense blocks of 225
points) or a sparse matrix for ``smallest_eigs``, with the lower bound (sum
of the axes' smallest sine modes)^2 of its spectrum for ARPACK's shift.

The t derivative of ``kohn_fd`` acts on t alone and its central difference
has closed-form eigenvectors, so ``_kohn_fourier_blocks`` writes the Kohn
spectrum from Nt exact blocks of size Nx Ny, half of them solved (a block
at -theta has the spectrum of the one at theta).  Each block is built and
solved as a clamped one is; the theta = 0 block of an odd Nt is a sum of
squared sine modes, written in closed form with the Laplacian's sine-mode
certificate.

Every matrix here, a builder's or a block's, is declared once, as a list of
Kronecker terms, each a list of per-axis factors: 1-D band triplets
(``_band``, ``_fold``) or the identity.  ``_assemble`` alone builds a
matrix from its terms, and ``_abs_apply`` alone bounds its norm from the
same terms without building anything: where no two terms cancel, ||A||_inf
is the largest entry of (sum of |F_1| (x) ... (x) |F_d|) 1.  Entries at one
place are summed once, in term order, so the dense and sparse builds of a
block are bitwise equal, and symmetric terms give an exactly symmetric
matrix.  The sparse build is the module's one import of scipy.sparse, made
when it runs: ``bound``, ``verify``, the Laplacian's closed form and the
clamped and Kohn blocks below the crossover never build a sparse matrix and
need not pay for it.  Running out of memory in a builder or in the blocks
is ConvergenceError, like running out of memory in an eigensolver.

``SpectrumPrefix``, the problem names and the spectrum CSV live here, below
the bounds that read them, so ``spectrum fd`` never imports ``bounds``.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

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

if TYPE_CHECKING:  # _assemble imports scipy.sparse when it builds a sparse matrix
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
EUCLIDEAN = "euclidean-polyharmonic"
HEISENBERG = "heisenberg-kohn"
PROBLEMS = (EUCLIDEAN, HEISENBERG)
MAX_PREFIX_LEN = 10**5


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


def _validate_grid(sides, grids, problem: str):
    """(sides, grid sizes, steps) of a grid of the FD_PROBLEMS ``problem``,
    whose row gives the fewest interior points per axis, the order of its
    stencil (``_box_sides``) and, for a Heisenberg box, the 3 axes of n = 1.
    One grid size is taken for every side."""
    row = _FD[problem]
    grids = tuple(int(g) for g in np.atleast_1d(grids))
    if any(g < row.min_pts for g in grids):
        raise InputError(f"need at least {row.min_pts} interior points per axis, got {grids}")
    if math.prod(grids) > MAX_GRID_POINTS:  # refused before the builders allocate
        raise InputError(f"{math.prod(grids)} interior points exceed the cap of {MAX_GRID_POINTS}")
    sides = _box_sides(sides, max(grids, default=1), row.order)
    if len(grids) == 1 and len(sides) > 1:
        grids = grids * len(sides)
    if len(sides) != len(grids):
        raise InputError(f"got {len(sides)} sides but {len(grids)} grid sizes")
    if row.problem == HEISENBERG and len(grids) != 3:
        raise InputError(f"n = 1 needs a 3-axis grid (x, y, t), got {len(grids)} axes")
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


def _check_power(l, problem: str) -> None:
    """l is a positive integer, and 1 for a row above order 2 (the clamped
    plate, already labelled l = 2)."""
    if not (isinstance(l, (int, np.integer)) and l >= 1):
        raise InputError(f"l must be a positive integer, got {l}")
    if _FD[problem].order > 2 and l != 1:
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


def _sine_sums(axes, count: int):
    """The ``count`` smallest sums of one value per axis (``_smallest_sums``)
    and the residual bound of their sine-mode eigenvectors.  Each axis is
    (values, modes, h): values[q] belongs to the q-th sine vector, the
    eigenvector of tridiag(-1, 2, -1) for modes[q], and the axis adds its
    largest sine residual over the modes the sums use, divided by h^2."""
    vals, used = _smallest_sums([v for v, _, _ in axes], count)
    used = [np.flatnonzero(np.bincount(q)) for q in used]  # np.unique, without importing numpy.ma
    residual = sum(_sine_mode_residual(m.size, m, q) / h**2 for (_, m, h), q in zip(axes, used))
    return vals, residual


def _laplacian_terms(grids, h):
    """The Kronecker terms of fd_laplacian: per axis its second difference,
    with the identity on every other axis."""
    second = [_band(n, *_second_difference(n, hj)) for n, hj in zip(grids, h)]
    return [[factor if b == a else (factor[0], None) for b, factor in enumerate(second)] for a in range(len(second))]


def _laplacian_closed_form(sides, grids, h, count: int):
    """The ``count`` smallest eigenvalues of fd_laplacian(sides, grids) in
    closed form, their residual bound and ||A||_inf.

    Axis j, with n_j interior points and step h_j, has the modes
    mu_{j,p} = (4 / h_j^2) sin^2(p pi / (2 (n_j + 1))), p = 1..n_j, and the
    spectrum is every sum of one mode per axis: enumerated in full, so no
    eigenvalue is skipped.  The certificate: for unit vectors u_j,
    ||A (x)u_j - (sum_j mu_j) (x)u_j|| <= sum_j r_{j,p_j}, the residuals of
    the 1-D sine pairs, so the bound is sum_j of the largest r_j over the
    modes the written values use.
    """
    modes = [_sine_modes(n) for n in grids]
    vals, residual = _sine_sums([(m / hj**2, m, hj) for m, hj in zip(modes, h)], count)
    # ||A||_inf: the terms meet only on the diagonal, where all are positive, so none cancels
    return vals, residual, float(_abs_apply(_laplacian_terms(grids, h), 1.0).max())


def _second_difference(n: int, h: float) -> tuple:
    """tridiag(-1, 2, -1) / h^2, -d^2/dx^2 with Dirichlet ends, as its bands
    (main diagonal, value of the off-diagonal at distance 1)."""
    return np.full(n, 2.0 / h**2), (-1.0 / h**2,)


def _clamped_fourth_difference(n: int, h: float) -> tuple:
    """Pentadiagonal d^4/dx^4 for a clamped end, as its bands (main diagonal,
    values of the off-diagonals at distance 1 and 2): boundary value zero
    and the ghost point mirroring the first interior point (zero normal
    derivative), which folds into the corners of the diagonal."""
    main = np.full(n, 6.0 / h**4)
    main[0] = main[-1] = 7.0 / h**4
    return main, (-4.0 / h**4, 1.0 / h**4)


def _band(n: int, main, offs=(), skew: bool = False):
    """(n, (rows, cols, values)) of the n x n band matrix with ``main`` (one
    value or n values) on its diagonal and offs[k - 1] at distance k above
    it and below it, negated below if ``skew``; zero entries are left out.
    ``_second_difference`` and ``_clamped_fourth_difference`` give the bands
    of their stencils as (main, offs)."""
    index = np.arange(n)
    rows, cols, values = [index], [index], [np.broadcast_to(main, n)]
    for k, v in enumerate(offs, 1):
        rows += [index[:-k], index[k:]]
        cols += [index[k:], index[:-k]]
        values += [np.full(n - k, v), np.full(n - k, -v if skew else v)]
    rows, cols, values = (np.concatenate(x) for x in (rows, cols, values))
    keep = values != 0
    return n, (rows[keep], cols[keep], values[keep])


def _kron_triplets(factors):
    """(rows, cols, values) of the Kronecker product of ``factors``, each
    (size, triplets of a size x size matrix, or None for the identity)."""
    rows = cols = np.zeros(1, dtype=np.int64)
    values = np.ones(1)
    for size, triplets in factors:
        r, c, v = _band(size, 1.0)[1] if triplets is None else triplets
        rows = (rows[:, None] * size + r).ravel()
        cols = (cols[:, None] * size + c).ravel()
        values = (values[:, None] * v).ravel()
    return rows, cols, values


def _assemble(terms, dense: bool):
    """The sum of ``terms``, each the Kronecker product of its factors
    (``_kron_triplets``), as a dense array or a scipy CSR matrix: every
    matrix of this module is built here, and only a sparse build imports
    scipy.sparse.  Entries at one place are summed once, in term order, by
    np.bincount for either build, so the two builds hold bitwise the same
    entries and exactly symmetric terms give an exactly symmetric matrix."""
    dim = math.prod(size for size, _ in terms[0])
    rows, cols, values = (np.concatenate(v) for v in zip(*map(_kron_triplets, terms)))
    if dense:
        return np.bincount(rows * dim + cols, weights=values, minlength=dim * dim).reshape(dim, dim)
    import scipy.sparse as sp

    key, where = np.unique(rows * dim + cols, return_inverse=True)
    indptr = np.searchsorted(key, dim * np.arange(dim + 1))
    return sp.csr_matrix((np.bincount(where, weights=values), key % dim, indptr), shape=(dim, dim))


def _abs_apply(terms, v, transpose: bool = False) -> np.ndarray:
    """The sum over ``terms`` of |F_1| (x) ... (x) |F_d| v, or of its
    transpose, as a flat vector, for v on the grid (a scalar stands for the
    constant vector): each factor acts along its own axis, and no matrix is
    built.  Where no two terms cancel, max _abs_apply(terms, 1) is the
    ||A||_inf of their sum A."""
    total = 0.0
    for term in terms:
        w = np.broadcast_to(v, math.prod(size for size, _ in term)).reshape([size for size, _ in term])
        for axis, (_, triplets) in enumerate(term):
            if triplets is not None:
                rows, cols, values = (triplets[1], triplets[0], triplets[2]) if transpose else triplets
                along = np.abs(values).reshape([-1 if b == axis else 1 for b in range(len(term))])
                source, w = w, np.zeros(w.shape)
                np.add.at(w, (slice(None),) * axis + (rows,), along * np.take(source, cols, axis))
        total = total + w.ravel()
    return total


@_out_of_memory_refused("building the finite-difference Laplacian")
def fd_laplacian(sides, grids) -> DiscreteOperator:
    """Central-difference Dirichlet Laplacian (sign convention -Laplace): the
    Kronecker sum of the axes' second differences."""
    sides, grids, h = _validate_grid(sides, grids, "laplacian")
    return DiscreteOperator(_assemble(_laplacian_terms(grids, h), dense=False), grids, _FD["laplacian"].stencil)


@_out_of_memory_refused("building the clamped plate")
def fd_clamped_plate(sides, grids) -> DiscreteOperator:
    """Biharmonic operator with clamped conditions, as one sparse matrix:
    per-axis fourth differences with ghost mirroring plus twice the mixed
    products of the per-axis second differences, the terms of its parity
    blocks (``_plate_terms``) on the unfolded stencils.  ``fd_spectrum``
    solves its parity blocks instead (``_clamped_parity_blocks``)."""
    sides, grids, h = _validate_grid(sides, grids, "clamped")
    bands = [(_clamped_fourth_difference(n, hj), _second_difference(n, hj)) for n, hj in zip(grids, h)]
    axes = [(*_band(n, *b4), _band(n, *b2)[1]) for n, (b4, b2) in zip(grids, bands)]
    return DiscreteOperator(_assemble(_plate_terms(axes), dense=False), grids, _FD["clamped"].stencil)


def _block_smallest(terms, count: int, floor: float = 0.0):
    """The smallest min(count, dim) eigenvalues of the symmetric block of
    size dim that ``terms`` declare, and their largest residual: the one
    place where a block becomes a matrix.  ``_dense_route`` picks its build
    (``_assemble``) and solver: a numpy array for ``dense_symmetric_eig``,
    or a scipy sparse matrix for ``smallest_eigs`` with the block's proven
    spectral ``floor``.  ``smallest_eigs`` would take the dense route too;
    the dense route calls ``dense_symmetric_eig`` here because the
    benchmark pins this module's binding of it (``REQUIRED_SITES`` in
    ``bench/selftest.py``), and the import would otherwise be unused."""
    dim = math.prod(size for size, _ in terms[0])
    need = min(count, dim)
    dense = _dense_route(dim, need)
    block = _assemble(terms, dense)
    found = dense_symmetric_eig(block) if dense else smallest_eigs(block, need, floor=floor)
    return found.eigenvalues[:need], float(found.residuals[:need].max())


def _merge_blocks(blocks, count: int):
    """The ``count`` smallest values of (values, residual) blocks by one stable
    sort, and the largest residual."""
    values, residuals = zip(*blocks)
    return np.sort(np.concatenate(values), kind="stable")[:count], max(residuals)


def _fold(bands, even: bool):
    """The block Q^T A Q of the symmetric persymmetric banded matrix A of
    ``bands`` (``_band``) on its even (J v = v) or odd (J v = -v) vectors,
    J the reversal, as (size, (rows, cols, values)) with no repeated entry.

    With n = 2m or 2m + 1 and the orthonormal basis (e_j +- e_(n-1-j)) / sqrt 2,
    j < m, plus e_m among the even vectors of an odd n, the block is
    B[i, j] = A[i, j] +- A[i, n-1-j] for i, j < m, B[i, m] = B[m, i] =
    sqrt 2 A[i, m] and B[m, m] = A[m, m]: read from the bands of the first
    m (+ 1) rows, so no n x n matrix is formed.  Each entry is exact but for
    at most two roundings (sqrt 2 and its product, or a sum of two entries)."""
    n, (rows, cols, values) = _band(bands[0].size, *bands)
    size = n // 2 + (n % 2 if even else 0)
    mirror = n - 1 - cols
    middle_row = 2 * rows == n - 1
    # the middle row of an odd n reads its columns up to the middle only
    keep = (rows < size) & ~(middle_row & (cols > rows))
    if not even:
        keep &= cols != mirror
    rows, cols, values, mirror, middle_row = rows[keep], cols[keep], values[keep], mirror[keep], middle_row[keep]
    values = np.where(middle_row != (cols == mirror), math.sqrt(2.0) * values, values)
    if not even:
        values = np.where(cols > mirror, -values, values)
    key, where = np.unique(rows * size + np.minimum(cols, mirror), return_inverse=True)
    return size, (key // size, key % size, np.bincount(where, weights=values))


def _plate_terms(axes):
    """The Kronecker terms of sum_a B4_a + 2 sum_(a < b) B2_a B2_b over the
    axes' pieces (size, B4, B2), each B acting on its own axis: B4_a, then
    2 B2_a B2_b for each b > a, axis by axis, the 2 taken into B2_a (exactly:
    it scales by a power of two)."""
    terms = []
    for a, (_, f4, (rows, cols, values)) in enumerate(axes):
        twice = (rows, cols, 2.0 * values)
        terms.append([(size, f4 if c == a else None) for c, (size, _, _) in enumerate(axes)])
        for b in range(a + 1, len(axes)):
            terms.append([(size, twice if c == a else f2 if c == b else None) for c, (size, _, f2) in enumerate(axes)])
    return terms


@_out_of_memory_refused("the clamped plate's parity blocks")
def _clamped_parity_blocks(sides, grids, h, count: int):
    """The ``count`` smallest eigenvalues of fd_clamped_plate(sides, grids)
    from its exact reflection-parity blocks, their residual bound and
    ||A||_inf.  The whole operator is not built.

    Each 1-D stencil of A = sum_a D4_a + 2 sum_(a < b) D2_a D2_b (the clamped
    fourth difference, the second difference and the identity) is symmetric
    and persymmetric, so A commutes with the reversal of every axis: it is
    the direct sum of 2^d blocks, one per parity pattern, each the same
    Kronecker sum of the axes' folded stencils (``_fold``).  Each block's
    terms (``_plate_terms``) go to ``_block_smallest``, which gives its
    smallest min(count, size) values, and ``_merge_blocks`` merges them.
    Every block is enumerated and each route certifies its values complete,
    so no eigenvalue is skipped.

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
    residual of at most r + (T + 4) eps ||A||_inf: the bound is the largest
    block residual plus that, and ||A||_inf is read from the terms of A on
    the unfolded stencils (``_abs_apply``).
    """
    bands = [(_clamped_fourth_difference(n, hj), _second_difference(n, hj)) for n, hj in zip(grids, h)]
    folds = [{even: (*_fold(b4, even), _fold(b2, even)[1]) for even in (True, False)} for b4, b2 in bands]
    floor = sum(4.0 * math.sin(math.pi / (2 * (n + 1))) ** 2 / hj**2 for n, hj in zip(grids, h)) ** 2
    blocks = []
    for parity in itertools.product((True, False), repeat=len(grids)):
        blocks.append(_block_smallest(_plate_terms([fold[even] for fold, even in zip(folds, parity)]), count, floor))
    vals, worst = _merge_blocks(blocks, count)
    terms = _plate_terms([(*_band(n, *b4), _band(n, *b2)[1]) for n, (b4, b2) in zip(grids, bands)])
    # no two terms have entries of opposite sign at one place (all negative
    # at distance 1 along an axis, positive elsewhere), so none cancels
    norm = float(_abs_apply(terms, 1.0).max())
    return vals, worst + (len(terms) + 4) * np.finfo(float).eps * norm, norm


def _kohn_xy(sides, grids, h):
    """The x and y coordinates of the grid points of a Heisenberg box
    centered at the origin."""
    return tuple(-side / 2.0 + step * np.arange(1, n + 1) for side, n, step in zip(sides[:2], grids, h))


def _kohn_fields(sides, grids, h):
    """The Kronecker terms of the fields X = Dx + My Dt, Y = Dy - Mx Dt and
    Dt of a Heisenberg box: D the exactly skew-symmetric central differences
    and M = diag(coordinate / 2), one product per entry, so each exactly
    skew."""
    xs, ys = _kohn_xy(sides, grids, h)
    dx, dy, dt = (_band(size, 0.0, (1.0 / (2.0 * step),), skew=True) for size, step in zip(grids, h))
    ix, iy, it = ((size, None) for size in grids)  # the identities
    x_field = [[dx, iy, it], [ix, _band(grids[1], ys / 2.0), dt]]
    y_field = [[ix, dy, it], [_band(grids[0], -xs / 2.0), iy, dt]]
    return x_field, y_field, [[ix, iy, dt]]


@_out_of_memory_refused("building the Kohn Laplacian")
def kohn_fd(n: int = 1, sides=(1.0, 1.0, 1.0), grids=(12, 12, 12)) -> KohnOperator:
    """Kohn Laplacian on a Heisenberg box (n = 1: coordinates (x, y, t),
    box centered at the origin).

    The horizontal fields X and Y (``_kohn_fields``) are exactly skew, and
    the operator is the Gram form X^T X + Y^T Y, symmetric PSD by
    construction.
    """
    if n != 1:
        raise InputError("only the n = 1 Heisenberg group is supported at desk scale")
    sides, grids, h = _validate_grid(sides, grids, "kohn")
    X, Y, t_field = (_assemble(terms, dense=False) for terms in _kohn_fields(sides, grids, h))
    L = (X.T @ X + Y.T @ Y).tocsr()
    L = (0.5 * (L + L.T)).tocsr()  # exact bitwise symmetry of the Gram sum
    return KohnOperator(L, grids, _FD["kohn"].stencil, x_field=X, y_field=Y, t_field=t_field)


def _kohn_t_modes(nt: int, ht: float) -> np.ndarray:
    """theta_p = cos(p pi / (nt + 1)) / ht, p = 1..nt: D_t v_p = i theta_p v_p
    for v_p(j) = i^j sin(j p pi / (nt + 1)).  Written as a sine of the
    complementary angle, so the middle mode of an odd nt is exactly 0."""
    return np.sin((nt + 1 - 2 * np.arange(1, nt + 1)) * (np.pi / (2 * (nt + 1)))) / ht


def _kohn_block(xs, ys, hx: float, hy: float, theta: float):
    """A_theta = (Tx (x) I + theta I (x) My)^2 + (I (x) Ty - theta Mx (x) I)^2,
    with T = tridiag(1, 0, 1) / (2 h) and M = diag(coordinate / 2): a 9-point
    stencil on the (x, y) grid, as its Kronecker terms (``_assemble``): one
    term on the diagonal, where T^2 counts a point's neighbours, and four
    terms, T^2 at distance 2 and the cross terms at distance 1."""
    nx, ny = xs.size, ys.size
    a, b = np.divmod(np.arange(nx * ny), ny)
    x_near, y_near = (a > 0).astype(float) + (a < nx - 1), (b > 0).astype(float) + (b < ny - 1)
    diagonal = x_near / (4 * hx**2) + y_near / (4 * hy**2) + theta**2 * (xs[a] ** 2 + ys[b] ** 2) / 4
    return [
        [_band(nx * ny, diagonal)],
        [_band(nx, 0.0, (0.0, 1 / (4 * hx**2))), (ny, None)],
        [(nx, None), _band(ny, 0.0, (0.0, 1 / (4 * hy**2)))],
        [_band(nx, 0.0, (1.0,)), _band(ny, theta * ys / (2 * hx))],
        [_band(nx, -theta * xs / (2 * hy)), _band(ny, 0.0, (1.0,))],
    ]


@_out_of_memory_refused("the Kohn Laplacian's t-Fourier blocks")
def _kohn_fourier_blocks(sides, grids, h, count: int):
    """The ``count`` smallest eigenvalues of kohn_fd(1, sides, grids).matrix
    from its exact t-Fourier blocks, their residual bound and ||L||_inf.
    The 3-D operator is not built.

    L = X^T X + Y^T Y with X = Dx + Dt My and Y = Dy - Dt Mx, and Dt acts on t
    alone, so L maps u (x) v_p to L_p u (x) v_p for the eigenvectors v_p of
    the t central difference (``_kohn_t_modes``): L is the direct sum of Nt
    blocks L_p of size Nx Ny.  Conjugated by diag(i^a) (x) diag(i^b), L_p is
    the real symmetric A_theta of ``_kohn_block`` at theta = theta_p, and so
    is L_{Nt+1-p} (theta = -theta_p) by the conjugate diagonal: only the
    first ceil(Nt/2) blocks are solved, and each value of a pair counts twice.

    Each block's terms (``_kohn_block``) go to ``_block_smallest``, which
    gives its smallest min(count, Nx Ny) values (ceil(count/2) for a pair),
    and ``_merge_blocks`` merges them; the theta = 0 block of an odd Nt is
    written in closed form (``_sine_sums``), for any count.  Every block is
    enumerated and each route certifies its values complete, so no
    eigenvalue is skipped.  The certificate: with D_t v = i theta v + e,
    ||L (u (x) v) - lambda u (x) v|| <= ||A_theta w - lambda w|| + ||e|| K
    with K = ymax / hx + xmax / hy + (xmax^2 + ymax^2) / (2 ht) (the norms of
    the D_t and D_t^2 coefficients of L times |theta| + ||D_t|| <= 2 / ht):
    the bound is the largest block residual plus the largest t-mode
    residual times K.  ||L||_inf is read from the terms of X and Y
    (``_kohn_fields``, ``_abs_apply``).
    """
    (hx, hy, ht), (xs, ys) = h, _kohn_xy(sides, grids, h)
    nt = grids[2]
    theta = _kohn_t_modes(nt, ht)
    blocks = []
    for p in range((nt + 1) // 2):
        pair = 2 * p + 1 < nt  # block nt - 1 - p, at -theta_p, has the same spectrum
        need = -(-count // 2) if pair else count
        if theta[p] == 0.0:
            # A_0 = Tx^2 (x) I + I (x) Ty^2, and T = tridiag(1, 0, 1) / (2 h) has the
            # second difference's sine vectors, with eigenvalues c_p = cos(p pi / (n + 1)) / h.
            # (T^2 - c^2) u = (T + c)(T - c) u with ||T|| + |c| <= 2 / h and
            # (T - c) u = -(tridiag(-1, 2, -1) - (2 - 2 h c)) u / (2 h), so each
            # axis adds at most its sine residual / h^2
            cos = [np.cos(np.arange(1, g.size + 1) * (np.pi / (g.size + 1))) for g in (xs, ys)]
            vals, residual = _sine_sums([((c / h) ** 2, 2.0 - 2.0 * c, h) for c, h in zip(cos, (hx, hy))], need)
        else:
            vals, residual = _block_smallest(_kohn_block(xs, ys, hx, hy, theta[p]), need)
        blocks.append((np.repeat(vals, 2) if pair else vals, residual))
    vals, block_residual = _merge_blocks(blocks, count)
    # (D_t v - i theta v)(j) = i^(j+1) ((tridiag(1, 0, 1) w)(j) / (2 ht) - theta w(j)) for v(j) = i^j w(j)
    mode_residual = _sine_mode_residual(nt, 2.0 - 2.0 * ht * theta, np.arange(nt)) / (2 * ht)
    xmax, ymax = float(np.abs(xs).max()), float(np.abs(ys).max())
    spread = ymax / hx + xmax / hy + (xmax**2 + ymax**2) / (2 * ht)
    # ||L||_inf: no two paths of |X| or |Y| cancel, so the row sums of |L|
    # are those of |X|^T |X| 1 + |Y|^T |Y| 1
    x_field, y_field, _ = _kohn_fields(sides, grids, h)
    norm = sum(_abs_apply(field, _abs_apply(field, 1.0), transpose=True) for field in (x_field, y_field))
    return vals, block_residual + mode_residual * spread, float(norm.max())


# problem: the stencil label of its CSV, the fewest interior points per axis,
# the order 2m of its stencil (its power p is labelled l = m p), the problem
# of its spectrum (n = 1 if Heisenberg, else the number of axes) and its
# producer (sides, grids, h, count) -> (values, residual bound, ||A||_inf)
_Problem = namedtuple("_Problem", "stencil min_pts order problem produce")
_FD = {
    "laplacian": _Problem("dirichlet-laplacian", 2, 2, EUCLIDEAN, _laplacian_closed_form),
    "clamped": _Problem("clamped-plate", 4, 4, EUCLIDEAN, _clamped_parity_blocks),
    "kohn": _Problem("kohn-heisenberg", 4, 2, HEISENBERG, _kohn_fourier_blocks),
}
FD_PROBLEMS = tuple(_FD)


def _labelled(problem: str, grids, values: np.ndarray, l: int) -> SpectrumPrefix:
    """values^l as the spectrum of the l-th power of ``problem`` on ``grids``."""
    row = _FD[problem]
    n = 1 if row.problem == HEISENBERG else len(grids)
    return SpectrumPrefix(_raise_to(values, l), n=n, l=row.order // 2 * l, problem=row.problem)


def fd_spectrum(problem: str, sides, grids, l: int, count: int) -> tuple[SpectrumPrefix, dict]:
    """First ``count`` eigenvalues of the l-th power of an FD_PROBLEMS
    operator, and the labels of its spectrum: the grid sizes, the stencil
    and, for a power of the Laplacian, its Navier-type conditions.  The row
    of ``problem`` in ``_FD`` says how to check the power and the grid and
    how to label the values; its producer computes them, and
    ConvergenceError is raised unless their residual bound is within
    RESIDUAL_REL_TOL * ||A||_inf.  No whole operator is built and no builder
    runs.
    """
    if problem not in _FD:
        raise InputError(f"unknown fd problem {problem!r} ({'|'.join(FD_PROBLEMS)})")
    row = _FD[problem]
    _check_power(l, problem)
    sides, grids, h = _validate_grid(sides, grids, problem)
    _check_count(count, math.prod(grids))
    values, residual, norm = row.produce(sides, grids, h, count)
    _check_residuals(np.array([residual]), norm)
    labels = {"grid": ",".join(str(g) for g in grids), "stencil": row.stencil}
    if row.problem == EUCLIDEAN and l > 1:  # a power of the Laplacian: only order 2 takes one
        labels["spectrum-type"] = "navier-power"
    return _labelled(problem, grids, values, l), labels


def operator_power_spectrum(op: DiscreteOperator, l: int, count: int) -> SpectrumPrefix:
    """First ``count`` eigenvalues of op^l, op built by ``fd_laplacian`` or
    ``fd_clamped_plate``: eigenvalues of op are computed once and raised to
    the l-th power (the matrix power shares eigenvectors), and checked and
    labelled by the row of its stencil.

    The operator is solved by one ``smallest_eigs`` call, which picks the
    route; either way every eigenpair's residual is checked, and
    ConvergenceError is raised rather than an unchecked value returned.  No
    command calls it: it serves a demo, the tests that check ``fd_spectrum``
    against a built operator, and the benchmark's tracer, which times it.
    """
    problem = next((name for name, row in _FD.items() if row.stencil == op.stencil), None)
    if problem is None:
        stencils = "|".join(row.stencil for row in _FD.values())
        raise InputError(f"unknown stencil {op.stencil!r} ({stencils})")
    _check_power(l, problem)
    if _FD[problem].problem == HEISENBERG:
        raise InputError("the Kohn spectrum comes from fd_spectrum, which labels it")
    _check_count(count, op.dim)
    return _labelled(problem, op.npoints, smallest_eigs(op, count).eigenvalues, l)


# ---------------------------------------------------------------------------
# spectrum prefixes and their CSV interface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumPrefix:
    """An ordered positive eigenvalue prefix with problem metadata.

    ``n`` is the space dimension for Euclidean problems and the Heisenberg
    parameter for Kohn problems; ``l`` is the operator power.
    """

    values: np.ndarray
    n: int
    l: int = 1
    problem: str = EUCLIDEAN

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel().copy()
        if vals.size == 0:
            raise InputError("eigenvalue prefix is empty")
        if vals.size > MAX_PREFIX_LEN:
            raise InputError(f"prefix longer than {MAX_PREFIX_LEN} entries")
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
            raise InputError("eigenvalues must be finite and strictly positive")
        if np.any(np.diff(vals) < 0):
            raise InputError("eigenvalues must be nondecreasing")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise InputError(f"n must be a positive integer, got {self.n}")
        if not (isinstance(self.l, (int, np.integer)) and self.l >= 1):
            raise InputError(f"l must be a positive integer, got {self.l}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "l", int(self.l))
        if self.problem not in PROBLEMS:
            raise InputError(f"unknown problem {self.problem!r}; known: {PROBLEMS}")

    def __len__(self) -> int:
        return int(self.values.size)


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
