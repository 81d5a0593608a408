"""Reference results the benchmark checks the CLI against.

Nothing here imports specgap: every reference is built from the mathematics
(analytic spectra, independently assembled finite-difference matrices, the
published applicability table of the bound registry) so that a defect in the
code under test cannot hide itself in its own reference.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.sparse as sp

EUCLIDEAN = "euclidean-polyharmonic"
HEISENBERG = "heisenberg-kohn"

# Number of descriptors in the bound registry; `verify spectrum` writes one
# row per descriptor and prefix length k, applicable or not.
REGISTRY_SIZE = 28

# Bound-extracting (not verification-only) descriptors that apply to each
# (problem, l), as published in the registry's applicability table.
_POLY = ("ppw-poly", "hp-poly", "hp-weak-poly", "wucao-poly", "cim-yang-poly")
_KOHN_ODD = ("kohn-odd-l", "kohn-odd-l-homog", "kohn-yang-odd-l", "niuzhang-odd")
_KOHN_EVEN = ("kohn-even-l", "kohn-yang-even-l", "niuzhang-even")
_APPLICABLE = {
    (EUCLIDEAN, 1): ("ppw-laplacian", "hp-laplacian", "yang1-laplacian", "yang2-laplacian") + _POLY,
    (EUCLIDEAN, 2): (
        "ppw-clamped",
        "ppw-clamped-sharp",
        "hileyeh-clamped",
        "hook-chenqian-clamped",
        "hp-weak-clamped",
        "chengyang-clamped",
    )
    + _POLY,
    (HEISENBERG, 1): ("kohn-yang-l1", "niuzhang-l1"),
    (HEISENBERG, 2): ("kohn-chengyang-l2", "kohn-yang-l2", "niuzhang-l2"),
}


def applicable_bounds(problem: str, l: int) -> frozenset:
    """Names `bound --ineq all` must print for a prefix of this kind."""
    if (problem, l) in _APPLICABLE:
        return frozenset(_APPLICABLE[(problem, l)])
    if problem == EUCLIDEAN:
        return frozenset(_POLY)
    return frozenset(_KOHN_ODD if l % 2 else _KOHN_EVEN)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def box_spectrum(sides, count: int) -> np.ndarray:
    """First ``count`` Dirichlet Laplacian eigenvalues of a box,
    pi^2 sum_j (p_j / a_j)^2 over integer p_j >= 1, sorted with multiplicity."""
    sides = np.asarray(sides, dtype=float)
    m = int(math.ceil(count ** (1.0 / sides.size))) + 2
    while True:
        axes = [(np.pi * np.arange(1, m + 1) / a) ** 2 for a in sides]
        vals = axes[0]
        for ax in axes[1:]:
            vals = (vals[:, None] + ax[None, :]).ravel()
        vals = np.sort(vals)
        # every omitted tuple has some p_j > m, so exceeds (pi (m+1) / a_max)^2
        if vals.size >= count and vals[count - 1] <= (np.pi * (m + 1) / sides.max()) ** 2:
            return vals[:count]
        m *= 2


def fd_laplacian_spectrum(sides, grid, count: int) -> np.ndarray:
    """Smallest eigenvalues of the central-difference Dirichlet Laplacian:
    sums over axes of (4/h^2) sin^2(p pi h / (2 a)), h = a / (N + 1)."""
    vals = np.zeros(1)
    for a, n in zip(sides, grid):
        h = a / (n + 1)
        axis = 4.0 / h**2 * np.sin(np.arange(1, n + 1) * np.pi * h / (2.0 * a)) ** 2
        vals = (vals[:, None] + axis[None, :]).ravel()
    return np.sort(vals)[:count]


def _kron_axis(op_1d, axis: int, grid) -> sp.csr_matrix:
    out = None
    for ax, n in enumerate(grid):
        m = op_1d if ax == axis else sp.identity(n, format="csr")
        out = m if out is None else sp.kron(out, m, format="csr")
    return out


def _tridiag(n: int, lower: float, diag: float, upper: float) -> sp.csr_matrix:
    return sp.diags(
        [np.full(n - 1, lower), np.full(n, diag), np.full(n - 1, upper)], [-1, 0, 1], format="csr"
    )


def clamped_plate_matrix(sides, grid) -> np.ndarray:
    """Biharmonic 13-point stencil, clamped edges: per axis the fourth
    difference with the ghost point mirroring the first interior point (so the
    end diagonal entries are 7, not 6), plus 2 D2_x D2_y."""
    h = [a / (n + 1) for a, n in zip(sides, grid)]
    total = None
    for ax, n in enumerate(grid):
        d4 = np.diag(np.full(n, 6.0)) + np.diag(np.full(n - 1, -4.0), 1) + np.diag(np.full(n - 1, -4.0), -1)
        d4 += np.diag(np.ones(n - 2), 2) + np.diag(np.ones(n - 2), -2)
        d4[0, 0] = d4[-1, -1] = 7.0
        term = _kron_axis(sp.csr_matrix(d4 / h[ax] ** 4), ax, grid)
        total = term if total is None else total + term
    for a1 in range(len(grid)):
        for a2 in range(a1 + 1, len(grid)):
            d2a = _kron_axis(_tridiag(grid[a1], -1.0, 2.0, -1.0) / h[a1] ** 2, a1, grid)
            d2b = _kron_axis(_tridiag(grid[a2], -1.0, 2.0, -1.0) / h[a2] ** 2, a2, grid)
            total = total + 2.0 * (d2a @ d2b)
    return total.toarray()


def kohn_matrix(sides, grid) -> np.ndarray:
    """Kohn Laplacian X^T X + Y^T Y on a Heisenberg box centred at the origin,
    X = d_x + (y/2) d_t and Y = d_y - (x/2) d_t, with skew central differences
    and the variable coefficient averaged symmetrically, (D_t M + M D_t)/2."""
    (ax, ay, at), (nx, ny, nt) = sides, grid
    hx, hy, ht = ax / (nx + 1), ay / (ny + 1), at / (nt + 1)

    def skew(n, h):
        return _tridiag(n, -1.0 / (2.0 * h), 0.0, 1.0 / (2.0 * h))

    xs = -ax / 2.0 + hx * np.arange(1, nx + 1)
    ys = -ay / 2.0 + hy * np.arange(1, ny + 1)
    dx = _kron_axis(skew(nx, hx), 0, grid)
    dy = _kron_axis(skew(ny, hy), 1, grid)
    dt = _kron_axis(skew(nt, ht), 2, grid)
    my = _kron_axis(sp.diags(ys / 2.0, format="csr"), 1, grid)
    mx = _kron_axis(sp.diags(xs / 2.0, format="csr"), 0, grid)
    x_field = dx + 0.5 * (dt @ my + my @ dt)
    y_field = dy - 0.5 * (dt @ mx + mx @ dt)
    gram = (x_field.T @ x_field + y_field.T @ y_field).toarray()
    return 0.5 * (gram + gram.T)


def smallest_eigenvalues(matrix: np.ndarray, count: int) -> np.ndarray:
    return np.linalg.eigvalsh(matrix)[:count]


# ---------------------------------------------------------------------------
# output parsing shared by the checks
# ---------------------------------------------------------------------------


def csv_values(text: str) -> np.ndarray:
    return np.array([float(s) for s in text.splitlines() if s.strip() and not s.startswith("#")])


def json_rows(text: str) -> list:
    return [json.loads(s) for s in text.splitlines() if s.strip()]


def spectrum_csv(values, problem: str, n: int, l: int) -> str:
    """A spectrum file in the CLI's CSV layout: `#` metadata, then one value
    per line at 17 significant digits."""
    head = f"# generator: bench\n# problem: {problem}\n# n: {n}\n# l: {l}\n"
    return head + "".join(format(float(v), ".17g") + "\n" for v in values)
