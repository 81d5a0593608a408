"""Dense and ARPACK (Lanczos) eigensolvers: examples, invariants, cross-agreement."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from scipy.sparse.linalg import ArpackNoConvergence

from specgap.eigensolve import dense_symmetric_eig, smallest_eigs
from specgap.errors import ConvergenceError, InputError
from specgap.operators import fd_clamped_plate, fd_laplacian, kohn_fd


def fd1d_eigenvalues(side, N):
    """Analytic spectrum of the 1D central-difference Dirichlet Laplacian."""
    h = side / (N + 1)
    j = np.arange(1, N + 1)
    return np.sort((4.0 / h**2) * np.sin(j * np.pi * h / (2.0 * side)) ** 2)


def free_path_laplacian(n):
    """Graph Laplacian of a path: PSD, with a zero eigenvalue that Gaussian
    elimination hits exactly (the last pivot is 1 - 1)."""
    main = np.full(n, 2.0)
    main[0] = main[-1] = 1.0
    off = np.full(n - 1, -1.0)
    return SimpleNamespace(matrix=sp.diags([off, main, off], [-1, 0, 1], format="csr"))


def fd2d_eigenvalues(sides, grids):
    a = fd1d_eigenvalues(sides[0], grids[0])
    b = fd1d_eigenvalues(sides[1], grids[1])
    return np.sort((a[:, None] + b[None, :]).ravel())


# ---------------------------------------------------------------------------
# dense solver
# ---------------------------------------------------------------------------


def test_dense_diagonal():
    res = dense_symmetric_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(res.eigenvalues, [1.0, 2.0, 3.0], rtol=0, atol=1e-15)


def test_dense_pauli_x():
    res = dense_symmetric_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(res.eigenvalues, [-1.0, 1.0], rtol=0, atol=1e-15)


def test_dense_fd1d_matches_analytic():
    op = fd_laplacian([1.0], [50])
    res = dense_symmetric_eig(op.matrix)
    exact = fd1d_eigenvalues(1.0, 50)
    assert np.max(np.abs(res.eigenvalues / exact - 1.0)) <= 1e-10


def test_dense_invariants():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((40, 40))
    M = M + M.T
    res = dense_symmetric_eig(M)
    assert np.all(np.diff(res.eigenvalues) >= 0)
    V = res.eigenvectors
    assert np.abs(V.T @ V - np.eye(40)).max() <= 1e-10
    norm = np.abs(M).max()
    assert np.max(res.residuals) <= 1e-12 * norm * 40


def test_dense_rejects_asymmetric():
    with pytest.raises(InputError):
        dense_symmetric_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_dense_dimension_cap():
    big = sp.identity(4097, format="csr")
    with pytest.raises(InputError):
        dense_symmetric_eig(big)


# ---------------------------------------------------------------------------
# Lanczos
# ---------------------------------------------------------------------------


def test_lanczos_fd2d_matches_tensor_formula():
    op = fd_laplacian([1.0, 1.0], [20, 20])
    res = smallest_eigs(op, 10, method="lanczos")
    exact = fd2d_eigenvalues((1.0, 1.0), (20, 20))[:10]
    assert res.converged
    assert np.max(np.abs(res.eigenvalues / exact - 1.0)) <= 1e-8


def test_lanczos_m1_diag_dominant_vs_dense():
    rng = np.random.default_rng(4)
    d = 60
    M = np.diag(np.linspace(1.0, 60.0, d)) + 0.01 * rng.standard_normal((d, d))
    M = (M + M.T) / 2
    lz = smallest_eigs(M, 1, method="lanczos")
    dn = dense_symmetric_eig(M)
    assert lz.eigenvalues[0] == pytest.approx(dn.eigenvalues[0], rel=1e-9)


def test_smallest_eigs_m_cap():
    op = fd_laplacian([1.0], [16])
    with pytest.raises(InputError):
        smallest_eigs(op, 5)  # dim 16, cap is 4


def test_smallest_eigs_rejects_asymmetric():
    M = np.zeros((8, 8))
    M[0, 1] = 1.0
    with pytest.raises(InputError):
        smallest_eigs(M, 1)


def test_auto_uses_dense_fallback_below_cap():
    op = fd_laplacian([1.0], [40])
    res = smallest_eigs(op, 5)
    assert res.method == "dense-fallback"
    assert np.allclose(res.eigenvalues, fd1d_eigenvalues(1.0, 40)[:5], rtol=1e-12)


def test_lanczos_returned_invariants():
    op = fd_laplacian([1.0, 1.0], [18, 18])
    res = smallest_eigs(op, 8, method="lanczos")
    V = res.eigenvectors
    assert np.abs(V.T @ V - np.eye(8)).max() <= 1e-10
    norm = np.abs(op.matrix.data).max()
    assert np.max(res.residuals) <= 1e-10 * norm * 10
    assert np.all(np.diff(res.eigenvalues) >= 0)


def test_lanczos_deterministic_restarts():
    op = fd_laplacian([1.0, 1.0], [15, 15])
    a = smallest_eigs(op, 6, method="lanczos")
    b = smallest_eigs(op, 6, method="lanczos")
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def _arpack_fails(A, k, **kwargs):
    raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((A.shape[0], 0)))


def _arpack_returns_wrong_pairs(A, k, **kwargs):
    return np.arange(1.0, k + 1.0), np.eye(A.shape[0], k)


@pytest.mark.parametrize("fake_eigsh", [_arpack_fails, _arpack_returns_wrong_pairs])
def test_lanczos_refuses_unconverged_pairs(monkeypatch, fake_eigsh):
    monkeypatch.setattr("scipy.sparse.linalg.eigsh", fake_eigsh)
    with pytest.raises(ConvergenceError):
        smallest_eigs(fd_laplacian([1.0, 1.0], [15, 15]), 6, method="lanczos")


# ---------------------------------------------------------------------------
# cross-agreement on the operator corpus (dimensions <= 2000)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make_op,m",
    [
        (lambda: fd_laplacian([1.0, 1.0], [25, 25]), 10),  # dim 625
        (lambda: fd_clamped_plate([1.0], [120]), 6),  # dim 120
        (lambda: fd_clamped_plate([1.0, 1.0], [18, 18]), 6),  # dim 324
        (lambda: kohn_fd(1, (1.0, 1.0, 1.0), (8, 8, 8)), 8),  # dim 512
        # singular PSD operators: the shift must sit strictly below 0
        (lambda: kohn_fd(1, (1.0, 1.0, 1.0), (9, 9, 9)), 12),  # dim 729, all-odd grid
        (lambda: free_path_laplacian(64), 5),
    ],
)
def test_dense_and_lanczos_agree(make_op, m):
    op = make_op()
    dense = dense_symmetric_eig(op.matrix, want_vectors=False)
    lz = smallest_eigs(op, m, method="lanczos")
    assert lz.converged
    scale = np.abs(op.matrix.data).max()
    if dense.eigenvalues[0] > 1e-10 * scale:
        assert np.max(np.abs(lz.eigenvalues / dense.eigenvalues[:m] - 1.0)) <= 1e-8
    else:  # a relative error means nothing at a zero eigenvalue
        assert np.max(np.abs(lz.eigenvalues - dense.eigenvalues[:m])) <= 1e-12 * scale
