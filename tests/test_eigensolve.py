"""Dense and ARPACK (Lanczos) eigensolvers: examples, invariants, cross-agreement."""

import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from scipy.sparse.linalg import ArpackNoConvergence

from specgap import eigensolve
from specgap.eigensolve import _lanczos_smallest, dense_symmetric_eig, smallest_eigs
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
    # and matrices that are not square or are empty
    with pytest.raises(InputError, match=r"need a square matrix, got shape \(2, 3\)"):
        dense_symmetric_eig(np.ones((2, 3)))
    with pytest.raises(InputError, match="need a nonempty matrix"):
        dense_symmetric_eig(np.zeros((0, 0)))


def test_dense_dimension_cap():
    big = sp.identity(4097, format="csr")
    with pytest.raises(InputError):
        dense_symmetric_eig(big)


# ---------------------------------------------------------------------------
# Lanczos
# ---------------------------------------------------------------------------


def test_lanczos_fd2d_matches_tensor_formula():
    op = fd_laplacian([1.0, 1.0], [20, 20])
    res = _lanczos_smallest(op.matrix, 10)
    exact = fd2d_eigenvalues((1.0, 1.0), (20, 20))[:10]
    assert res.converged
    assert np.max(np.abs(res.eigenvalues / exact - 1.0)) <= 1e-8


def test_lanczos_m1_diag_dominant_vs_dense():
    rng = np.random.default_rng(4)
    d = 60
    M = np.diag(np.linspace(1.0, 60.0, d)) + 0.01 * rng.standard_normal((d, d))
    M = (M + M.T) / 2
    lz = _lanczos_smallest(M, 1)
    dn = dense_symmetric_eig(M)
    assert lz.eigenvalues[0] == pytest.approx(dn.eigenvalues[0], rel=1e-9)


def test_smallest_eigs_m_cap():
    # dim 16 <= DENSE_DIM_CAP: the dense route holds every m up to dim, above
    # dim/4 too, and gives the first m pairs of the full decomposition
    op = fd_laplacian([1.0], [16])
    matrix = op.matrix.toarray()
    reference, scale = np.linalg.eigvalsh(matrix), abs(matrix).sum(axis=1).max()
    for m in (5, 16):
        res = smallest_eigs(op, m)
        assert res.method == "dense-fallback" and res.eigenvalues.size == m
        assert np.all(np.abs(res.eigenvalues - reference[:m]) <= 4 * np.finfo(float).eps * scale)
    for m in (0, 17):
        with pytest.raises(InputError, match=f"need 1 <= m <= dim = 16, got m = {m}"):
            smallest_eigs(op, m)


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


@pytest.mark.parametrize(
    "make_op,m,route",
    [
        (lambda: fd_laplacian([1.0], [40]), 5, "dense-fallback"),  # dim 40 < DENSE_FALLBACK_DIM
        (lambda: fd_laplacian([1.0, 1.0], [40, 40]), 30, "lanczos"),  # dim 1600, m <= dim/10
        (lambda: kohn_fd(1, (1.0, 1.0, 1.0), (12, 12, 12)), 300, "dense-fallback"),  # m > dim/10
    ],
    ids=["dim40-m5", "laplacian40x40-m30", "kohn12-m300"],
)
def test_route_follows_measured_crossover(make_op, m, route):
    op = make_op()
    res = smallest_eigs(op, m)
    assert res.method == route
    dense = np.linalg.eigvalsh(op.matrix.toarray())[:m]
    assert np.max(np.abs(res.eigenvalues / dense - 1.0)) <= 1e-10


def test_lanczos_returned_invariants():
    op = fd_laplacian([1.0, 1.0], [18, 18])
    res = _lanczos_smallest(op.matrix, 8)
    V = res.eigenvectors
    assert np.abs(V.T @ V - np.eye(8)).max() <= 1e-10
    norm = np.abs(op.matrix.data).max()
    assert np.max(res.residuals) <= 1e-10 * norm * 10
    assert np.all(np.diff(res.eigenvalues) >= 0)


def test_lanczos_deterministic_restarts():
    op = fd_laplacian([1.0, 1.0], [15, 15])
    a = _lanczos_smallest(op.matrix, 6)
    b = _lanczos_smallest(op.matrix, 6)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def _arpack_fails(A, k, **kwargs):
    raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((A.shape[0], 0)))


def _arpack_returns_wrong_pairs(A, k, **kwargs):
    return np.arange(1.0, k + 1.0), np.eye(A.shape[0], k)


@pytest.mark.parametrize("fake_eigsh", [_arpack_fails, _arpack_returns_wrong_pairs])
def test_lanczos_refuses_unconverged_pairs(monkeypatch, fake_eigsh):
    monkeypatch.setattr("scipy.sparse.linalg.eigsh", fake_eigsh)
    with pytest.raises(ConvergenceError):
        _lanczos_smallest(fd_laplacian([1.0, 1.0], [15, 15]).matrix, 6)


def test_dense_refuses_inaccurate_pairs(monkeypatch):
    real_eigh = np.linalg.eigh

    def perturbed(M):  # eigenvalues off by 1e-6 of the largest one
        w, V = real_eigh(M)
        return w + 1e-6 * abs(w[-1]), V

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(ConvergenceError):
        smallest_eigs(fd_laplacian([1.0, 1.0], [8, 8]), 4)


def test_import_specgap_defers_scipy_sparse_linalg():
    # only the ARPACK route needs scipy.sparse.linalg, and only the operator
    # builders scipy.sparse; every process pays for the package import
    code = "import sys, specgap; print('scipy.sparse.linalg' in sys.modules, 'scipy.sparse' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"


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
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    lz = _lanczos_smallest(op.matrix, m)
    assert lz.converged
    scale = np.abs(op.matrix.data).max()
    if dense[0] > 1e-10 * scale:
        assert np.max(np.abs(lz.eigenvalues / dense[:m] - 1.0)) <= 1e-8
    else:  # a relative error means nothing at a zero eigenvalue
        assert np.max(np.abs(lz.eigenvalues - dense[:m])) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# completeness: no skipped copy of a multiple eigenvalue
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cube13():
    """The 13^3 Dirichlet Laplacian (dim 2197, triple eigenvalues) and its
    dense spectrum."""
    op = fd_laplacian([1.0, 1.0, 1.0], [13, 13, 13])
    return op, dense_symmetric_eig(op.matrix)


# the counts at which ARPACK alone returned a wrong spectrum with passing residuals
@pytest.mark.parametrize("m", [21, 22, 27, 32, 33, 39, 43, 54, 64, 76, 78, 79])
def test_smallest_eigs_misses_no_copy_of_a_multiple_eigenvalue(cube13, monkeypatch, m):
    op, dense = cube13
    # the dense route's answer, sliced from one solve instead of one per count
    monkeypatch.setattr(
        eigensolve,
        "_dense_smallest",
        lambda M, k: eigensolve.EigResult(
            dense.eigenvalues[:k], dense.eigenvectors[:, :k], dense.residuals[:k], "dense-fallback"
        ),
    )
    res = smallest_eigs(op, m)
    assert np.max(np.abs(res.eigenvalues / dense.eigenvalues[:m] - 1.0)) <= 1e-10


def test_lanczos_never_returns_pairs_without_a_skipped_eigenvalue():
    # ARPACK alone returned three of the four copies of 16.304 and 17.589 instead
    op = kohn_fd(1, (1.0, 1.0, 1.0), (6, 6, 6))
    res = _lanczos_smallest(op.matrix, 30)
    dense = np.linalg.eigvalsh(op.matrix.toarray())[:30]
    assert np.count_nonzero(np.abs(res.eigenvalues - 16.30441328) < 1e-6) == 4
    assert np.max(np.abs(res.eigenvalues / dense - 1.0)) <= 1e-10


def test_lanczos_refuses_a_skip_above_the_dense_cap(cube13, monkeypatch):
    # the dense route cannot answer there, so the failed count is an error
    monkeypatch.setattr(eigensolve, "DENSE_DIM_CAP", 2000)
    with pytest.raises(ConvergenceError, match="inertia count"):
        _lanczos_smallest(cube13[0].matrix, 21)


def test_inertia_count_matches_dense_spectrum():
    op = kohn_fd(1, (1.0, 1.0, 1.0), (6, 6, 6))
    dense = np.linalg.eigvalsh(op.matrix.toarray())
    gaps = np.flatnonzero(np.diff(dense) > 1e-6)  # sigma between distinct eigenvalues
    for sigma in [-1.0, 16.0, 16.5, *(0.5 * (dense[gaps] + dense[gaps + 1])), dense[-1] + 1.0]:
        assert eigensolve._eigenvalues_below(op.matrix, sigma) == np.count_nonzero(dense < sigma)


def _singular_pivot(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def _off_diagonal_pivots(*args, **kwargs):
    return SimpleNamespace(perm_r=np.array([1, 0]), perm_c=np.array([0, 1]))


@pytest.mark.parametrize("splu", [_singular_pivot, _off_diagonal_pivots], ids=["singular-pivot", "perm-r-not-perm-c"])
def test_no_inertia_count_is_answered_densely_below_the_cap_and_refused_above(monkeypatch, splu):
    # SuperLU cannot show the count: the dense route answers up to the cap,
    # and above it the ARPACK pairs are refused
    op = fd_laplacian([1.0, 1.0], [40, 40])  # dim 1600, ARPACK for 30 pairs
    monkeypatch.setattr("scipy.sparse.linalg.splu", splu)
    assert eigensolve._eigenvalues_below(op.matrix, 1.0) is None
    res = smallest_eigs(op, 30)
    assert res.method == "dense-fallback"
    assert np.array_equal(res.eigenvalues, dense_symmetric_eig(op.matrix).eigenvalues[:30])
    monkeypatch.setattr(eigensolve, "DENSE_DIM_CAP", 1000)
    with pytest.raises(ConvergenceError, match="inertia count of A - sigma I did not confirm"):
        smallest_eigs(op, 30)


def _superlu_out_of_memory(*args, **kwargs):
    raise RuntimeError("SUPERLU_MALLOC fails for buf in intCalloc()")


def _numpy_out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 3.91 GiB")


@pytest.mark.parametrize("target", ["scipy.sparse.linalg.eigsh", "scipy.sparse.linalg.splu"])
@pytest.mark.parametrize("fails", [_superlu_out_of_memory, _numpy_out_of_memory])
def test_out_of_memory_in_arpack_or_inertia_count_is_convergence_error(monkeypatch, target, fails):
    # eigsh factors A - sigma I for its shift-invert; splu is the inertia count's
    monkeypatch.setattr(target, fails)
    with pytest.raises(ConvergenceError, match="out of memory"):
        _lanczos_smallest(fd_laplacian([1.0, 1.0], [15, 15]).matrix, 6)



@pytest.mark.parametrize(
    "error",
    [
        RuntimeError("Factor is exactly singular"),
        RuntimeError("failed to map segment from shared object"),
        ImportError("libfoo.so: cannot open shared object file"),
        ModuleNotFoundError("No module named 'scipy'"),
    ],
)
def test_other_errors_pass_the_out_of_memory_mapping(error):
    # only MemoryError, SuperLU's allocator failure and the loader's failure
    # to map a shared library mean that memory ran out
    with pytest.raises(type(error)) as raised:
        with eigensolve._out_of_memory_refused("a step"):
            raise error
    assert raised.value is error


def test_out_of_memory_in_the_symmetry_check_is_convergence_error(monkeypatch):
    # the symmetry check copies A: a Kohn 32^3 operator ran out of memory there
    # under a 300 MB cap, with a traceback and exit 1
    monkeypatch.setattr(eigensolve, "hermitian_defect", _numpy_out_of_memory)
    with pytest.raises(ConvergenceError, match="out of memory in ARPACK for 6 eigenpairs of dimension 225"):
        _lanczos_smallest(fd_laplacian([1.0, 1.0], [15, 15]).matrix, 6)
