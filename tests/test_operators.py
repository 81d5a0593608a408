"""Box spectra, finite-difference operators, Kohn structure, CSV round trip."""

import io
import math

import numpy as np
import pytest

from specgap import operators
from specgap.bounds import EUCLIDEAN, HEISENBERG
from specgap.eigensolve import RESIDUAL_REL_TOL, dense_symmetric_eig
from specgap.errors import ConvergenceError, InputError
from specgap.operators import (
    box_spectrum,
    fd_clamped_plate,
    fd_laplacian,
    fd_spectrum,
    kohn_fd,
    operator_power_spectrum,
    read_spectrum_csv,
    write_spectrum_csv,
)

PI2 = math.pi**2


def fd1d_eigenvalues(side, N):
    h = side / (N + 1)
    j = np.arange(1, N + 1)
    return np.sort((4.0 / h**2) * np.sin(j * np.pi * h / (2.0 * side)) ** 2)


# ---------------------------------------------------------------------------
# box spectra
# ---------------------------------------------------------------------------


def test_box_unit_square_first_four():
    prefix = box_spectrum([1.0, 1.0], 4)
    assert np.allclose(prefix.values, PI2 * np.array([2.0, 5.0, 5.0, 8.0]), rtol=1e-14)
    assert prefix.problem == EUCLIDEAN and prefix.n == 2 and prefix.l == 1


def test_box_unit_interval():
    prefix = box_spectrum([1.0], 3)
    assert np.allclose(prefix.values, PI2 * np.array([1.0, 4.0, 9.0]), rtol=1e-14)


def test_box_rectangle():
    prefix = box_spectrum([1.0, 2.0], 2)
    assert np.allclose(prefix.values, PI2 * np.array([1.25, 2.0]), rtol=1e-14)


def test_box_large_count_enumeration_is_exact():
    # the count-th value must be below the enumeration-cube safety threshold;
    # cross-check a deep prefix against a brute-force larger enumeration
    prefix = box_spectrum([1.0, 1.0], 200)
    p = np.arange(1, 60)
    brute = np.sort((PI2 * (p[:, None] ** 2 + p[None, :] ** 2)).ravel())[:200]
    assert np.array_equal(prefix.values, brute)


def test_box_validation():
    with pytest.raises(InputError):
        box_spectrum([0.0, 1.0], 4)
    with pytest.raises(InputError):
        box_spectrum([1.0], 0)


# box_spectrum with a side that is not finite is tested in a child process
# with capped memory (tests/test_cli.py): its enumeration used to grow without end
@pytest.mark.parametrize("sides", [[], [1.0, math.nan], [math.inf, 1.0]], ids=["none", "nan", "inf"])
def test_grid_refuses_sides_that_are_not_finite(sides):
    with pytest.raises(InputError, match="box sides must be positive and finite"):
        fd_laplacian(sides, [8])


def test_box_refuses_no_sides():
    with pytest.raises(InputError, match="box sides must be positive and finite"):
        box_spectrum([], 3)


def test_box_refuses_count_above_prefix_cap_before_enumerating(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("box_spectrum enumerated before refusing the count")

    monkeypatch.setattr(np, "meshgrid", no_enumeration)
    with pytest.raises(InputError, match="count must satisfy 1 <= count <= 100000"):
        box_spectrum([1.0, 1.0], 10**10)


# ---------------------------------------------------------------------------
# fd laplacian
# ---------------------------------------------------------------------------


def test_fd_laplacian_symmetry_exact():
    op = fd_laplacian([1.0, 2.0], [12, 7])
    assert op.symmetry_defect() == 0.0


def test_fd_laplacian_row_sums():
    op = fd_laplacian([1.0], [10])
    h = 1.0 / 11
    sums = np.asarray(op.matrix.sum(axis=1)).ravel() * h**2
    assert sums[0] == pytest.approx(1.0, rel=1e-12)
    assert sums[-1] == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(sums[1:-1], 0.0, atol=1e-12)


@pytest.mark.parametrize("N", [25, 50, 100])
def test_fd_laplacian_1d_analytic(N):
    op = fd_laplacian([1.0], [N])
    w = np.linalg.eigvalsh(op.matrix.toarray())
    assert np.max(np.abs(w / fd1d_eigenvalues(1.0, N) - 1.0)) <= 1e-10


def test_fd_laplacian_2d_tensor_sums():
    op = fd_laplacian([1.0, 1.5], [14, 9])
    w = np.linalg.eigvalsh(op.matrix.toarray())
    a = fd1d_eigenvalues(1.0, 14)
    b = fd1d_eigenvalues(1.5, 9)
    exact = np.sort((a[:, None] + b[None, :]).ravel())
    assert np.max(np.abs(w / exact - 1.0)) <= 1e-10


def test_fd_laplacian_validation():
    with pytest.raises(InputError):
        fd_laplacian([1.0], [1])
    with pytest.raises(InputError):
        fd_laplacian([1.0, -1.0], [5, 5])


# ---------------------------------------------------------------------------
# clamped plate
# ---------------------------------------------------------------------------


def test_clamped_symmetry_and_positivity():
    for sides, grids in (([1.0, 1.0], [10, 10]), ([1.0, 1.3, 0.8], [9, 10, 11])):
        op = fd_clamped_plate(sides, grids)
        assert op.symmetry_defect() == 0.0
        w = np.linalg.eigvalsh(op.matrix.toarray())
        assert w[0] > 0


def test_clamped_beam_smallest_eigenvalue_self_convergence():
    # Richardson extrapolation of the FD family establishes the reference;
    # the N = 40 value must land within 1% of it
    vals = {}
    for N in (40, 80, 160):
        op = fd_clamped_plate([1.0], [N])
        vals[N] = np.linalg.eigvalsh(op.matrix.toarray())[0]
    rich1 = (4 * vals[80] - vals[40]) / 3.0
    rich2 = (4 * vals[160] - vals[80]) / 3.0
    assert abs(rich2 - rich1) <= 1e-4 * abs(rich2)
    assert abs(vals[40] - rich2) <= 0.01 * rich2
    # the continuum beam constant is (4.7300407...)^4; the extrapolated value
    # should sit on it to a few parts in 1e4
    assert rich2 == pytest.approx(4.7300407448627**4, rel=5e-4)


def test_clamped_needs_four_points():
    with pytest.raises(InputError):
        fd_clamped_plate([1.0], [3])


@pytest.mark.parametrize("n", [4, 5, 8, 9])
@pytest.mark.parametrize("stencil", ["fourth", "second"])
@pytest.mark.parametrize("even", [True, False], ids=["even", "odd"])
def test_fold_is_the_parity_block_of_the_stencil(n, stencil, even):
    make = operators._clamped_fourth_difference if stencil == "fourth" else operators._second_difference
    bands = make(n, 0.3)
    A = operators._assemble([[operators._band(n, *bands)]], dense=True)
    eye, m = np.eye(n), n // 2
    basis = [(eye[j] + (1.0 if even else -1.0) * eye[n - 1 - j]) / math.sqrt(2.0) for j in range(m)]
    if even and n % 2:
        basis.append(eye[m])
    Q = np.array(basis).T
    size, (rows, cols, values) = operators._fold(bands, even)
    assert size == Q.shape[1] and len(set(zip(rows, cols))) == rows.size
    block = np.zeros((size, size))
    block[rows, cols] = values
    assert np.array_equal(block, block.T)
    np.testing.assert_allclose(block, Q.T @ A @ Q, rtol=0, atol=4 * np.finfo(float).eps * abs(A).max())


def test_dense_and_sparse_builds_of_a_block_are_bitwise_equal_and_symmetric(monkeypatch):
    """Both builds sum the entries at one place in the same order, so a block
    does not depend on how it is stored, and its symmetric terms make it
    exactly symmetric."""
    seen = []
    real_assemble = operators._assemble
    monkeypatch.setattr(operators, "_assemble", lambda terms, dense: seen.append(terms) or real_assemble(terms, dense))
    fd_spectrum("clamped", (1.0, 1.3, 0.8), (9, 10, 11), 1, 5)
    sides, npoints, (hx, hy, ht) = operators._validate_grid((1.0, 1.3, 0.8), (9, 10, 11), "kohn")
    xs, ys = operators._kohn_xy(sides, npoints, (hx, hy, ht))
    seen.append(operators._kohn_block(xs, ys, hx, hy, operators._kohn_t_modes(npoints[2], ht)[1]))
    assert len(seen) == 9
    for terms in seen:
        dense, sparse = real_assemble(terms, dense=True), real_assemble(terms, dense=False).toarray()
        assert np.array_equal(dense, sparse)
        assert np.abs(sparse - sparse.T).max() == 0.0


CLAMPED_BLOCK_CASES = [
    ((1.0,), (4,), 4),  # the whole spectrum of the smallest grid
    ((1.3,), (9,), 9),  # the middle point of an odd axis joins the even block
    ((1.0,), (40,), 8),  # below a quarter of each block
    ((1.0, 1.0), (6, 6), 36),
    ((1.0, 1.4), (7, 6), 30),
    ((1.0, 1.0), (9, 11), 60),
    ((1.0, 1.0), (30, 30), 20),  # the benchmark's command: four dense blocks of 225
    ((1.0, 1.2, 0.9), (4, 5, 6), 120),
    ((1.0, 1.0, 1.0), (7, 7, 7), 40),
]


@pytest.mark.parametrize(
    "sides, grids, count", CLAMPED_BLOCK_CASES, ids=["x".join(map(str, c[1])) + f"-{c[2]}" for c in CLAMPED_BLOCK_CASES]
)
def test_clamped_blocks_match_the_whole_operator(sides, grids, count):
    matrix = fd_clamped_plate(sides, grids).matrix.toarray()
    reference = np.linalg.eigvalsh(matrix)[:count]
    prefix, labels = fd_spectrum("clamped", sides, grids, 1, count)
    assert labels == {"grid": ",".join(map(str, grids)), "stencil": "clamped-plate"}
    assert (prefix.n, prefix.l, prefix.problem) == (len(grids), 2, EUCLIDEAN)
    assert np.all(np.abs(prefix.values - reference) <= 1e-13 * abs(matrix).sum(axis=1).max())


# each problem's builder and grids of 1 to 3 axes, 2 points on an axis among them
INF_NORM_CASES = {
    "laplacian": (fd_laplacian, [((1.0,), (2,)), ((1.3,), (9,)), ((1.0, 1.4), (7, 2)), ((1.0, 1.2, 0.9), (4, 5, 6))]),
    "clamped": (
        fd_clamped_plate,
        [((1.0,), (9,)), ((1.0, 1.4), (7, 6)), ((1.0, 1.2, 0.9), (4, 5, 6)), ((2.0, 1.0), (4, 4))],
    ),
    "kohn": (
        lambda sides, grids: kohn_fd(1, sides, grids),
        [((1.0, 1.0, 1.0), (12, 12, 12)), ((2.0, 1.0, 1.5), (6, 9, 7)), ((1.0, 1.3, 0.7), (4, 7, 5))],
    ),
}


@pytest.mark.parametrize("problem", operators.FD_PROBLEMS)
def test_inf_norm_is_the_builders(problem):
    """The ||A||_inf that each producer takes from its terms is the largest
    row sum of |A| for the operator its builder assembles."""
    build, cases = INF_NORM_CASES[problem]
    for sides, grids in cases:
        norm = abs(build(sides, grids).matrix).sum(axis=1).max()
        produced = operators._FD[problem].produce(*operators._validate_grid(sides, grids, problem), 1)[2]
        assert abs(produced - norm) <= 1e-13 * norm, (grids, produced, norm)


def test_clamped_blocks_take_each_route_with_a_floor_below_the_spectrum(monkeypatch):
    """Blocks below the dense/ARPACK crossover are built dense, blocks above
    it sparse; ARPACK's floor lies below the spectrum, and both routes agree
    with the whole operator."""
    sides, grids = (1.0, 1.2), (46, 46)  # four blocks of 529, above DENSE_FALLBACK_DIM
    matrix = fd_clamped_plate(sides, grids).matrix.toarray()
    reference, scale = np.linalg.eigvalsh(matrix), abs(matrix).sum(axis=1).max()
    built, floors = [], []
    real_assemble, real_smallest = operators._assemble, operators.smallest_eigs
    monkeypatch.setattr(operators, "_assemble", lambda terms, dense: built.append(dense) or real_assemble(terms, dense))
    monkeypatch.setattr(
        operators, "smallest_eigs", lambda block, m, floor: floors.append(floor) or real_smallest(block, m, floor=floor)
    )
    arpack = fd_spectrum("clamped", sides, grids, 1, 5)[0].values
    dense = fd_spectrum("clamped", sides, grids, 1, 600)[0].values  # above a quarter of each block
    assert built == [False] * 4 + [True] * 4
    assert len(floors) == 4 and 0.0 < floors[0] <= reference[0] and len(set(floors)) == 1
    assert np.all(np.abs(arpack - reference[:5]) <= 1e-13 * scale)
    assert np.all(np.abs(dense - reference[:600]) <= 1e-13 * scale)


@pytest.mark.parametrize("margin, refused", [(0.5, True), (2.0, False)])
def test_clamped_blocks_add_the_fold_rounding_to_the_residual(monkeypatch, margin, refused):
    # a block residual within the contract by less than the fold's rounding
    # bound (T + 4) eps ||A||_inf, T = 3 terms on a plate, is refused
    sides, grids = (1.0, 1.0), (8, 8)
    norm = abs(fd_clamped_plate(sides, grids).matrix).sum(axis=1).max()
    residual = RESIDUAL_REL_TOL * norm - margin * 7 * np.finfo(float).eps * norm
    real = operators._block_smallest
    monkeypatch.setattr(operators, "_block_smallest", lambda *args: (real(*args)[0], residual))
    if refused:
        with pytest.raises(ConvergenceError, match="eigenpair residual"):
            fd_spectrum("clamped", sides, grids, 1, 10)
    else:
        assert len(fd_spectrum("clamped", sides, grids, 1, 10)[0].values) == 10


def test_clamped_blocks_check_powers_counts_and_grids():
    with pytest.raises(InputError, match="already the l = 2 problem"):
        fd_spectrum("clamped", (1.0, 1.0), (6, 6), 2, 3)
    with pytest.raises(InputError, match="l must be a positive integer"):
        fd_spectrum("clamped", (1.0, 1.0), (6, 6), 0, 3)
    with pytest.raises(InputError, match="count must satisfy 1 <= count <= 36"):
        fd_spectrum("clamped", (1.0, 1.0), (6, 6), 1, 37)
    with pytest.raises(InputError, match="at least 4 interior points"):
        fd_spectrum("clamped", (1.0, 1.0), (3, 6), 1, 3)
    with pytest.raises(InputError, match="got 2 sides but 3 grid sizes"):
        fd_spectrum("clamped", (1.0, 1.0), (6, 6, 6), 1, 3)
    with pytest.raises(InputError, match=r"unknown fd problem 'plate' \(laplacian\|clamped\|kohn\)"):
        fd_spectrum("plate", (1.0, 1.0), (6, 6), 1, 3)


# ---------------------------------------------------------------------------
# Kohn operator
# ---------------------------------------------------------------------------


def test_kohn_fields_exactly_skew():
    op = kohn_fd(1, (1.0, 1.0, 1.0), (6, 6, 6))
    for F in (op.x_field, op.y_field, op.t_field):
        d = F + F.T
        assert (np.abs(d.data).max() if d.nnz else 0.0) == 0.0


def test_kohn_symmetric_psd():
    op = kohn_fd(1, (1.0, 1.0, 1.0), (6, 6, 6))
    assert op.symmetry_defect() == 0.0
    w = np.linalg.eigvalsh(op.matrix.toarray())
    norm = np.abs(op.matrix.data).max()
    assert w[0] >= -1e-10 * norm


def commutator_interior_residual(N, frac=0.5):
    """sup |([Y,X] - D_t) u| over the central sub-box of relative size frac,
    for a fixed smooth u; O(h^2) in the grid interior."""
    op = kohn_fd(1, (1.0, 1.0, 1.0), (N, N, N))
    h = 1.0 / (N + 1)
    g = -0.5 + h * np.arange(1, N + 1)
    xs, ys, ts = np.meshgrid(g, g, g, indexing="ij")
    u = np.exp(np.sin(2.1 * xs) + np.cos(1.7 * ys) + np.sin(1.3 * ts + 0.2))
    uf = u.ravel()
    X, Y, Dt = op.x_field, op.y_field, op.t_field
    r = (Y @ (X @ uf) - X @ (Y @ uf) - Dt @ uf).reshape(N, N, N)
    mask = (np.abs(xs) <= frac / 2) & (np.abs(ys) <= frac / 2) & (np.abs(ts) <= frac / 2)
    return float(np.abs(r[mask]).max())


def test_kohn_commutator_refines():
    r8 = commutator_interior_residual(8)
    r16 = commutator_interior_residual(16)
    assert r8 / r16 >= 3.0


def test_kohn_unsupported_group_rank():
    with pytest.raises(InputError):
        kohn_fd(2, (1.0,) * 5, (5,) * 5)
    with pytest.raises(InputError):
        kohn_fd(1, (1.0, 1.0, 1.0), (3, 3, 3))


# ---------------------------------------------------------------------------
# powered spectra
# ---------------------------------------------------------------------------


def test_power_spectrum_l1_identity():
    op = fd_laplacian([1.0], [30])
    p1 = operator_power_spectrum(op, 1, 6)
    assert np.allclose(p1.values, fd1d_eigenvalues(1.0, 30)[:6], rtol=1e-12)
    assert p1.l == 1 and p1.problem == EUCLIDEAN


def test_power_spectrum_squares_and_cubes():
    op = fd_laplacian([1.0], [30])
    base = fd1d_eigenvalues(1.0, 30)
    p2 = operator_power_spectrum(op, 2, 5)
    p3 = operator_power_spectrum(op, 3, 5)
    assert np.allclose(p2.values, base[:5] ** 2, rtol=1e-11)
    assert np.allclose(p3.values, base[:5] ** 3, rtol=1e-11)
    assert p2.l == 2 and p3.l == 3


def test_power_spectrum_kohn_problem_tag():
    prefix, labels = fd_spectrum("kohn", (1.0, 1.0, 1.0), (5, 5, 5), 2, 4)
    assert prefix.problem == HEISENBERG and prefix.n == 1 and prefix.l == 2
    assert labels == {"grid": "5,5,5", "stencil": "kohn-heisenberg"}


def test_power_spectrum_refuses_the_kohn_operator():
    with pytest.raises(InputError, match="comes from fd_spectrum"):
        operator_power_spectrum(kohn_fd(1, (1.0, 1.0, 1.0), (5, 5, 5)), 1, 4)


def test_power_spectrum_refuses_an_unknown_stencil():
    op = operators.DiscreteOperator(fd_laplacian([1.0], [10]).matrix, (10,), "my-stencil")
    with pytest.raises(InputError, match="unknown stencil 'my-stencil' .dirichlet-laplacian.clamped-plate.kohn-heisenberg"):
        operator_power_spectrum(op, 1, 4)


def test_power_spectrum_count_cap():
    op = fd_laplacian([1.0], [10])
    with pytest.raises(InputError, match="count must satisfy 1 <= count <= 10"):
        operator_power_spectrum(op, 1, 11)


# ---------------------------------------------------------------------------
# the Laplacian's closed form
# ---------------------------------------------------------------------------


def _random_laplacian_case(seed):
    """1 to 3 axes of dimension <= 600, sides in [1, 2), l in 1..3 and a
    count up to the dimension."""
    rng = np.random.default_rng(seed)
    ndim = int(rng.integers(1, 4))
    grids = tuple(int(g) for g in rng.integers(2, int(600 ** (1.0 / ndim)) + 1, size=ndim))
    sides = tuple(float(a) for a in rng.uniform(1.0, 2.0, size=ndim))
    return sides, grids, int(rng.integers(1, 4)), int(rng.integers(1, math.prod(grids) + 1))


@pytest.mark.parametrize(
    "sides, grids, l, count",
    [_random_laplacian_case(seed) for seed in range(12)] + [((1.0,), (600,), 3, 600)],
    ids=[f"seed{seed}" for seed in range(12)] + ["1d-600-l3"],
)
def test_laplacian_closed_form_matches_operator_spectrum(sides, grids, l, count):
    prefix, labels = fd_spectrum("laplacian", sides, grids, l, count)
    op = fd_laplacian(sides, grids)
    reference = operator_power_spectrum(op, l, count)
    assert labels["grid"] == ",".join(map(str, grids))
    assert (prefix.n, prefix.l, prefix.problem) == (reference.n, reference.l, reference.problem)
    # 1e-12 relative, plus the reference's own error: a dense eigenvalue of A
    # is off by up to a few eps * ||A||, 1.7e-11 relative at the bottom of the
    # 1-D 600-point spectrum, where the closed form is exact to rounding
    base = reference.values ** (1.0 / l)
    slack = l * base ** (l - 1) * 8 * np.finfo(float).eps * abs(op.matrix).sum(axis=1).max()
    assert np.all(np.abs(prefix.values - reference.values) <= 1e-12 * reference.values + slack)


def test_laplacian_closed_form_refuses_a_perturbed_mode(monkeypatch):
    real_modes = operators._sine_modes

    def perturbed(n):
        modes = real_modes(n)
        modes[2] *= 1.0 + 1e-6
        return modes

    monkeypatch.setattr(operators, "_sine_modes", perturbed)
    with pytest.raises(ConvergenceError, match="eigenpair residual"):
        fd_spectrum("laplacian", [1.0, 1.0], [10, 10], 1, 20)
    # a mode that no written value uses is not checked
    assert fd_spectrum("laplacian", [1.0], [10], 1, 2)[0].values.size == 2


def test_laplacian_closed_form_checks_counts_like_the_operator():
    with pytest.raises(InputError, match="count must satisfy 1 <= count <= 10"):
        fd_spectrum("laplacian", [1.0], [10], 1, 11)
    with pytest.raises(InputError, match="l must be a positive integer"):
        fd_spectrum("laplacian", [1.0], [10], 0, 3)


def test_sine_mode_residual_refuses_a_mutated_mode():
    modes = operators._sine_modes(300)
    used = np.arange(300)
    assert operators._sine_mode_residual(300, modes, used) < 1e-14
    for q in (0, 149, 299):
        wrong = modes.copy()
        wrong[q] += 1e-8
        assert operators._sine_mode_residual(300, wrong, used) > 0.5e-8
    # the angle-addition vectors are the sines themselves, not merely eigenvectors
    n, q = 40, 7
    u = np.sin(np.arange(1, n + 1) * (q + 1) * np.pi / (n + 1))
    t = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    residual = operators._sine_mode_residual(n, np.array([u @ t @ u / (u @ u)] * n), np.array([q]))
    assert residual < 1e-14


# ---------------------------------------------------------------------------
# the Kohn Laplacian's t-Fourier blocks
# ---------------------------------------------------------------------------

KOHN_BLOCK_CASES = [
    ((1.0, 1.0, 1.0), (12, 12, 12), 1, 31),  # odd counts end inside a pair
    ((1.0, 1.0, 1.0), (12, 12, 12), 3, 300),
    ((1.0, 1.0, 1.0), (10, 14, 8), 1, 101),
    ((1.0, 1.0, 1.0), (9, 9, 8), 1, 200),
    ((1.0, 1.0, 1.0), (8, 9, 9), 1, 200),
    ((2.0, 1.0, 1.5), (6, 9, 7), 2, 378),
    ((1.0, 1.3, 0.7), (10, 7, 8), 1, 560),
    ((1.0, 1.0, 1.0), (5, 6, 7), 1, 210),
    ((1.0, 1.0, 1.0), (10, 7, 8), 1, 3),  # the two smallest values share a block
]


def _kohn_reference(sides, grids):
    """The whole spectrum of the 3-D operator, from a dense solve."""
    return dense_symmetric_eig(kohn_fd(1, sides, grids).matrix).eigenvalues


@pytest.mark.parametrize(
    "sides, grids, l, count", KOHN_BLOCK_CASES, ids=["x".join(map(str, c[1])) + f"-l{c[2]}-{c[3]}" for c in KOHN_BLOCK_CASES]
)
def test_kohn_blocks_match_the_3d_operator(sides, grids, l, count):
    prefix, labels = fd_spectrum("kohn", sides, grids, l, count)
    reference = _kohn_reference(sides, grids)[:count] ** l
    assert labels["grid"] == ",".join(map(str, grids)) and (prefix.n, prefix.l, prefix.problem) == (1, l, HEISENBERG)
    assert np.all(np.abs(prefix.values - reference) <= 1e-12 * reference)
    if grids[2] % 2 == 0:  # every block has a twin at -theta
        full = fd_spectrum("kohn", sides, grids, 1, math.prod(grids))[0].values
        assert np.array_equal(full[0::2], full[1::2])


@pytest.mark.parametrize("n", [5, 7, 9])
def test_kohn_blocks_write_the_zero_of_all_odd_grids_as_its_closed_form(n):
    values = fd_spectrum("kohn", (1.0, 1.0, 1.0), (n, n, n), 1, 10)[0].values
    # cos^2 of the float nearest pi/2 over h^2, about 1e-31: not a solver's
    # rounding, which is of either sign and near 1e-15
    assert 0.0 <= values[0] < 1e-24 * values[1]
    reference = _kohn_reference((1.0, 1.0, 1.0), (n, n, n))[:10]
    assert np.all(np.abs(values[1:] - reference[1:]) <= 1e-12 * reference[1:])


def test_kohn_blocks_take_each_route(monkeypatch):
    """Blocks below the dense/ARPACK crossover are built dense, blocks above
    it sparse, and both routes agree with the dense 3-D reference."""
    sides, grids = (1.0, 1.0, 1.0), (24, 22, 4)  # two pairs of blocks of 528, above DENSE_FALLBACK_DIM
    reference = _kohn_reference(sides, grids)
    built = []
    real_assemble = operators._assemble
    monkeypatch.setattr(operators, "_assemble", lambda terms, dense: built.append(dense) or real_assemble(terms, dense))
    arpack = fd_spectrum("kohn", sides, grids, 1, 20)[0].values
    dense = fd_spectrum("kohn", sides, grids, 1, 200)[0].values  # 100 of 528 in each block
    assert built == [False, False, True, True]
    assert np.all(np.abs(arpack - reference[:20]) <= 1e-12 * reference[:20])
    assert np.all(np.abs(dense - reference[:200]) <= 1e-12 * reference[:200])


@pytest.mark.parametrize(
    "problem, sides, grids, count, blocks",
    [
        ("kohn", (1.0, 1.0, 1.0), (24, 22, 4), 20, 2),  # ARPACK on two blocks of 528
        ("kohn", (1.0, 1.0, 1.0), (24, 22, 4), 200, 2),  # 100 of 528: dense, below a quarter
        ("clamped", (1.0, 1.2), (46, 46), 5, 4),  # ARPACK on four blocks of 529
        ("clamped", (1.0, 1.2), (46, 46), 100, 4),  # 100 of 529: dense, below a quarter
    ],
)
def test_each_block_reaches_the_solver_of_its_build(monkeypatch, problem, sides, grids, count, blocks):
    """One route decision per block: a block built dense is solved by
    dense_symmetric_eig, a block built sparse by smallest_eigs."""
    reached = []
    real_dense, real_smallest = operators.dense_symmetric_eig, operators.smallest_eigs
    monkeypatch.setattr(
        operators, "dense_symmetric_eig", lambda block: reached.append((block, "dense")) or real_dense(block)
    )
    monkeypatch.setattr(
        operators,
        "smallest_eigs",
        lambda block, m, floor: reached.append((block, "sparse")) or real_smallest(block, m, floor=floor),
    )
    operators.fd_spectrum(problem, sides, grids, 1, count)
    assert len(reached) == blocks
    assert all(isinstance(block, np.ndarray) == (solver == "dense") for block, solver in reached)


@pytest.mark.parametrize("mutation", ["wrong-theta", "one-mode"])
def test_kohn_blocks_refuse_a_wrong_t_mode(monkeypatch, mutation):
    real_modes = operators._kohn_t_modes

    def wrong(nt, ht):
        theta = real_modes(nt, ht)
        if mutation == "wrong-theta":  # cos(p pi / nt) instead of cos(p pi / (nt + 1))
            return np.cos(np.arange(1, nt + 1) * np.pi / nt) / ht
        theta[1] *= 1.0 + 1e-6
        return theta

    monkeypatch.setattr(operators, "_kohn_t_modes", wrong)
    with pytest.raises(ConvergenceError, match="eigenpair residual"):
        fd_spectrum("kohn", (1.0, 1.0, 1.0), (8, 8, 8), 1, 20)


def test_kohn_blocks_refuse_a_wrong_middle_block(monkeypatch):
    real_residual = operators._sine_mode_residual
    calls = []

    def mutated(n, modes, used):
        calls.append(n)
        if len(calls) == 1:  # the x axis of the middle block
            modes = modes.copy()
            modes[used[0]] += 1e-6
        return real_residual(n, modes, used)

    monkeypatch.setattr(operators, "_sine_mode_residual", mutated)
    with pytest.raises(ConvergenceError, match="eigenpair residual"):
        fd_spectrum("kohn", (1.0, 1.0, 1.0), (7, 7, 7), 1, 10)


def test_kohn_blocks_check_counts_and_grids():
    with pytest.raises(InputError, match="count must satisfy 1 <= count <= 216"):
        fd_spectrum("kohn", (1.0, 1.0, 1.0), (6, 6, 6), 1, 217)
    with pytest.raises(InputError, match="l must be a positive integer"):
        fd_spectrum("kohn", (1.0, 1.0, 1.0), (6, 6, 6), 0, 3)
    with pytest.raises(InputError, match="3-axis grid"):
        fd_spectrum("kohn", (1.0, 1.0), (6, 6), 1, 3)
    with pytest.raises(InputError, match="at least 4 interior points"):
        fd_spectrum("kohn", (1.0, 1.0, 1.0), (3, 6, 6), 1, 3)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_spectrum_csv_roundtrip_17_digits():
    values = np.array([math.pi, 1.0 / 3.0, 123456.789012345678])
    buf = io.StringIO()
    write_spectrum_csv(buf, values, {"problem": EUCLIDEAN, "n": 2})
    text = buf.getvalue()
    assert "# problem: euclidean-polyharmonic" in text
    back, meta = read_spectrum_csv(io.StringIO(text))
    assert np.array_equal(back, values)  # 17 significant digits round-trip
    assert meta["n"] == "2"
    blank = read_spectrum_csv(io.StringIO("\n" + text.replace("\n", "\n  \n")))  # blank lines are skipped
    assert np.array_equal(blank[0], values) and blank[1] == meta


def test_spectrum_csv_rejects_garbage():
    with pytest.raises(InputError, match="bad eigenvalue line 'not-a-number'"):
        read_spectrum_csv(io.StringIO("1.0\nnot-a-number\n"))
