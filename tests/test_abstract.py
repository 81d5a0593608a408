"""Commutator inequality verification on finite-dimensional instances."""

import numpy as np
import pytest

from specgap.abstract import (
    OperatorTriple,
    admissible_ks,
    commutator,
    moment_inequality_check,
    random_instance,
    verify_corollary,
    verify_theorem,
)
from specgap.couples import FunctionCouple
from specgap.errors import ConvergenceError, InputError


def two_by_two():
    A = np.diag([1.0, 2.0]).astype(complex)
    B = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    T = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    return A, B, T


def const_couple(lam, alpha=0.0):
    return FunctionCouple("const-power", lam, (alpha,))


# ---------------------------------------------------------------------------
# commutator
# ---------------------------------------------------------------------------


def test_commutator_2x2():
    X = np.diag([1.0, 2.0])
    Y = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(commutator(X, Y), np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_commutator_self_and_identity():
    X = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(commutator(X, X), np.zeros((3, 3)))
    assert np.array_equal(commutator(np.eye(3), X), np.zeros((3, 3)))


def test_commutator_shape_mismatch():
    with pytest.raises(InputError):
        commutator(np.eye(2), np.eye(3))


# ---------------------------------------------------------------------------
# main inequality
# ---------------------------------------------------------------------------


def test_theorem_2x2_equality():
    A, B, T = two_by_two()
    triple = OperatorTriple(A, (B,), (T,))
    rep = verify_theorem(triple, 1, const_couple(2.0))
    assert rep.passed
    assert abs(rep.lhs - 4.0) <= 1e-14
    assert abs(rep.rhs - 4.0) <= 1e-14
    assert rep.quad_coeff == pytest.approx(1.0, abs=1e-14)
    assert rep.gap == pytest.approx(1.0, abs=1e-15)


def test_theorem_zero_ts():
    A, B, _ = two_by_two()
    Z = np.zeros((2, 2), dtype=complex)
    triple = OperatorTriple(A, (B,), (Z,))
    rep = verify_theorem(triple, 1, const_couple(2.0))
    assert rep.passed
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_theorem_random_instance_equal_power():
    triple = random_instance(8, 3, seed=42)
    lam = triple.spectral.lam
    rep = verify_theorem(triple, 4, FunctionCouple("equal-power", float(lam[4]), (2.0,)))
    assert rep.passed


def test_theorem_gap_hypothesis():
    A = np.diag([1.0, 1.0, 2.0]).astype(complex)
    B = np.eye(3, dtype=complex)
    T = np.zeros((3, 3), dtype=complex)
    triple = OperatorTriple(A, (B,), (T,))
    with pytest.raises(InputError, match="lambda_2 > lambda_1 required"):
        verify_theorem(triple, 1, const_couple(1.0))


def test_theorem_z_between_gap_allowed():
    A, B, T = two_by_two()
    triple = OperatorTriple(A, (B,), (T,))
    rep = verify_theorem(triple, 1, const_couple(1.5))
    assert rep.z == 1.5
    assert rep.passed


def test_theorem_sign_flip_of_ts_invariant():
    triple = random_instance(6, 2, seed=3)
    lam = triple.spectral.lam
    flipped = OperatorTriple(triple.A, triple.Bs, tuple(-T for T in triple.Ts))
    for k in admissible_ks(triple):
        c = FunctionCouple("linear-power", float(lam[k]), (1.0,))
        a = verify_theorem(triple, k, c)
        b = verify_theorem(flipped, k, c)
        assert a.lhs == b.lhs and a.rhs == b.rhs


def test_theorem_matches_unweighted_two_sided_form():
    # with f = g = 1 the report must equal the independently coded
    # (sum <[T,B]u,u>)^2 <= 4 (sum <[A,B]u,Bu>) (sum ||Tu||^2/(z-lam)) form,
    # computed here directly from the matrices without the cached arrays
    triple = random_instance(7, 2, seed=11)
    w, U = np.linalg.eigh(triple.A)
    for k in admissible_ks(triple):
        z = float(w[k])
        lhs = 0.0
        quad = 0.0
        second = 0.0
        for p in range(triple.n):
            Tp, Bp = triple.Ts[p], triple.Bs[p]
            TB = Tp @ Bp - Bp @ Tp
            AB = triple.A @ Bp - Bp @ triple.A
            for i in range(k):
                u = U[:, i]
                lhs += np.real(np.vdot(u, TB @ u))
                quad += np.real(np.vdot(Bp @ u, AB @ u))
                second += np.linalg.norm(Tp @ u) ** 2 / (z - w[i])
        lhs = lhs**2
        rhs = 4.0 * quad * second
        rep = verify_theorem(triple, k, const_couple(z, 0.0))
        assert rep.lhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)
        assert rep.rhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_quad_coeff_nonnegative_over_random_instances():
    for seed in range(40):
        triple = random_instance(int(2 + seed % 9), 1 + seed % 3, seed=seed)
        lam = triple.spectral.lam
        for k in admissible_ks(triple):
            rep = verify_theorem(triple, k, FunctionCouple("equal-power", float(lam[k]), (2.0,)))
            assert rep.quad_coeff >= -1e-9 * (1.0 + abs(rep.rhs))
            assert rep.passed


def test_commuting_diagnostic_ensemble_degenerates_to_zero():
    triple = random_instance(6, 2, seed=5, ensemble="commuting-diagnostic")
    lam = triple.spectral.lam
    for k in admissible_ks(triple):
        rep = verify_theorem(triple, k, const_couple(float(lam[k])))
        assert rep.passed
        assert rep.quad_coeff == pytest.approx(0.0, abs=1e-12)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# one-family corollary
# ---------------------------------------------------------------------------


def test_corollary_2x2():
    A, B, _ = two_by_two()
    rep = verify_corollary(A, (B,), 1, const_couple(2.0))
    assert rep.passed
    # the corollary form carries no factor 4: both sides are 1 here
    assert rep.lhs == pytest.approx(1.0, abs=1e-14)
    assert rep.rhs == pytest.approx(1.0, abs=1e-14)
    assert rep.identity_residual <= 1e-12


def test_corollary_rejects_z_beyond_next_eigenvalue():
    A, B, T = two_by_two()
    with pytest.raises(InputError):
        verify_corollary(A, (B,), 1, const_couple(2.5))
    # and a k with no lambda_(k+1) above it
    for k in (0, 2):
        with pytest.raises(InputError, match=f"need 1 <= k < d = 2, got k = {k}"):
            verify_corollary(A, (B,), k, const_couple(2.0))
        with pytest.raises(InputError, match=f"need 1 <= k < d = 2, got k = {k}"):
            verify_theorem(OperatorTriple(A, (B,), (T,)), k, const_couple(2.0))


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("verifier", ["theorem", "corollary"])
def test_couple_lambda_outside_the_gap_is_refused(verifier, lam):
    # z = couple.lam must lie in (lambda_1, lambda_2] = (1, 2]
    A, B, T = two_by_two()
    with pytest.raises(InputError, match="z must lie in"):
        if verifier == "theorem":
            verify_theorem(OperatorTriple(A, (B,), (T,)), 1, const_couple(lam))
        else:
            verify_corollary(A, (B,), 1, const_couple(lam))


@pytest.mark.parametrize("lam_1", [-1.0, 0.0])
@pytest.mark.parametrize("verifier", ["theorem", "corollary"])
def test_non_positive_eigenvalue_prefix_is_refused(verifier, lam_1):
    # the couple lives on (0, lambda): it has no weight at lambda_1 <= 0
    _, B, T = two_by_two()
    A = np.diag([lam_1, 2.0]).astype(complex)
    with pytest.raises(InputError, match="evaluation points must lie in"):
        if verifier == "theorem":
            verify_theorem(OperatorTriple(A, (B,), (T,)), 1, const_couple(2.0))
        else:
            verify_corollary(A, (B,), 1, const_couple(2.0))


def test_corollary_identity_operator_trivial():
    A = np.diag([1.0, 2.0, 3.0]).astype(complex)
    rep = verify_corollary(A, (np.eye(3, dtype=complex),), 1, const_couple(2.0))
    assert rep.passed
    assert rep.lhs == 0.0 and rep.rhs == 0.0


def test_corollary_random():
    rng = np.random.default_rng(7)
    d = 10
    M = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    A = (M + M.conj().T) / 2
    A = A + (1.0 - np.linalg.eigvalsh(A)[0]) * np.eye(d)
    Bs = []
    for _ in range(2):
        Mb = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        Bs.append((Mb + Mb.conj().T) / 2)
    w = np.linalg.eigvalsh(A)
    rep = verify_corollary(A, tuple(Bs), 4, FunctionCouple("linear-power", float(w[4]), (1.0,)))
    assert rep.passed
    assert rep.identity_residual <= 1e-12


# ---------------------------------------------------------------------------
# moment inequality
# ---------------------------------------------------------------------------


def test_moment_identity_matrix():
    u = np.array([0.6, 0.8])
    for r, q in [(0, 0), (1, 2), (3, 5)]:
        assert moment_inequality_check(np.eye(2), u, r, q) == pytest.approx(0.0, abs=1e-14)


def test_moment_hand_value():
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    margin = moment_inequality_check(np.diag([1.0, 4.0]), u, 1, 2)
    assert margin == pytest.approx(np.sqrt(8.5) - 2.5, rel=1e-13)


def test_moment_r_zero():
    rng = np.random.default_rng(1)
    W = rng.standard_normal((5, 5))
    Q = W @ W.T
    u = rng.standard_normal(5)
    u /= np.linalg.norm(u)
    assert moment_inequality_check(Q, u, 0, 4) == pytest.approx(0.0, abs=1e-12)


def test_moment_rejects_non_psd():
    with pytest.raises(InputError):
        moment_inequality_check(np.diag([1.0, -1.0]), np.array([1.0, 0.0]), 1, 2)


def test_moment_refuses_inaccurate_eigenpairs(monkeypatch):
    # Q is decomposed by the residual-checked route: eigenvalues off by 1e-6
    # of the largest one are refused, not turned into a wrong margin
    real_eigh = np.linalg.eigh

    def perturbed(M):
        w, V = real_eigh(M)
        return w + 1e-6 * abs(w[-1]), V

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    u = np.array([1.0, 1.0]) / np.sqrt(2.0)
    with pytest.raises(ConvergenceError, match="residual"):
        moment_inequality_check(np.diag([1.0, 4.0]), u, 1, 2)


def test_moment_rejects_bad_exponents():
    with pytest.raises(InputError):
        moment_inequality_check(np.eye(2), np.array([1.0, 0.0]), 3, 2)
    # and a Q or u it cannot read
    for Q, u in ((np.ones((2, 3)), [1.0, 0.0]), (np.eye(2), [1.0, 0.0, 0.0])):
        with pytest.raises(InputError, match="Q must be square and conformable with u"):
            moment_inequality_check(Q, np.array(u), 1, 2)
    with pytest.raises(InputError, match="u must be nonzero"):
        moment_inequality_check(np.eye(2), np.zeros(2), 1, 2)


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def test_random_instance_deterministic():
    a = random_instance(8, 3, seed=42)
    b = random_instance(8, 3, seed=42)
    assert np.array_equal(a.A, b.A)
    for x, y in zip(a.Bs + a.Ts, b.Bs + b.Ts):
        assert np.array_equal(x, y)
    c = random_instance(8, 3, seed=43)
    assert not np.array_equal(a.A, c.A)


def test_random_instance_symmetry_residuals():
    for ensemble in ("dense-gaussian", "sparse", "commuting-diagnostic"):
        t = random_instance(9, 2, seed=1, ensemble=ensemble)
        assert np.abs(t.A - t.A.conj().T).max() == 0.0
        for B in t.Bs:
            assert np.abs(B - B.conj().T).max() == 0.0
        for T in t.Ts:
            assert np.abs(T + T.conj().T).max() == 0.0


@pytest.mark.parametrize(
    "d, n, ensemble, refusal",
    [
        (1, 2, "dense-gaussian", "need d >= 2 and n >= 1, got d=1, n=2"),
        (4, 0, "dense-gaussian", "need d >= 2 and n >= 1, got d=4, n=0"),
        (4, 2, "gaussian", "unknown ensemble 'gaussian'"),
    ],
)
def test_random_instance_refuses_bad_sizes_and_ensembles(d, n, ensemble, refusal):
    with pytest.raises(InputError, match=refusal):
        random_instance(d, n, seed=0, ensemble=ensemble)


def test_random_instance_positive_spectrum():
    t = random_instance(12, 3, seed=9)
    assert np.linalg.eigvalsh(t.A)[0] > 0


def test_operator_triple_rejects_non_hermitian():
    A = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(InputError):
        OperatorTriple(A, (np.eye(2, dtype=complex),), (np.zeros((2, 2), dtype=complex),))
    # and operators of the wrong shape or number
    A, B, T = two_by_two()
    with pytest.raises(InputError, match=r"A must be square, got \(2, 3\)"):
        OperatorTriple(np.ones((2, 3)), (B,), (T,))
    for Bs, Ts in (((), ()), ((B, B), (T,))):
        with pytest.raises(InputError, match=r"need equally many \(at least one\) B and T operators"):
            OperatorTriple(A, Bs, Ts)
    with pytest.raises(InputError, match="operator pair 1 has wrong shape"):
        OperatorTriple(A, (B, np.eye(3)), (T, T))
