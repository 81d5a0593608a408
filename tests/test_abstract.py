"""Commutator inequality verification on finite-dimensional instances."""

import itertools
import json
import math

import numpy as np
import pytest

from specgap import cli, couples
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
from specgap.eigensolve import dense_symmetric_eig
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
        for Tp, Bp in zip(triple.Ts, triple.Bs):
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
# spectral data: every family in one stacked pass
# ---------------------------------------------------------------------------


def _per_family_spectral(triple, U):
    """tb, ab and tn in the eigenbasis U by their definition, one family p
    at a time, each from its own commutators [T_p, B_p] and [A, B_p]."""
    rows = []
    for B, T in zip(triple.Bs, triple.Ts):
        BU = B @ U
        rows.append((
            np.real(np.sum(np.conj(U) * (commutator(T, B) @ U), axis=0)),
            np.real(np.sum(np.conj(BU) * (commutator(triple.A, B) @ U), axis=0)),
            np.sum(np.abs(T @ U) ** 2, axis=0),
        ))  # fmt: skip
    return [np.array(column) for column in zip(*rows)]


SPECTRAL_CASES = [
    (2, 1, "dense-gaussian"),
    (8, 3, "dense-gaussian"),
    (12, 1, "dense-gaussian"),
    (16, 4, "sparse"),
    (3, 6, "sparse"),
    (5, 2, "commuting-diagnostic"),
]


@pytest.mark.parametrize("d, n, ensemble", SPECTRAL_CASES)
def test_stacked_spectral_data_matches_the_per_family_definition(d, n, ensemble):
    eps = np.finfo(float).eps
    for seed in (1, 26):
        triple = random_instance(d, n, seed=seed, ensemble=ensemble)
        sd, U = triple.spectral, dense_symmetric_eig(triple.A).eigenvectors
        for name, got, want in zip(("tb", "ab", "tn"), (sd.tb, sd.ab, sd.tn), _per_family_spectral(triple, U)):
            assert got.shape == want.shape == (n, d), name
            assert np.all(np.abs(got - want) <= 4 * eps * np.abs(want).max()), name
        # <[A,B_p] u_i, B_p u_i> = sum_j (lambda_j - lambda_i) |<u_j, B_p u_i>|^2
        coeffs = np.abs(U.conj().T @ np.array(triple.Bs) @ U) ** 2  # [p, j, i]
        identity = np.sum((sd.lam[:, None] - sd.lam[None, :]) * coeffs, axis=1)
        assert np.all(np.abs(sd.ab - identity) <= 1e-12 * np.abs(sd.ab).max())


# ---------------------------------------------------------------------------
# theorem sums against a loop over (p, i)
# ---------------------------------------------------------------------------

SUM_CASES = [
    (2, 1, "dense-gaussian"),
    (8, 3, "dense-gaussian"),
    (12, 2, "sparse"),
    (16, 4, "sparse"),
    (5, 2, "commuting-diagnostic"),
    (9, 1, "commuting-diagnostic"),
]


def _looped_sides(A, Bs, Ts, k, couple, corollary):
    """(lhs, rhs, quad_coeff) and the sum of absolute terms of each, by a
    plain loop over (p, i) on the checked eigenpairs of A, with f and g
    written out as powers of z - lambda_i.  The theorem's left terms are
    f <[T_p,B_p] u_i, u_i> and its factor 4; the corollary's are
    f <[A,B_p] u_i, B_p u_i> and its factor 1."""
    eig = dense_symmetric_eig(A)
    ef, eg = couple.power_exponents()
    z = couple.lam
    left = quad = second = left_abs = quad_abs = second_abs = 0.0
    for B, T in zip(Bs, Ts):
        for i in range(k):
            u, lam_i = eig.eigenvectors[:, i], float(eig.eigenvalues[i])
            f, g = (z - lam_i) ** ef, (z - lam_i) ** eg
            ab = np.real(np.vdot(B @ u, (A @ B - B @ A) @ u))
            term = f * (ab if corollary else np.real(np.vdot(u, (T @ B - B @ T) @ u)))
            weighted = g * ab
            tail = f**2 / (g * (z - lam_i)) * np.linalg.norm(T @ u) ** 2
            left, quad, second = left + term, quad + weighted, second + tail
            left_abs, quad_abs, second_abs = left_abs + abs(term), quad_abs + abs(weighted), second_abs + tail
    factor = 1.0 if corollary else 4.0
    sides = (left**2, factor * quad * second, quad)
    scales = (left_abs**2, factor * quad_abs * second_abs, quad_abs)
    return sides, scales


@pytest.mark.parametrize("d, n, ensemble", SUM_CASES)
def test_theorem_and_corollary_sums_match_a_loop_over_families_and_eigenpairs(d, n, ensemble):
    # each side within 1e-12 of the same expression in the absolute values of
    # its terms: relative where the side is not itself a cancellation (lhs
    # and quad_coeff are 0 up to round-off on the commuting diagnostic)
    triple = random_instance(d, n, seed=2027 + d, ensemble=ensemble)
    lam = triple.spectral.lam
    commutators = tuple(triple.A @ B - B @ triple.A for B in triple.Bs)
    checked = 0
    for k in admissible_ks(triple):
        for family, params in (("equal-power", (2.0,)), ("neg-power", (-1.0, 1.0)), ("const-power", (0.5,))):
            couple = FunctionCouple(family, float(lam[k]), params)
            theorem = verify_theorem(triple, k, couple), triple.Ts, False
            corollary = verify_corollary(triple.A, triple.Bs, k, couple), commutators, True
            for report, Ts, is_corollary in (theorem, corollary):
                sides, scales = _looped_sides(triple.A, triple.Bs, Ts, k, couple, is_corollary)
                got = (report.lhs, report.rhs, report.quad_coeff)
                for name, value, want, scale in zip(("lhs", "rhs", "quad_coeff"), got, sides, scales):
                    assert abs(value - want) <= 1e-12 * scale, (name, k, family, value, want)
                checked += 1
    assert checked >= 6


def test_verify_abstract_certifies_each_row_once(monkeypatch, capsys):
    # one certificate per written row, the runtime guard of each couple, on
    # the prefix lambda_1..lambda_k of the row: C(k, 2) pairs, none skipped
    reports, real_certify = [], couples.certify_on_samples

    def counting_certify(couple, samples):
        reports.append(real_certify(couple, samples))
        return reports[-1]

    monkeypatch.setattr(couples, "certify_on_samples", counting_certify)
    argv = ["verify", "abstract", "--trials", "6", "--dim", "6", "--nops", "2", "--seed", "27",
            "--couple", "equal-power:2", "--couple", "neg-power:-1,1"]  # fmt: skip
    assert cli.main(argv) == 0
    *rows, summary = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert len(rows) == summary["checks"] == len(reports) > 6
    assert sum(r.n_checked for r in reports) == sum(math.comb(row["k"], 2) for row in rows)
    assert sum(r.n_skipped for r in reports) == 0 and all(r.passed for r in reports)


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
    for name in ("A", "Bs", "Ts"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.Bs.shape == a.Ts.shape == (3, 8, 8)
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


def test_random_instance_refuses_a_negative_seed():
    # numpy's SeedSequence would raise a bare ValueError
    with pytest.raises(InputError, match="^need seed >= 0, got seed=-1$"):
        random_instance(4, 2, seed=-1)


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


def _looped_refusal(A, Bs, Ts):
    """The refusal of loops over the matrices one at a time, each defect
    within 1e-13 * its own max|M|, or None: the oracle of the stacked checks.
    Every pair's shape is checked before any pair's defects."""
    A = np.asarray(A, dtype=complex)
    Bs = [np.asarray(B, dtype=complex) for B in Bs]
    Ts = [np.asarray(T, dtype=complex) for T in Ts]

    def defective(M, sign):
        return np.abs(M - sign * M.conj().T).max() > 1e-13 * max(np.abs(M).max(), 1e-300)

    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return f"A must be square, got {A.shape}"
    if len(Bs) != len(Ts) or not Bs:
        return "need equally many (at least one) B and T operators"
    if defective(A, 1):
        return "A is not Hermitian within 1e-13 * max|A|"
    for p, (B, T) in enumerate(zip(Bs, Ts)):
        if B.shape != A.shape or T.shape != A.shape:
            return f"operator pair {p} has wrong shape"
    for p, (B, T) in enumerate(zip(Bs, Ts)):
        if defective(B, 1):
            return f"B[{p}] is not Hermitian within 1e-13 * max|B|"
        if defective(T, -1):
            return f"T[{p}] is not anti-self-adjoint within 1e-13 * max|T|"
    return None


def test_stacked_checks_refuse_shapes_before_defects():
    # every A and every one to three pairs drawn from good, non-Hermitian B,
    # non-skew T and wrong-shaped operators, each also with one T too few:
    # the first refusal in the order A square, count, A Hermitian, the first
    # pair of the wrong shape, then per pair B[p] and T[p]
    good = random_instance(4, 1, seed=12)
    A, B, T = good.A, good.Bs[0], good.Ts[0]
    tilted = np.zeros((4, 4), dtype=complex)
    tilted[0, 1] = 1e-3
    wrong = np.eye(3, dtype=complex)
    As = [A, A + tilted, np.ones((4, 5))]
    pairs = [(B, T), (B + tilted, T), (B, T + tilted), (B + tilted, T + tilted), (wrong, T), (B, wrong),
             (wrong, T + tilted)]  # fmt: skip
    cases = [(a, list(ps)) for a in As for n in (1, 2, 3) for ps in itertools.product(pairs, repeat=n)]
    cases += [(A, [(B, T), (B, T)][:n]) for n in (0, 2)]
    refused = set()
    for a, ps in cases:
        for Bs, Ts in ([[b for b, _ in ps], [t for _, t in ps]], [[b for b, _ in ps], [t for _, t in ps[1:]]]):
            want = _looped_refusal(a, Bs, Ts)
            if want is None:
                triple = OperatorTriple(a, tuple(Bs), tuple(Ts))
                for got, given in ((triple.Bs, Bs), (triple.Ts, Ts)):
                    assert got.dtype == complex and got.shape == (len(ps), 4, 4)
                    assert np.array_equal(got, np.array(given))
                continue
            with pytest.raises(InputError) as raised:
                OperatorTriple(a, tuple(Bs), tuple(Ts))
            assert str(raised.value) == want, (len(ps), want)
            refused.add(want.split(" is not")[0].split(" has wrong")[0])
    pairs_refused = {f"{name}[{p}]" for name in "BT" for p in range(3)} | {f"operator pair {p}" for p in range(3)}
    assert refused == {"A must be square, got (4, 5)", "A", *pairs_refused,
                       "need equally many (at least one) B and T operators"}  # fmt: skip
    # a defect in an earlier pair than a wrong shape: the shape is refused
    with pytest.raises(InputError, match="^operator pair 1 has wrong shape$"):
        OperatorTriple(A, (B + tilted, wrong), (T, T))


@pytest.mark.parametrize("family", ["B", "T"])
def test_stacked_checks_scale_each_matrix_by_its_own_max(family):
    # B[1] (or T[1]) of max 3e-6 with a defect near 1e-15 is refused beside a
    # B[0] of max 3e6: its defect exceeds 1e-13 * its own max, not 1e-13 *
    # the stack's
    symmetric = np.array([[2.0, 1.0, 3.0], [1.0, 0.0, -1.0], [3.0, -1.0, 1.0]])
    skew = np.array([[0.0, 1.0, 3.0], [-1.0, 0.0, -1.0], [-3.0, 1.0, 0.0]])
    base, sign = (symmetric, 1) if family == "B" else (skew, -1)
    big, small = (scale * base.astype(complex) for scale in (1e6, 1e-6))
    small[0, 2] += 1e-15
    defect = np.abs(small - sign * small.conj().T).max()
    assert 1e-13 * np.abs(small).max() < defect < 1e-13 * np.abs(big).max()
    zero = np.zeros((3, 3), dtype=complex)
    Bs, Ts = ((big, small), (zero, zero)) if family == "B" else ((zero, zero), (big, small))
    kind = "Hermitian" if family == "B" else "anti-self-adjoint"
    with pytest.raises(InputError) as raised:
        OperatorTriple(np.diag([1.0, 2.0, 3.0]), Bs, Ts)
    assert str(raised.value) == f"{family}[1] is not {kind} within 1e-13 * max|{family}|"
