"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Random draws are seeded; every tolerance is pinned here.
"""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from specgap import bounds
from specgap.abstract import (
    OperatorTriple,
    admissible_ks,
    moment_inequality_check,
    random_instance,
    verify_theorem,
)
from specgap.bounds import (
    CHAIN,
    EUCLIDEAN,
    HEISENBERG,
    SpectrumPrefix,
    chain_compare,
    compute_bound,
    registry_names,
    verify_margins,
)
from specgap.couples import FunctionCouple
from specgap.operators import box_spectrum, fd_clamped_plate, fd_laplacian, kohn_fd

PI2 = math.pi**2


def _weyl_prefix(rng, max_len=20, n_max=10):
    """Random positive nondecreasing prefix with sub-Weyl growth so the
    quadratic (Yang-type) inequalities admit a real root; arbitrary sorted
    sequences are usually not prefixes of any spectrum and make the quadratic
    constraint infeasible."""
    k = int(rng.integers(1, max_len + 1))
    n = int(rng.integers(1, n_max + 1))
    lam1 = float(rng.uniform(0.3, 8.0))
    growth = rng.uniform(0.3, 0.95) * 2.0 / n
    i = np.arange(1, k + 1)
    jitter = np.exp(np.cumsum(rng.normal(0.0, 0.03, size=k)))
    return np.sort(lam1 * i**growth * jitter), n


def test_acceptance_01_k1_collapse():
    t0 = time.time()
    worst = 0.0
    for n in range(1, 11):
        for lam1 in (0.5, 1.0, 7.3):
            target = (1.0 + 4.0 / n) * lam1
            prefix = SpectrumPrefix(np.array([lam1]), n=n)
            for name in CHAIN:
                val = compute_bound(name, prefix, 1).value
                worst = max(worst, abs(val / target - 1.0))
                assert abs(val / target - 1.0) <= 1e-12, (name, n, lam1, val)
    dt = time.time() - t0
    assert dt < 1.0
    print(f"ACCEPTANCE 1 k=1 collapse: PASS (worst rel dev {worst:.2e}, {dt:.2f}s)")


def test_acceptance_02_chain_ordering():
    t0 = time.time()
    rng = np.random.default_rng(20240902)
    done = redraws = 0
    while done < 10_000:
        vals, n = _weyl_prefix(rng)
        prefix = SpectrumPrefix(vals, n=n)
        if not compute_bound("yang1-laplacian", prefix).valid:
            redraws += 1
            continue
        rep = chain_compare(prefix, rel_slack=1e-10)
        assert rep.ordered, (vals, n, rep.violations)
        done += 1
    dt = time.time() - t0
    assert dt < 30.0
    print(f"ACCEPTANCE 2 chain ordering: PASS (10000 prefixes, {redraws} infeasible redraws, {dt:.1f}s)")


ACCEPTANCE_COUPLES = (
    ("const-power", (0.0,)),
    ("const-power", (2.0,)),
    ("linear-power", (1.0,)),
    ("equal-power", (2.0,)),
)


def test_acceptance_03_abstract_theorem_suite():
    t0 = time.time()
    rng = np.random.default_rng(20240903)
    checks = 0
    for trial in range(1000):
        d = int(rng.integers(2, 13))
        n = int(rng.integers(1, 4))
        triple = random_instance(d, n, seed=trial, ensemble="dense-gaussian")
        lam = triple.spectral.lam
        for k in admissible_ks(triple, min_gap_rel=1e-6):
            z = float(lam[k])
            for family, params in ACCEPTANCE_COUPLES:
                rep = verify_theorem(triple, k, FunctionCouple(family, z, params))
                assert rep.passed, (trial, d, n, k, family, params, rep.lhs, rep.rhs)
                assert rep.quad_coeff >= -1e-9 * (1.0 + abs(rep.rhs))
                checks += 1
    # the 2x2 equality instance reproduces LHS = RHS = 4 exactly
    A = np.diag([1.0, 2.0]).astype(complex)
    B = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    T = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    rep = verify_theorem(OperatorTriple(A, (B,), (T,)), 1, FunctionCouple("const-power", 2.0, (0.0,)))
    assert abs(rep.lhs - 4.0) <= 1e-14 and abs(rep.rhs - 4.0) <= 1e-14
    dt = time.time() - t0
    assert dt < 60.0
    print(f"ACCEPTANCE 3 abstract theorem suite: PASS ({checks} checks, 0 failures, {dt:.1f}s)")


def test_acceptance_04_moment_inequality():
    t0 = time.time()
    rng = np.random.default_rng(20240904)
    worst = np.inf
    for _ in range(10_000):
        d = int(rng.integers(2, 17))
        W = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        Q = (W @ W.conj().T) / d
        u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        u /= np.linalg.norm(u)
        q = int(rng.integers(0, 7))
        r = int(rng.integers(0, q + 1))
        margin = moment_inequality_check(Q, u, r, q)
        worst = min(worst, margin)
        assert margin >= -1e-10, (d, r, q, margin)
    dt = time.time() - t0
    assert dt < 30.0
    print(f"ACCEPTANCE 4 moment inequality: PASS (10000 instances, worst margin {worst:.2e}, {dt:.1f}s)")


def test_acceptance_05_exact_spectrum_margins():
    t0 = time.time()
    full = box_spectrum([1.0, 1.0], 50)
    names = registry_names(EUCLIDEAN, 1)
    worst = np.inf
    for k in range(1, 50):
        prefix = SpectrumPrefix(full.values[:k], n=2, l=1, problem=EUCLIDEAN)
        candidate = float(full.values[k])
        table = verify_margins(prefix, candidate, which=names)
        for name, valid, margin in zip(table.names, table.valid[0], table.margin[0]):
            assert valid, (k, name)
            worst = min(worst, margin)
            assert margin >= -1e-10, (k, name, margin)
    dt = time.time() - t0
    assert dt < 5.0
    print(f"ACCEPTANCE 5 unit-square margins: PASS (49 prefixes x {len(names)} bounds, min margin {worst:.3g}, {dt:.1f}s)")


def _oracle_constant(n, l, which):
    """Independent exact-rational evaluation of the Kohn constants by direct
    (q, r, s) enumeration."""
    total = Fraction(0)
    for q in range(1, l - 1):
        for r in range(1, l - q):
            m = l - q - r
            for s in range(0, m + 1):
                if s % 2 == 1:
                    total += Fraction(2**s * n * math.comb(m, s), (2 * n - 1) ** ((s + 1) // 2))
                elif (which == "c1" and s >= 2) or (which == "c2" and s >= 0):
                    total += Fraction(2**s * math.comb(m, s), (2 * n - 1) ** (s // 2))
    return float((2 if which == "c1" else 4) * total)


def test_acceptance_06_kohn_constants():
    for n in range(1, 9):
        assert bounds._kohn_c(n, 3) == 4.0
    for n in range(1, 9):
        for l in (5, 7, 9):
            assert bounds._kohn_c(n, l) == _oracle_constant(n, l, "c1"), (n, l)
        for l in (4, 6, 8):
            assert bounds._kohn_c(n, l) == _oracle_constant(n, l, "c2"), (n, l)
    print("ACCEPTANCE 6 Kohn constants: PASS (c1(n,3)=4 for n<=8; c1,c2 bit-exact vs oracle for l<=9)")


SHARPER_CLAIMS = (
    # (sharper name, looser name, problem, l choices)
    ("wucao-poly", "hp-poly", EUCLIDEAN, (1, 2, 3, 4, 5)),
    ("kohn-yang-l1", "niuzhang-l1", HEISENBERG, (1,)),
    ("kohn-chengyang-l2", "niuzhang-l2", HEISENBERG, (2,)),
    ("kohn-odd-l", "niuzhang-odd", HEISENBERG, (3, 5, 7)),
    ("kohn-even-l", "niuzhang-even", HEISENBERG, (4, 6, 8)),
    ("kohn-odd-l-homog", "kohn-odd-l", HEISENBERG, (3, 5, 7)),
)


def test_acceptance_07_sharper_than_orderings():
    t0 = time.time()
    rng = np.random.default_rng(20240907)
    counterexamples = []
    for sharper, looser, problem, l_choices in SHARPER_CLAIMS:
        done = 0
        while done < 1000:
            vals, n = _weyl_prefix(rng, max_len=12, n_max=4)
            l = int(l_choices[rng.integers(0, len(l_choices))])
            prefix = SpectrumPrefix(vals, n=n, l=l, problem=problem)
            a = compute_bound(sharper, prefix)
            if not a.valid:
                continue  # prefix not admissible for the sharper inequality
            b = compute_bound(looser, prefix)
            if not b.valid:
                continue
            done += 1
            if a.value > b.value * (1.0 + 1e-9):
                counterexamples.append(
                    {"claim": f"{sharper} <= {looser}", "values": vals.tolist(),
                     "n": n, "l": l, "sharper": a.value, "looser": b.value}
                )
    for ce in counterexamples:
        print("COUNTEREXAMPLE:", json.dumps(ce))
    assert not counterexamples, f"{len(counterexamples)} ordering violations (inputs printed above)"
    dt = time.time() - t0
    print(f"ACCEPTANCE 7 sharper-than orderings: PASS (6 claims x 1000 admissible prefixes, {dt:.1f}s)")


def test_acceptance_08_fd_convergence():
    t0 = time.time()
    # 1D spectra match the analytic stencil formula
    for N in (25, 50, 100):
        op = fd_laplacian([1.0], [N])
        w = np.linalg.eigvalsh(op.matrix.toarray())
        h = 1.0 / (N + 1)
        exact = np.sort((4.0 / h**2) * np.sin(np.arange(1, N + 1) * np.pi * h / 2.0) ** 2)
        assert np.max(np.abs(w / exact - 1.0)) <= 1e-10, N

    # 2D eigenvalues converge to the box values at second order
    exact = box_spectrum([1.0, 1.0], 5).values
    errs, hs = [], []
    for N in (10, 20, 40):
        op = fd_laplacian([1.0, 1.0], [N, N])
        w = np.linalg.eigvalsh(op.matrix.toarray())[:5]
        errs.append(np.abs(w - exact).sum())
        hs.append(1.0 / (N + 1))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2, slope

    # clamped beam smallest eigenvalue: Richardson-extrapolated value stable
    vals = {}
    for N in (40, 80, 160):
        op = fd_clamped_plate([1.0], [N])
        vals[N] = np.linalg.eigvalsh(op.matrix.toarray())[0]
    rich1 = (4 * vals[80] - vals[40]) / 3.0
    rich2 = (4 * vals[160] - vals[80]) / 3.0
    assert abs(rich2 - rich1) <= 1e-4 * abs(rich2), (rich1, rich2)
    dt = time.time() - t0
    assert dt < 120.0
    print(f"ACCEPTANCE 8 FD convergence: PASS (2D slope {slope:.3f}, beam extrapolation {rich2:.4f}, {dt:.1f}s)")


def _kohn_commutator_residual(N, frac=0.5):
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


def test_acceptance_09_kohn_structure(tmp_path):
    t0 = time.time()
    op = kohn_fd(1, (1.0, 1.0, 1.0), (12, 12, 12))
    for F in (op.x_field, op.y_field):
        d = F + F.T
        assert (np.abs(d.data).max() if d.nnz else 0.0) == 0.0
    assert op.symmetry_defect() == 0.0
    w = np.linalg.eigvalsh(op.matrix.toarray())
    assert w[0] >= -1e-10 * np.abs(op.matrix.data).max()

    r8 = _kohn_commutator_residual(8)
    r16 = _kohn_commutator_residual(16)
    assert r8 / r16 >= 3.0, (r8, r16)

    # CLI round trip: emit the 12^3 spectrum, verify the l=1 Kohn bound at
    # the default FD slack
    csv = tmp_path / "kohn12.csv"
    gen = subprocess.run(
        [sys.executable, "-m", "specgap", "spectrum", "fd", "--problem", "kohn",
         "--dims", "1,1,1", "--grid", "12,12,12", "--count", "30", "--out", str(csv)],
        capture_output=True,
        timeout=120,
    )
    assert gen.returncode == 0, gen.stderr
    ver = subprocess.run(
        [sys.executable, "-m", "specgap", "verify", "spectrum", "--eigs", str(csv),
         "--n", "1", "--l", "1", "--problem", "heisenberg-kohn", "--which", "kohn-yang-l1"],
        capture_output=True,
        timeout=120,
    )
    assert ver.returncode == 0, ver.stdout.decode() + ver.stderr.decode()
    summary = json.loads(ver.stdout.decode().strip().splitlines()[-1])
    assert summary["violations"] == 0
    dt = time.time() - t0
    assert dt < 300.0
    print(f"ACCEPTANCE 9 Kohn structure: PASS (commutator ratio {r8 / r16:.2f}, no margin violations, {dt:.1f}s)")


def test_acceptance_10_determinism(tmp_path):
    t0 = time.time()

    def run(argv):
        res = subprocess.run([sys.executable, "-m", "specgap", *argv], capture_output=True, timeout=120)
        assert res.returncode == 0, res.stderr.decode()
        return res.stdout

    # CSV generation repeats byte-identically
    spec_args = ["spectrum", "fd", "--problem", "laplacian", "--dims", "1,1",
                 "--grid", "15,15", "--count", "10"]
    assert run(spec_args) == run(spec_args)

    # bound tables repeat byte-identically
    csv = tmp_path / "e.csv"
    run(spec_args + ["--out", str(csv)])
    bound_args = ["bound", "--ineq", "all", "--eigs", str(csv), "--n", "2"]
    assert run(bound_args) == run(bound_args)

    # abstract verification repeats byte-identically, for any worker count
    base = ["verify", "abstract", "--trials", "24", "--dim", "8", "--nops", "2",
            "--couple", "equal-power:2", "--seed", "7"]
    w1a = run(base + ["--workers", "1"])
    w1b = run(base + ["--workers", "1"])
    w4a = run(base + ["--workers", "4"])
    w4b = run(base + ["--workers", "4"])
    assert w1a == w1b
    assert w4a == w4b
    assert w1a == w4a  # output independent of the worker count
    dt = time.time() - t0
    print(f"ACCEPTANCE 10 determinism: PASS (byte-identical reruns incl. --workers 4, {dt:.1f}s)")
