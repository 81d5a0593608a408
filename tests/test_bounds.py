"""Bound registry, solver kernels, constants, margins, orderings."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgap import bounds
from specgap.bounds import (
    CHAIN,
    EUCLIDEAN,
    HEISENBERG,
    REGISTRY,
    SpectrumPrefix,
    chain_compare,
    check_general_poly,
    compute_bound,
    registry_names,
    verify_margins,
)
from specgap.couples import FunctionCouple
from specgap.operators import box_spectrum, fd_spectrum
from specgap.errors import InputError

PI2 = math.pi**2


def euclid(values, n, l=1):
    return SpectrumPrefix(np.asarray(values, dtype=float), n=n, l=l, problem=EUCLIDEAN)


def kohn(values, n, l):
    return SpectrumPrefix(np.asarray(values, dtype=float), n=n, l=l, problem=HEISENBERG)


# ---------------------------------------------------------------------------
# SpectrumPrefix validation
# ---------------------------------------------------------------------------


def test_prefix_rejects_bad_input():
    with pytest.raises(InputError, match="prefix is empty"):
        SpectrumPrefix(np.array([]), n=2)
    with pytest.raises(InputError, match="must be nondecreasing"):
        SpectrumPrefix(np.array([1.0, 0.5]), n=2)
    with pytest.raises(InputError, match="finite and strictly positive"):
        SpectrumPrefix(np.array([-1.0, 2.0]), n=2)
    with pytest.raises(InputError, match="n must be a positive integer"):
        SpectrumPrefix(np.array([1.0]), n=0)
    with pytest.raises(InputError, match="unknown problem 'nope'"):
        SpectrumPrefix(np.array([1.0]), n=2, problem="nope")
    with pytest.raises(InputError, match="l must be a positive integer, got 0"):
        SpectrumPrefix(np.array([1.0]), n=2, l=0)
    with pytest.raises(InputError, match=f"prefix longer than {bounds.MAX_PREFIX_LEN} entries"):
        SpectrumPrefix(np.ones(bounds.MAX_PREFIX_LEN + 1), n=2)


# ---------------------------------------------------------------------------
# quadratic kernel
# ---------------------------------------------------------------------------


# the constant-C entries share the normal form  k z^2 - (2+C) S1 z + (1+C) S2,
# whose larger root is _larger_root(k, (2+C) S1, (1+C) S2)


def test_quadratic_trivial_roots():
    # k = 1, S1 = S2 = 1, C = 2
    root = bounds._larger_root(1.0, (2.0 + 2.0) * 1.0, (1.0 + 2.0) * 1.0)
    assert root == pytest.approx(3.0, rel=1e-15)


def test_quadratic_derived_root():
    # oracle: larger root of 2 z^2 - 12 z + 15 by the quadratic formula
    oracle = max(np.roots([2.0, -12.0, 15.0]))
    assert oracle == pytest.approx((12 + math.sqrt(24)) / 4, rel=1e-15)
    # k = 2, S1 = 3, S2 = 5, C = 2
    root = bounds._larger_root(2.0, (2.0 + 2.0) * 3.0, (1.0 + 2.0) * 5.0)
    assert root == pytest.approx(oracle, rel=1e-14)


def test_quadratic_equality_case():
    # k = 2, S1 = S2 = 2, C = 1
    root = bounds._larger_root(2.0, (2.0 + 1.0) * 2.0, (1.0 + 1.0) * 2.0)
    assert root == pytest.approx(2.0, rel=1e-14)


def test_quadratic_negative_discriminant():
    # k z^2 - (2+C) S1 z + (1+C) S2 with S2 huge has no real root
    assert np.isnan(bounds._larger_root(1.0, 1.0, 100.0))


# ---------------------------------------------------------------------------
# monotone kernel:  sum w_i / (z - lam_i) = target
# ---------------------------------------------------------------------------


def _whole(lam):
    """The one prefix made of all of lam, as the kernels take it."""
    return bounds._Prefixes(np.asarray(lam, dtype=float), [len(lam)])


def _monotone(lam, w, target):
    return bounds._monotone_roots(_whole(lam), np.asarray(w, dtype=float), np.array([target]))


def test_monotone_closed_form_inversion():
    root, iters, resid, _ = _monotone([1.0], [2.0], 1.0)
    assert root[0] == pytest.approx(3.0, rel=1e-12)
    assert resid[0] <= 1e-12 * 1.0 * 10
    assert iters[0] > 0


def test_monotone_single_term():
    root, _, _, _ = _monotone([1.0], [1.0], 0.5)
    assert root[0] == pytest.approx(3.0, rel=1e-12)


def test_monotone_two_terms_equal_weights():
    # sum 1/(z - lam) = 1 over lam = (1, 4):  z^2 - 7z + 9 = 0
    oracle = max(np.roots([1.0, -7.0, 9.0]))
    assert oracle == pytest.approx((7 + math.sqrt(13)) / 2, rel=1e-15)
    root, _, resid, _ = _monotone([1.0, 4.0], [1.0, 1.0], 1.0)
    assert root[0] == pytest.approx(oracle, rel=1e-12)


def test_monotone_sqrt_weights():
    # sum sqrt(lam)/(z - lam) = 1 over lam = (1, 4):  z^2 - 8z + 10 = 0
    oracle = max(np.roots([1.0, -8.0, 10.0]))
    root, _, _, _ = _monotone([1.0, 4.0], [1.0, 2.0], 1.0)
    assert root[0] == pytest.approx(oracle, rel=1e-12)


# ---------------------------------------------------------------------------
# largest-root kernel, degree 1:  sum d - c sqrt(sum sqrt(d) wa * sum sqrt(d) wb)
# ---------------------------------------------------------------------------


def _convex(lam, c, cap):
    ones = np.ones(len(lam))
    return bounds._convex_roots(_whole(lam), bounds._Mixed(1, c, ones, ones), np.array([cap]))


def test_largest_root_trivial():
    # H(z) = (z - 1) - 2 sqrt(z - 1)
    root, _, resid, _ = _convex([1.0], 2.0, 20.0)
    assert root[0] == pytest.approx(5.0, rel=1e-11)


def test_largest_root_one_term_chengyang():
    # (z - 1) - c sqrt(z - 1) <= 0 iff z <= 1 + c^2, c^2 = 8(n+2)/n^2, n = 2
    c = math.sqrt(8.0 * 4.0 / 4.0)
    root, _, _, _ = _convex([1.0], c, 30.0)
    assert root[0] == pytest.approx(9.0, rel=1e-11)


def test_largest_root_empty_feasible_set():
    # H(z) = z - lambda_k with lambda_k = 2: positive everywhere above 2
    _, _, _, valid = _convex([2.0], 0.0, 10.0)
    assert not valid[0]


# ---------------------------------------------------------------------------
# Kohn constants against an exact rational oracle
# ---------------------------------------------------------------------------


def _oracle_c(n, l, which):
    """Independent evaluation: enumerate (q, r, s) triples directly."""
    from fractions import Fraction

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


def test_c1_l3_special_case():
    for n in range(1, 9):
        assert bounds._kohn_c(n, 3) == 4.0


def test_c1_matches_oracle_to_the_bit():
    for n in (1, 2, 3, 7):
        for l in (5, 7, 9):
            assert bounds._kohn_c(n, l) == _oracle_c(n, l, "c1")


def test_c2_matches_oracle_to_the_bit():
    for n in (1, 2, 3, 7):
        for l in (4, 6, 8):
            assert bounds._kohn_c(n, l) == _oracle_c(n, l, "c2")


# ---------------------------------------------------------------------------
# compute_bound registry behaviour
# ---------------------------------------------------------------------------


def test_ppw_k1():
    res = compute_bound("ppw-laplacian", euclid([2 * PI2], 2), 1)
    assert res.value == pytest.approx(6 * PI2, rel=1e-15)
    assert res.method == "closed" and res.valid


def test_yang1_derived():
    res = compute_bound("yang1-laplacian", euclid([1.0, 2.0], 2), 2)
    assert res.value == pytest.approx((12 + math.sqrt(24)) / 4, rel=1e-14)
    assert res.value == pytest.approx(4.224744871, rel=1e-9)


def test_hp_hand_solved():
    res = compute_bound("hp-laplacian", euclid([1.0, 1.0], 2), 2)
    assert res.value == pytest.approx(3.0, rel=1e-12)
    assert res.residual <= 1e-12 * (2 * 2 / 4) * 10


def test_yang1_k1_collapse_any_n():
    for n in (1, 3, 10):
        res = compute_bound("yang1-laplacian", euclid([7.3], n), 1)
        assert res.value == pytest.approx((1 + 4.0 / n) * 7.3, rel=1e-13)


def test_kohn_odd_uses_c1():
    res = compute_bound("kohn-odd-l", kohn([1.0, 1.2, 1.5], 1, 3), 3)
    assert res.valid and res.value > 1.5


def test_inapplicable_descriptor():
    with pytest.raises(InputError, match="kohn-odd-l does not apply"):
        compute_bound("kohn-odd-l", kohn([1.0], 1, 4), 1)
    with pytest.raises(InputError, match="ppw-laplacian does not apply"):
        compute_bound("ppw-laplacian", euclid([1.0], 2, l=2), 1)
    with pytest.raises(InputError, match="ppw-laplacian does not apply"):
        compute_bound("ppw-laplacian", kohn([1.0], 2, 1), 1)
    with pytest.raises(InputError, match="unknown bound 'nonsense'"):
        compute_bound("nonsense", euclid([1.0], 2), 1)


def test_verify_only_has_no_bound():
    with pytest.raises(InputError, match="is verification-only"):
        compute_bound("cim-squared-poly", euclid([1.0], 2), 1)


def test_every_descriptor_computes_on_applicable_prefix():
    lam = [1.0, 1.3, 1.7, 2.2]
    cases = {
        (EUCLIDEAN, 1): euclid(lam, 3, 1),
        (EUCLIDEAN, 2): euclid(lam, 3, 2),
        (EUCLIDEAN, 3): euclid(lam, 3, 3),
        (HEISENBERG, 1): kohn(lam, 2, 1),
        (HEISENBERG, 2): kohn(lam, 2, 2),
        (HEISENBERG, 3): kohn(lam, 2, 3),
        (HEISENBERG, 4): kohn(lam, 2, 4),
    }
    seen = set()
    for (problem, l), prefix in cases.items():
        for name in registry_names(problem, l):
            if REGISTRY[name].form == "verify-only":
                continue
            res = compute_bound(name, prefix, len(lam))
            assert res.valid, (name, problem, l)
            assert res.value >= lam[-1] * (1 - 1e-12), (name, res.value)
            seen.add(name)
    assert seen == {n for n, d in REGISTRY.items() if d.form != "verify-only"}


def test_quadratic_collapse_matches_closed_forms_k1():
    # single eigenvalue: quadratic roots collapse to (1+C) lambda_1
    lam1 = 2.31
    res = compute_bound("kohn-yang-l2", kohn([lam1], 3, 2), 1)
    assert res.value == pytest.approx((1 + 4 * 4 / 9) * lam1, rel=1e-13)


# ---------------------------------------------------------------------------
# the l = 1 and l = 2 rows against their classical formulas, written out
# ---------------------------------------------------------------------------


def _yang_type_root(lam, C):
    """Larger root of sum (z - lam_i)^2 = C sum lam_i (z - lam_i)."""
    k, s1, s2 = lam.size, lam.sum(), (lam * lam).sum()
    return max(np.roots([k, -(2.0 + C) * s1, (1.0 + C) * s2]).real)


# name -> (problem, l, value of the classical bound from (lam, n))
CLASSICAL_VALUES = {
    "ppw-laplacian": (EUCLIDEAN, 1, lambda lam, n: lam[-1] + 4.0 / (n * lam.size) * lam.sum()),
    "ppw-clamped-sharp": (
        EUCLIDEAN, 2, lambda lam, n: lam[-1] + 8.0 * (n + 2) / (n * lam.size) ** 2 * np.sqrt(lam).sum() ** 2
    ),
    "yang1-laplacian": (EUCLIDEAN, 1, lambda lam, n: _yang_type_root(lam, 4.0 / n)),
    "kohn-yang-l1": (HEISENBERG, 1, lambda lam, n: _yang_type_root(lam, 2.0 / n)),
    "kohn-yang-l2": (HEISENBERG, 2, lambda lam, n: _yang_type_root(lam, 4.0 * (n + 1) / n**2)),
    "niuzhang-l1": (HEISENBERG, 1, lambda lam, n: lam[-1] + 2.0 / (n * lam.size) * lam.sum()),
    "niuzhang-l2": (
        HEISENBERG, 2, lambda lam, n: lam[-1] + 4.0 * (n + 1) / (n * lam.size) ** 2 * np.sqrt(lam).sum() ** 2
    ),
}  # fmt: skip


def _chengyang_H(lam, n, z):
    d = z - lam
    return d.sum() - math.sqrt(8.0 * (n + 2)) / n * np.sqrt(lam * d).sum()


def _kohn_chengyang_H(lam, n, z):
    d, root = z - lam, np.sqrt(lam)
    return (d * d).sum() - 2.0 * math.sqrt(n + 1.0) / n * math.sqrt((d * root).sum() * (d * d * root).sum())


# name -> (problem, l, H(lam, n, z)): admissible z have H <= 0, and the bound
# is the right end of that set.  For hp-type rows H = T - sum w_i/(z - lam_i).
CLASSICAL_FORMS = {
    "hp-laplacian": (EUCLIDEAN, 1, lambda lam, n, z: n * lam.size / 4.0 - (lam / (z - lam)).sum()),
    "hook-chenqian-clamped": (
        EUCLIDEAN,
        2,
        lambda lam, n, z: n * n * lam.size**2 / (8.0 * (n + 2) * np.sqrt(lam).sum())
        - (np.sqrt(lam) / (z - lam)).sum(),
    ),
    "hp-weak-clamped": (
        EUCLIDEAN, 2, lambda lam, n, z: n * n * lam.size / (8.0 * (n + 2)) - (lam / (z - lam)).sum()
    ),
    "chengyang-clamped": (EUCLIDEAN, 2, _chengyang_H),
    "kohn-chengyang-l2": (HEISENBERG, 2, _kohn_chengyang_H),
}  # fmt: skip


def _oracle_prefixes(problem, l):
    """(lambda_1 .. lambda_k, n): Dirichlet spectra of random boxes of
    dimension n (Euclidean) or 2n + 1 (Heisenberg), to the power l, cut at
    random k.  Every row is valid on them."""
    rng = np.random.default_rng([2010, l])
    for _ in range(40):
        n = int(rng.integers(1, 5 if problem == EUCLIDEAN else 4))
        dim = n if problem == EUCLIDEAN else 2 * n + 1
        spectrum = box_spectrum(rng.uniform(1.0, 2.0, dim), 60).values ** l
        yield spectrum[: int(rng.integers(1, 61))], n


# each l = 1 or l = 2 row and the general row it specialises
GENERAL_ROW = {
    "ppw-laplacian": "ppw-poly", "ppw-clamped-sharp": "ppw-poly", "hp-laplacian": "hp-poly",
    "hook-chenqian-clamped": "hp-poly", "hp-weak-clamped": "hp-weak-poly",
    "chengyang-clamped": "wucao-poly", "yang1-laplacian": "cim-yang-poly",
    "kohn-yang-l1": "kohn-yang-odd-l", "niuzhang-l1": "niuzhang-odd",
    "kohn-yang-l2": "kohn-yang-even-l", "niuzhang-l2": "niuzhang-even",
    "kohn-chengyang-l2": "kohn-even-l",
}  # fmt: skip


def test_specialised_rows_are_the_general_rows_at_their_l():
    assert set(CLASSICAL_VALUES) | set(CLASSICAL_FORMS) == set(GENERAL_ROW)
    for name, general in GENERAL_ROW.items():
        assert REGISTRY[name].recipe is REGISTRY[general].recipe, name
        assert REGISTRY[name].form == REGISTRY[general].form, name


@pytest.mark.parametrize("name", sorted(CLASSICAL_VALUES))
def test_specialised_closed_and_quadratic_rows_match_classical_values(name):
    problem, l, oracle = CLASSICAL_VALUES[name]
    for lam, n in _oracle_prefixes(problem, l):
        prefix = SpectrumPrefix(lam, n=n, l=l, problem=problem)
        res = compute_bound(name, prefix)
        assert res.valid
        assert res.value == pytest.approx(oracle(lam, n), rel=1e-12), (name, lam.size, n)


@pytest.mark.parametrize("name", sorted(CLASSICAL_FORMS))
def test_specialised_implicit_rows_are_sign_changes_of_classical_forms(name):
    problem, l, H = CLASSICAL_FORMS[name]
    for lam, n in _oracle_prefixes(problem, l):
        prefix = SpectrumPrefix(lam, n=n, l=l, problem=problem)
        res = compute_bound(name, prefix)
        assert res.valid, (name, lam.size, n)
        z = res.value
        assert H(lam, n, z * (1.0 - 1e-9)) <= 0.0 < H(lam, n, z * (1.0 + 1e-9)), (name, lam.size, n)


# ---------------------------------------------------------------------------
# chain comparison
# ---------------------------------------------------------------------------


def test_chain_k1_all_equal():
    rep = chain_compare(euclid([1.0], 2), 1)
    assert rep.ordered
    assert rep.values() == pytest.approx([3.0, 3.0, 3.0, 3.0], rel=1e-12)


def test_chain_equal_eigenvalues():
    rep = chain_compare(euclid([1.0, 1.0], 2), 2)
    assert rep.ordered
    assert rep.values() == pytest.approx([3.0, 3.0, 3.0, 3.0], rel=1e-12)


def test_chain_generic():
    rep = chain_compare(euclid([1.0, 2.0, 3.0], 3), 3)
    assert rep.ordered
    vals = rep.values()
    assert all(a <= b * (1 + 1e-10) for a, b in zip(vals, vals[1:]))


def test_chain_requires_l1_euclidean():
    with pytest.raises(InputError, match="chain comparison is defined for the l=1"):
        chain_compare(euclid([1.0], 2, l=2), 1)
    # and a k outside the prefix, which compute_bound refuses
    for k in (0, 2):
        with pytest.raises(InputError, match=f"k must satisfy 1 <= k <= 1, got {k}"):
            chain_compare(euclid([1.0], 2), k)


def test_chain_reports_each_pair_out_of_order(monkeypatch):
    # no registry spectrum breaks the order, so the bounds are replaced
    real = bounds.compute_bound
    order = dict(zip(CHAIN, [4.0, 3.0, 3.0, 2.0]))
    monkeypatch.setattr(
        bounds, "compute_bound", lambda name, prefix, k: dataclasses.replace(real(name, prefix, k), value=order[name])
    )
    rep = chain_compare(euclid([1.0], 2), 1)
    assert not rep.ordered
    assert rep.violations == [(CHAIN[0], CHAIN[1], 4.0, 3.0), (CHAIN[2], CHAIN[3], 3.0, 2.0)]


# ---------------------------------------------------------------------------
# margins
# ---------------------------------------------------------------------------


def test_margin_unit_square_k1_yang2():
    prefix = euclid([2 * PI2], 2)
    table = verify_margins(prefix, 5 * PI2, which=["yang2-laplacian"])
    assert table.margin[0, table.names.index("yang2-laplacian")] == pytest.approx(PI2, rel=1e-12)


def test_margin_zero_at_bound():
    prefix = euclid([1.0, 1.5], 2)
    b = compute_bound("ppw-laplacian", prefix, 2).value
    table = verify_margins(prefix, b, which=["ppw-laplacian"])
    assert table.margin.shape == (1, 1)
    assert table.margin[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_margin_negative_above_bound():
    prefix = euclid([1.0, 1.5], 2)
    b = compute_bound("ppw-laplacian", prefix, 2).value
    table = verify_margins(prefix, b + 1.0)
    assert table.margin[0, table.names.index("ppw-laplacian")] == pytest.approx(-1.0, abs=1e-12)


def test_margins_skip_inapplicable_with_notice():
    prefix = euclid([1.0, 1.5], 2)
    table = verify_margins(prefix, 2.0, which=["kohn-yang-l1"])
    assert table.valid.shape == (1, 1)
    assert "inapplicable" in table.notes[0][int(table.valid[0, 0])]
    assert not table.valid[0, 0]


def test_margin_candidate_below_prefix_rejected():
    with pytest.raises(InputError, match="is below lambda_k"):
        verify_margins(euclid([1.0, 2.0], 2), 1.5)
    with pytest.raises(InputError, match="need at least two eigenvalues to verify anything"):
        verify_margins(euclid([1.0], 2))


def _same_bits(a, b):
    """Equal bit for bit, every NaN counting as equal to every NaN."""
    a, b = (np.where(np.isnan(x), np.nan, x).view(np.int64) for x in (a, b))
    return np.array_equal(a, b)


@pytest.mark.parametrize(
    "problem, l", [(EUCLIDEAN, l) for l in (1, 2, 3)] + [(HEISENBERG, l) for l in (1, 2, 3, 4)]
)
def test_shared_margin_tables_equal_one_entry_tables(problem, l):
    if problem == EUCLIDEAN:
        prefix = euclid(box_spectrum((1.0, 1.37), 40).values ** l, 2, l=l)
    else:
        prefix = fd_spectrum("kohn", (1.0, 1.0, 1.0), (6, 6, 6), l, 40)[0]
    table = verify_margins(prefix)
    assert table.names == tuple(registry_names())
    for e, name in enumerate(table.names):
        alone = verify_margins(prefix, which=[name])
        assert alone.notes[0] == table.notes[e] and alone.squared[0] == table.squared[e], name
        assert np.array_equal(alone.valid[:, 0], table.valid[:, e]), name
        assert _same_bits(alone.margin[:, 0], table.margin[:, e]), name
        assert _same_bits(alone.bound[:, 0], table.bound[:, e]), name


def test_shared_monotone_tables_are_solved_once(monkeypatch):
    solved = []
    real = bounds._monotone_roots
    monkeypatch.setattr(bounds, "_monotone_roots", lambda *args: solved.append(1) or real(*args))
    full = box_spectrum((1.0, 1.37), 40).values
    # l = 1: hp-laplacian is hp-poly; l = 2: hook-chenqian-clamped is hp-poly and
    # hp-weak-clamped is hp-weak-poly
    for l, solves in ((1, 2), (2, 3)):
        solved.clear()
        verify_margins(euclid(full**l, 2, l=l))
        assert len(solved) == solves, l


# ---------------------------------------------------------------------------
# polyharmonic couple margin
# ---------------------------------------------------------------------------


def test_general_poly_f_g_one_hand_value():
    prefix = euclid([1.0], 2)
    couple = FunctionCouple("const-power", 3.0, (0.0,))
    assert check_general_poly(prefix, couple) == pytest.approx(0.0, abs=1e-12)


def test_general_poly_matches_cim_squared_margin():
    values = [1.0, 1.4, 2.3, 2.9]
    for l in (1, 2, 3):
        prefix = euclid(values, 3, l=l)
        z = 4.1
        couple = FunctionCouple("equal-power", z, (2.0,))
        via_couple = check_general_poly(prefix, couple)
        table = verify_margins(prefix, z, which=["cim-squared-poly"])
        assert table.margin.shape == (1, 1)
        via_registry = table.margin[0, 0]
        assert via_couple == pytest.approx(via_registry, rel=1e-12)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_general_poly_matches_cim_squared_margin_on_box_prefixes(l):
    # two implementations of one inequality: the couple margin at z = lambda_(k+1)
    # and the registry's equal-power (delta = 2) entry
    values = box_spectrum((1.0, 1.3), 121).values ** l
    for k in (5, 17, 40, 120):
        prefix, z = euclid(values[:k], 2, l=l), float(values[k])
        via_couple = check_general_poly(prefix, FunctionCouple("equal-power", z, (2.0,)))
        via_registry = verify_margins(prefix, z, which=["cim-squared-poly"]).margin[0, 0]
        assert via_couple == pytest.approx(via_registry, rel=1e-12), (k, via_couple, via_registry)


def test_general_poly_k1_closed_form():
    lam1, z, n, l = 2.0, 5.0, 3, 2
    prefix = euclid([lam1], n, l=l)
    couple = FunctionCouple("linear-power", z, (1.0,))
    f = z - lam1
    g = z - lam1
    lhs = f
    rhs = (2.0 / n) * math.sqrt(l * (2 * l + n - 2)) * math.sqrt(
        g * lam1 ** ((l - 1) / l) * (f**2 / (g * (z - lam1))) * lam1 ** (1 / l)
    )
    assert check_general_poly(prefix, couple) == pytest.approx(rhs - lhs, rel=1e-13)


def test_general_poly_validates_next_value():
    prefix = euclid([2.0], 2)
    couple = FunctionCouple("const-power", 1.5, (0.0,))
    with pytest.raises(InputError, match="must exceed lambda_k"):
        check_general_poly(prefix, couple)


# ---------------------------------------------------------------------------
# ordering and homogeneity properties
# ---------------------------------------------------------------------------


def _random_prefix(rng, max_len=12):
    k = int(rng.integers(1, max_len + 1))
    lam1 = float(rng.uniform(0.5, 3.0))
    ratios = rng.uniform(1.0, 1.4, size=k - 1)
    return lam1 * np.concatenate([[1.0], np.cumprod(ratios)])


def test_chain_ordering_random_sample():
    rng = np.random.default_rng(11)
    for _ in range(300):
        vals = np.sort(rng.uniform(0.1, 9.0, size=rng.integers(1, 21)))
        prefix = euclid(vals, int(rng.integers(1, 11)))
        assert chain_compare(prefix).ordered, vals


# kohn-odd-l, kohn-yang-odd-l and niuzhang-odd mix eigenvalue powers through
# the c1 bracket (lambda + lambda^{(l-2)/l}) and cannot scale linearly
HOMOGENEOUS = [
    n
    for n in REGISTRY
    if n not in ("kohn-odd-l", "kohn-yang-odd-l", "niuzhang-odd", "cim-squared-poly")
]


def test_homogeneity_of_homogeneous_descriptors():
    rng = np.random.default_rng(5)
    vals = _random_prefix(rng, 6)
    scale = 37.5
    for name in HOMOGENEOUS:
        desc = REGISTRY[name]
        l = 1 if desc.applies_l(1) else 2 if desc.applies_l(2) else 3 if desc.applies_l(3) else 4
        mk = euclid if desc.problem == EUCLIDEAN else kohn
        p1 = mk(vals, 2, l) if desc.problem == HEISENBERG else euclid(vals, 2, l)
        p2 = mk(scale * vals, 2, l) if desc.problem == HEISENBERG else euclid(scale * vals, 2, l)
        b1 = compute_bound(name, p1)
        b2 = compute_bound(name, p2)
        assert b1.valid and b2.valid, name
        tol = 1e-12 if b1.method in ("closed", "quadratic") else 1e-9
        assert b2.value == pytest.approx(scale * b1.value, rel=tol), name


def test_kohn_odd_l_is_inhomogeneous():
    vals = np.array([1.0, 1.3, 1.9])
    scale = 16.0
    b1 = compute_bound("kohn-odd-l", kohn(vals, 1, 3))
    b2 = compute_bound("kohn-odd-l", kohn(scale * vals, 1, 3))
    assert abs(b2.value - scale * b1.value) > 1e-6 * scale * b1.value


@pytest.mark.parametrize("size, seed", [(12, 26), (60, 27)])
def test_every_margin_bound_scales_with_the_spectrum_but_the_odd_l_c1_entries(size, seed):
    """bound(s lambda) = s bound(lambda) at every k, for the powers of 4
    s = 4^5 and 4^-7 (exact in binary), on every applicable (problem, n, l)
    of the registry; the three c1(n, l) entries at odd l >= 3 miss it by
    more than half their value."""
    vals = np.sort(np.random.default_rng(seed).uniform(1.0, 30.0, size))
    cases = [(EUCLIDEAN, 2, l) for l in (1, 2, 3, 4)] + [(EUCLIDEAN, 3, l) for l in (1, 2)]
    cases += [(HEISENBERG, n, l) for n in (1, 2) for l in range(1, 8)]
    inhomogeneous = set()
    for problem, n, l in cases:
        base = verify_margins(SpectrumPrefix(vals, n=n, l=l, problem=problem))
        for scale in (4.0**5, 4.0**-7):
            scaled = verify_margins(SpectrumPrefix(scale * vals, n=n, l=l, problem=problem))
            for e, name in enumerate(base.names):
                desc = REGISTRY[name]
                if not (desc.extracts_bound and desc.applicable(problem, l)):
                    continue
                assert np.array_equal(scaled.valid[:, e], base.valid[:, e]), (name, l, scale)
                ok = base.valid[:, e]
                rel = np.abs(scaled.bound[ok, e] / (scale * base.bound[ok, e]) - 1.0)
                if name in HOMOGENEOUS:
                    assert rel.max() <= 1e-13, (name, n, l, scale)
                else:
                    assert l % 2 == 1 and l >= 3 and rel.max() > 0.5, (name, n, l, scale)
                    inhomogeneous.add((name, l))
    odd_c1 = ("kohn-odd-l", "kohn-yang-odd-l", "niuzhang-odd")
    assert inhomogeneous == {(name, l) for name in odd_c1 for l in (3, 5, 7)}


def test_sharper_than_spot_checks():
    rng = np.random.default_rng(99)
    for _ in range(40):
        vals = _random_prefix(rng)
        k = len(vals)
        n = int(rng.integers(1, 5))
        for l in (1, 2, 3):
            wc = compute_bound("wucao-poly", euclid(vals, n, l), k)
            hp = compute_bound("hp-poly", euclid(vals, n, l), k)
            if wc.valid:
                assert wc.value <= hp.value * (1 + 1e-9)
        ky = compute_bound("kohn-yang-l1", kohn(vals, n, 1), k)
        nz = compute_bound("niuzhang-l1", kohn(vals, n, 1), k)
        if ky.valid:  # spread prefixes can be infeasible for the quadratic
            assert ky.value <= nz.value * (1 + 1e-9)
        ko = compute_bound("kohn-odd-l", kohn(vals, n, 3), k)
        kh = compute_bound("kohn-odd-l-homog", kohn(vals, n, 3), k)
        nzo = compute_bound("niuzhang-odd", kohn(vals, n, 3), k)
        if ko.valid:
            assert ko.value <= nzo.value * (1 + 1e-9)
        if kh.valid and ko.valid:
            assert kh.value <= ko.value * (1 + 1e-9)


def test_solver_diagnostics_recorded():
    res = compute_bound("chengyang-clamped", euclid([1.0, 1.2], 2, l=2), 2)
    assert res.valid and res.method == "implicit"
    assert res.iterations > 0
    assert res.residual >= 0.0


# ---------------------------------------------------------------------------
# ordered-sequence product inequality (internal predicate)
# ---------------------------------------------------------------------------


def chebyshev_sum_margin(A, B, C) -> float:
    """Margin of the ordered-sequence product inequality

        sum A_i^2 B_i * sum A_i C_i  <=  sum A_i^2 * sum A_i B_i C_i

    for A nonincreasing >= 0 and B, C nondecreasing >= 0."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    if not (A.size and A.size == B.size == C.size):
        raise InputError("A, B, C must be nonempty and of equal length")
    if np.any(A < 0) or np.any(B < 0) or np.any(C < 0):
        raise InputError("sequences must be nonnegative")
    if np.any(np.diff(A) > 0) or np.any(np.diff(B) < 0) or np.any(np.diff(C) < 0):
        raise InputError("need A nonincreasing and B, C nondecreasing")
    return float(np.sum(A**2) * np.sum(A * B * C) - np.sum(A**2 * B) * np.sum(A * C))


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=10),
            st.floats(min_value=0, max_value=10),
            st.floats(min_value=0, max_value=10),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_chebyshev_sum_margin_nonnegative(data):
    A = np.sort([row[0] for row in data])[::-1]
    B = np.sort([row[1] for row in data])
    C = np.sort([row[2] for row in data])
    margin = chebyshev_sum_margin(A, B, C)
    scale = max(1.0, float(np.sum(A**2) * np.sum(A * B * C)))
    assert margin >= -1e-12 * scale


def test_chebyshev_sum_margin_validates_ordering():
    with pytest.raises(InputError):
        chebyshev_sum_margin([1.0, 2.0], [1.0, 2.0], [1.0, 2.0])  # A increasing
