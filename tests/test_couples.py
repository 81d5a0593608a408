"""Couple evaluation and admissibility certification."""

import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgap import couples
from specgap.bounds import SpectrumPrefix, check_general_poly
from specgap.couples import (
    FunctionCouple,
    certify_on_samples,
    check_necessary_differentiable,
    parse_couple_spec,
)
from specgap.errors import InputError


def tabulated(lam, xs, fs, gs):
    return FunctionCouple("tabulated", lam, (), (np.asarray(xs), np.asarray(fs), np.asarray(gs)))


# ---------------------------------------------------------------------------
# evaluate: admissible_weights is the one source of f and g
# ---------------------------------------------------------------------------


def weights(couple, xs):
    return couples.admissible_weights(couple, np.array(xs, dtype=float))


def closed_form(couple, xs):
    """(lambda - x)^ef and (lambda - x)^eg of a power couple, in the test."""
    ef, eg = couple.power_exponents()
    u = couple.lam - np.asarray(xs, dtype=float)
    return u**ef, u**eg


def test_evaluate_const_power_alpha_zero():
    c = FunctionCouple("const-power", 10.0, (0.0,))
    (f,), (g,) = weights(c, [3.0])
    assert (f, g) == (1.0, 1.0)


def test_evaluate_equal_power():
    c = FunctionCouple("equal-power", 10.0, (2.0,))
    (f,), (g,) = weights(c, [4.0])
    assert (f, g) == (36.0, 36.0)


def test_evaluate_linear_power_half():
    c = FunctionCouple("linear-power", 1.0, (0.5,))
    (f,), (g,) = weights(c, [0.75])
    assert f == pytest.approx(0.25, rel=1e-15)
    assert g == pytest.approx(0.5, rel=1e-15)
    assert (f, g) == tuple(float(h[0]) for h in closed_form(c, [0.75]))


def test_evaluate_domain_error():
    c = FunctionCouple("equal-power", 1.0, (1.0,))
    with pytest.raises(InputError, match="evaluation points must lie in"):
        weights(c, [1.5])
    with pytest.raises(InputError, match="evaluation points must lie in"):
        weights(c, [0.0])


def test_tabulated_lookup():
    c = tabulated(1.0, [0.2, 0.8], [0.8, 0.2], [1.0, 1.0])
    (f,), (g,) = weights(c, [0.2])
    assert (f, g) == (0.8, 1.0)
    with pytest.raises(InputError, match="is not a tabulated sample point"):
        weights(c, [0.5])


def _scanned_lookup(table, xs):
    """The table lookup as one np.isclose scan of the table per point, the
    first match kept: the oracle of the sorted lookup."""
    tx, tf, tg = table
    idx = np.empty(xs.shape, dtype=int)
    for pos, x in np.ndenumerate(xs):
        hits = np.nonzero(np.isclose(tx, x, rtol=1e-12, atol=0.0))[0]
        if hits.size == 0:
            raise InputError(f"x = {x} is not a tabulated sample point")
        idx[pos] = hits[0]
    return tf[idx], tg[idx]


def _near_duplicate_table():
    """x in (0, 1) with exact repeats and neighbours 0.5e-12, 0.99e-12,
    1.01e-12 and 3e-12 relative to them, in shuffled order; f numbers the
    rows, so equal f means the same row."""
    rng = np.random.default_rng(31)
    base = rng.uniform(0.05, 0.95, 40)
    xs = np.concatenate([base, base[:10], base[:30] * (1 + 0.5e-12), base[5:15] * (1 - 0.99e-12),
                         base[10:20] * (1 + 1.01e-12), base[20:25] * (1 - 3e-12)])  # fmt: skip
    xs = xs[rng.permutation(xs.size)]
    return xs, np.arange(1.0, xs.size + 1), np.ones(xs.size), base


def test_sorted_lookup_matches_the_scan_on_near_duplicate_points():
    xs, fs, gs, base = _near_duplicate_table()
    table = (xs, fs, gs)
    # up to four rows within 1e-12 of a query: the lowest index wins
    queries = np.concatenate([xs, base * (1 + 0.9e-12), base * (1 - 0.9e-12)])
    assert queries.size == 185
    for shape in ((185,), (5, 37)):
        points = queries.reshape(shape)
        got, want = couples._lookup(table, points), _scanned_lookup(table, points)
        for a, b in zip(got, want):
            assert a.shape == b.shape == shape
            np.testing.assert_array_equal(a, b)


def test_sorted_lookup_refuses_the_first_missing_point_in_c_order():
    xs, fs, gs, base = _near_duplicate_table()
    points = np.array([[base[3], base[3] * (1 + 5e-12)], [base[7] * (1 - 5e-12), base[1]]])
    with pytest.raises(InputError) as scanned:
        _scanned_lookup((xs, fs, gs), points)
    with pytest.raises(InputError) as looked_up:
        couples._lookup((xs, fs, gs), points)
    assert str(looked_up.value) == str(scanned.value) == f"x = {points[0, 1]} is not a tabulated sample point"


def test_sorted_lookup_matches_the_scan_on_a_4096_row_table():
    rng = np.random.default_rng(4096)
    xs = rng.uniform(1e-6, 10.0, 4096)
    xs[::97] = xs[1::97]  # exact repeats: the lower row wins
    table = (xs, np.arange(1.0, 4097), rng.uniform(0.5, 2.0, 4096))
    points = xs[rng.permutation(4096)]
    for a, b in zip(couples._lookup(table, points), _scanned_lookup(table, points)):
        np.testing.assert_array_equal(a, b)


def test_tabulated_couple_refuses_rows_the_lookup_cannot_tell_apart():
    # f numbers the rows: every repeat and every neighbour within 1e-12 has
    # values of its own, which the lookup would never read
    xs, fs, gs, base = _near_duplicate_table()
    with pytest.raises(InputError, match="has two rows with different f, g"):
        tabulated(1.0, xs, fs, gs)
    # exact repeats with the same values, and neighbours 3e-12 apart with
    # their own, are taken
    xs = np.concatenate([base[:10], base[:10], base[:10] * (1 + 3e-12)])
    fs = np.concatenate([np.arange(1.0, 11), np.arange(1.0, 11), np.arange(11.0, 21)])
    couple = tabulated(1.0, xs, fs, np.ones(30))
    assert np.array_equal(couples._lookup(couple.table, xs)[0], fs)


def test_parameter_ranges_enforced():
    with pytest.raises(InputError):
        FunctionCouple("const-power", 1.0, (-0.5,))
    with pytest.raises(InputError):
        FunctionCouple("linear-power", 1.0, (0.25,))
    with pytest.raises(InputError):
        FunctionCouple("equal-power", 1.0, (2.5,))
    with pytest.raises(InputError):
        FunctionCouple("neg-power", 1.0, (-2.0, 1.0))  # alpha^2 > beta
    FunctionCouple("neg-power", 1.0, (-1.0, 1.0))  # boundary case is legal


# ---------------------------------------------------------------------------
# the power ranges, exactly: one inequality in one ratio
# ---------------------------------------------------------------------------

# f, g = u^ef, u^eg as each family declares them (u = lambda - x)
POWER_FORMS = {
    "const-power": lambda a: (Fraction(0), a),
    "linear-power": lambda b: (Fraction(1), b),
    "equal-power": lambda d: (d, d),
    "neg-power": lambda a, b: (a, b),
}
# ratios s in (0, 1): a uniform grid, and runs towards 0 and towards 1
RATIO_GRID = (
    [Fraction(j, 64) for j in range(1, 64)]
    + [Fraction(1, 2**m) for m in range(7, 31)]
    + [1 - Fraction(1, 2**m) for m in range(7, 41)]
)


def _Q(ef, eg, s):
    """Q(r) = A(r)^2 - (1 + r^(2ef-eg-1)) B(r), A(r) = (1 - r^ef)/(1 - r),
    B(r) = (1 - r^eg)/(1 - r), in exact rationals at r = s^m, with m the
    least integer that makes every power of r an integer power of s.  At
    two points whose distances to lambda are u and r u, the couple's
    pairwise condition reads u^(2ef-2) Q(r) <= 0."""
    m = math.lcm(ef.denominator, eg.denominator)

    def power(e):  # r^e
        return s ** int(e * m)

    r = power(1)
    A = (1 - power(ef)) / (1 - r)
    B = (1 - power(eg)) / (1 - r)
    return A**2 - (1 + power(2 * ef - eg - 1)) * B


def _Q_on_the_grid(family, params):
    params = tuple(Fraction(p) for p in params)
    ef, eg = POWER_FORMS[family](*params)
    return [_Q(ef, eg, s) for s in RATIO_GRID]


@pytest.mark.parametrize("family, params", [("equal-power", (2,)), ("linear-power", (Fraction(1, 2),))],
                         ids=["equal-power:2", "linear-power:1/2"])  # fmt: skip
def test_power_range_boundaries_where_q_vanishes(family, params):
    # the equality couples COND_TOL_REL exists for: Q is 0 for every ratio
    assert FunctionCouple(family, 1.0, params).power_exponents() == POWER_FORMS[family](*params)
    assert set(_Q_on_the_grid(family, params)) == {0}


F = Fraction
ADMITTED_POWERS = [
    ("const-power", (0,)), ("const-power", (F(1, 16),)), ("const-power", (1,)), ("const-power", (4,)),
    ("linear-power", (F(1, 2),)), ("linear-power", (F(9, 16),)), ("linear-power", (1,)), ("linear-power", (4,)),
    ("equal-power", (2,)), ("equal-power", (F(31, 16),)), ("equal-power", (1,)), ("equal-power", (F(1, 16),)),
    ("neg-power", (-1, 1)), ("neg-power", (F(-1, 16), 1)), ("neg-power", (-2, 4)), ("neg-power", (F(-1, 2), 2)),
    ("neg-power", (F(-3, 2), F(9, 4))),
]  # fmt: skip


def _ids(cases):
    return [f"{family}:{','.join(map(str, params))}" for family, params in cases]


@pytest.mark.parametrize("family, params", ADMITTED_POWERS, ids=_ids(ADMITTED_POWERS))
def test_power_ranges_keep_q_nonpositive_on_and_inside_their_boundaries(family, params):
    # on each boundary of each range and just inside it: the parser admits
    # the parameters, with the exponents of the test's forms, and Q <= 0
    spec = parse_couple_spec(f"{family}:{','.join(str(float(p)) for p in params)}@1")
    assert spec.bind(1.0).power_exponents() == POWER_FORMS[family](*params)
    assert max(_Q_on_the_grid(family, params)) <= 0


OUTSIDE_POWERS = [("const-power", (F(-1, 16),)), ("linear-power", (F(7, 16),)), ("equal-power", (F(33, 16),))]


@pytest.mark.parametrize("family, params", OUTSIDE_POWERS, ids=_ids(OUTSIDE_POWERS))
def test_power_ranges_are_sharp_at_alpha_0_beta_half_and_delta_2(family, params):
    # just outside: Q(1-) = ef^2 - 2 eg > 0, so Q > 0 near r = 1, and the
    # parser refuses the parameters.  The neg-power range alpha^2 <= beta is
    # sufficient, not sharp, and is not tested here.
    with pytest.raises(InputError, match=f"^{family} needs"):
        parse_couple_spec(f"{family}:{float(params[0])}@1")
    ef, eg = POWER_FORMS[family](*params)
    assert ef**2 - 2 * eg > 0
    assert max(_Q_on_the_grid(family, params)) > 0


# ---------------------------------------------------------------------------
# pairwise membership condition
# ---------------------------------------------------------------------------


def test_membership_const_power_passes():
    c = FunctionCouple("const-power", 1.0, (1.0,))
    rep = certify_on_samples(c, [0.2, 0.8])
    assert rep.passed
    # single pair: 0 + (1/(0.8*0.8) + 1/(0.2*0.2)) * (-1)
    assert rep.worst == pytest.approx(-26.5625, rel=1e-12)


def test_membership_power_family_at_a_tiny_lambda_passes():
    # f^2 and g (lambda - x) underflow to 0 near lambda = 1e-200; their ratio,
    # (lambda - x)^0 here, does not
    lam = 1e-200
    rep = certify_on_samples(FunctionCouple("linear-power", lam, (1.0,)), lam * np.array([0.1, 0.4, 0.7]))
    assert rep.passed
    assert rep.worst == pytest.approx(-1.0, rel=1e-12)


def test_membership_tabulated_fails_with_worst_pair_value_one():
    # f = lambda - x, g = 1: first term ((0.6)/(-0.6))^2 = 1, second term 0
    c = tabulated(1.0, [0.2, 0.8], [0.8, 0.2], [1.0, 1.0])
    rep = certify_on_samples(c, [0.2, 0.8])
    assert not rep.passed
    assert rep.worst == pytest.approx(1.0, rel=1e-12)
    assert rep.witness is not None
    assert sorted(rep.witness) == [0.2, 0.8]


def test_membership_equal_power_delta_two_passes_at_equality():
    c = FunctionCouple("equal-power", 1.0, (2.0,))
    rep = certify_on_samples(c, [0.1, 0.5, 0.9])
    assert rep.passed
    # delta = 2 attains equality: every pair value is zero up to round-off
    assert abs(rep.worst) <= 1e-12 * 10


def test_membership_domain_error():
    c = FunctionCouple("const-power", 1.0, (1.0,))
    with pytest.raises(InputError, match="evaluation points must lie in"):
        certify_on_samples(c, [0.2, 1.2])


def test_membership_refuses_more_samples_than_the_cap():
    c = FunctionCouple("const-power", 1.0, (1.0,))
    xs = np.linspace(0.1, 0.9, couples.MAX_MEMBERSHIP_SAMPLES + 1)
    with pytest.raises(InputError, match="samples exceed the cap of 4096"):
        certify_on_samples(c, xs)
    with pytest.raises(InputError, match="empty sample set"):
        certify_on_samples(c, [])


def test_membership_refuses_a_couple_that_underflows_to_zero():
    # g = (1 - x)^400 is 0 in floating point at x = 0.999: the pair values
    # would divide by it
    with pytest.raises(InputError, match="couple is not positive on the sample set"):
        certify_on_samples(FunctionCouple("const-power", 1.0, (400.0,)), [0.5, 0.999])


# each certificate on 4097 points in (0, 5), as samples and as a prefix read
# at z = 5; the child prints each refusal
CAP_REFUSALS = """
import numpy as np
from specgap.bounds import check_general_poly
from specgap.couples import FunctionCouple, certify_on_samples, check_necessary_differentiable
from specgap.operators import SpectrumPrefix
xs = np.linspace(1.0, 4.0, 4097)
couple = FunctionCouple("equal-power", 5.0, (2.0,))
calls = (lambda: certify_on_samples(couple, xs), lambda: check_necessary_differentiable(couple, xs),
         lambda: check_general_poly(SpectrumPrefix(xs, n=2), couple))
for call in calls:
    try:
        call()
    except ValueError as exc:
        print(exc)
"""


def test_every_certificate_refuses_more_samples_than_the_cap_before_allocating():
    # 4097 points make 8.4e6 pairs, about 1 GB of pair arrays; the peak RSS
    # is read in a parent process of its own, which starts small
    code = (
        "import resource, subprocess, sys\n"
        "proc = subprocess.run([sys.executable, '-c', sys.argv[1]])\n"
        "print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, CAP_REFUSALS], capture_output=True, text=True, timeout=120)
    *refusals, status = proc.stdout.splitlines()
    returncode, rss_kb = status.split()
    assert int(returncode) == 0 and refusals == ["4097 samples exceed the cap of 4096"] * 3, proc
    assert int(rss_kb) / 1024.0 < 200.0, rss_kb


def test_domain_test_refuses_nan_and_table_points_outside_lambda():
    c = FunctionCouple("const-power", 1.0, (1.0,))
    with pytest.raises(InputError, match=r"evaluation points must lie in \(0, 1.0\), got range \[nan, nan\]"):
        certify_on_samples(c, [0.2, float("nan")])
    with pytest.raises(InputError, match=r"evaluation points must lie in \(0, 1.0\), got range \[0.2, 1.5\]"):
        tabulated(1.0, [0.2, 1.5], [1.0, 1.0], [1.0, 1.0])


# four families, each off its boundary, so that no pair value is round-off
SCALE_FAMILIES = [("const-power", (1.5,)), ("linear-power", (1.0,)), ("equal-power", (1.5,)), ("neg-power", (-1.0, 2.0))]


@pytest.mark.parametrize("lam", [1e-200, 1.0, 1e200])
@pytest.mark.parametrize("family, params", SCALE_FAMILIES)
def test_power_couples_are_certified_in_units_of_their_lambda(family, params, lam):
    # the pair values and screen margins are homogeneous of degrees 2 ef - 2
    # and -2 in lambda; a value beyond the float range reads +-inf, and no
    # step warns (RuntimeWarnings are errors here)
    s = np.array([0.05, 0.3, 0.55, 0.9])
    ef = FunctionCouple(family, 1.0, params).power_exponents()[0]
    for check, degree in ((certify_on_samples, 2 * ef - 2), (check_necessary_differentiable, -2)):
        unit = check(FunctionCouple(family, 1.0, params), s)
        rep = check(FunctionCouple(family, lam, params), lam * s)
        assert rep.passed and unit.passed
        try:
            want = unit.worst * lam**degree  # 0 where lam**degree underflows
        except OverflowError:
            want = math.copysign(math.inf, unit.worst)
        assert rep.worst == pytest.approx(want, rel=1e-9), (check, rep.worst, want)


def test_certify_on_samples_single_point_vacuous():
    c = FunctionCouple("equal-power", 1.0, (2.0,))
    rep = certify_on_samples(c, [0.3])
    assert rep.passed and rep.n_checked == 0


def test_certify_on_samples_repeated_point_vacuous():
    # the one pair of a repeated point is skipped, not checked
    c = FunctionCouple("equal-power", 1.0, (2.0,))
    rep = certify_on_samples(c, [0.3, 0.3])
    assert rep.passed and rep.n_checked == 0 and rep.n_skipped == 1


def test_membership_close_pairs_skipped():
    c = FunctionCouple("equal-power", 1.0, (1.0,))
    rep = certify_on_samples(c, [0.3, 0.3 + 1e-16, 0.7])
    assert rep.n_skipped >= 1
    assert rep.passed


def test_membership_g_must_be_nonincreasing():
    c = tabulated(1.0, [0.2, 0.8], [1.0, 1.0], [1.0, 2.0])
    rep = certify_on_samples(c, [0.2, 0.8])
    assert not rep.g_nonincreasing
    assert not rep.passed


def test_membership_fails_a_pair_whose_value_and_tolerance_are_infinite():
    # df^2 overflows to +inf while (w_i + w_j) dg is 0: q = tol = +inf, and
    # q - tol is NaN, a failing pair; q <= tol alone would pass it
    c = tabulated(1.0, [0.2, 0.4], [1e154, 1.0], [1.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        rep = certify_on_samples(c, [0.2, 0.4])
    assert rep.g_nonincreasing and rep.n_checked == 1
    assert not rep.passed and rep.worst == np.inf and rep.witness == (0.2, 0.4)


def _block_candidates(n: int):
    """n seeded samples in (0, 1), repeated points among them once n is past
    about 10 (skipped pairs), and three couples: a power family, a table
    that fails, and a table with f = 1e200 at two points, whose squares
    overflow (inf - inf: NaN pair values)."""
    rng = np.random.default_rng(7)
    xs = np.round(rng.uniform(0.01, 0.99, n), 2)
    ux = np.unique(xs)
    fs, gs = rng.uniform(0.1, 3.0, ux.size), np.sort(rng.uniform(0.1, 3.0, ux.size))[::-1]
    huge = fs.copy()
    huge[[0, ux.size // 2]] = 1e200
    power = FunctionCouple("neg-power", 1.0, (-1.0, 1.0))
    return xs, [power, tabulated(1.0, ux, fs, gs), tabulated(1.0, ux, huge, gs)]


def _record_tables(monkeypatch) -> list:
    """The n of each read of the cached pair table, in call order."""
    tables, real_table = [], couples._pair_table
    monkeypatch.setattr(couples, "_pair_table", lambda size: tables.append(size) or real_table(size))
    return tables


@pytest.mark.parametrize("pair_block", [1, 120, 500])
def test_pairwise_report_does_not_depend_on_its_row_blocks(monkeypatch, pair_block):
    """The pairs are evaluated in blocks of whole rows (1, 3 and 12 rows of
    40 points here, one block from the cached table by default): the report,
    worst value, witness (the first largest violation in row order, a NaN
    before any number) and the counts of checked and skipped pairs, is the
    one-block report."""
    xs, candidates = _block_candidates(40)
    tables = _record_tables(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        whole = [certify_on_samples(c, xs) for c in candidates]
        monkeypatch.setattr(couples, "_PAIR_BLOCK", pair_block)
        blocked = [certify_on_samples(c, xs) for c in candidates]
    assert tables == [40] * 3
    assert whole[0].passed and whole[1].witness is not None and math.isnan(whole[2].worst)
    assert all(r.n_skipped > 0 for r in whole)
    assert [repr(r) for r in blocked] == [repr(r) for r in whole]


@pytest.mark.parametrize("n", [1, 2, 7, 64, 65, 512, 513])
def test_pair_table_and_row_blocks_give_one_report(monkeypatch, n):
    """A set of at most _PAIR_TABLE_MAX = 64 points whose rows one
    _PAIR_BLOCK holds whole reads its pairs from the cached table, any other
    set from blocks of whole rows (one block up to 512 points by default).
    Blocks of 1 row, of n - 1 rows (one pair short of the one-block limit)
    and the one block at the limit give the report of the default block."""
    assert couples._PAIR_TABLE_MAX == 64 and couples._PAIR_BLOCK == 2**18
    xs, candidates = _block_candidates(n)
    tables = _record_tables(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        whole = [certify_on_samples(c, xs) for c in candidates]
        assert tables == ([n] * 3 if n <= 64 else [])
        for block in (1, n * n - 1, n * n):
            monkeypatch.setattr(couples, "_PAIR_BLOCK", block)
            tables.clear()
            blocked = [certify_on_samples(c, xs) for c in candidates]
            assert tables == ([n] * 3 if n <= 64 and max(1, block // n) >= n else []), block
            assert [repr(r) for r in blocked] == [repr(r) for r in whole], block


def test_pair_table_is_read_only_row_major_and_made_once_per_n():
    i, j = couples._pair_table(7)
    assert couples._pair_table(7)[0] is i
    blocks = list(couples._row_blocks(7, 2))
    for got, want in zip((i, j), np.triu_indices(7, 1)):
        np.testing.assert_array_equal(got, want)
    for got, want in zip((i, j), (np.concatenate(part) for part in zip(*blocks))):
        np.testing.assert_array_equal(got, want)
    with pytest.raises(ValueError, match="read-only"):
        i[0] = 3
    with pytest.raises(ValueError, match="read-only"):
        j += 1
    np.testing.assert_array_equal(j, np.triu_indices(7, 1)[1])


def _nan_max(a, b):
    """The larger of a and b, NaN if either is (as np.maximum)."""
    return a if a != a or a >= b else b


def _definition(xs, lam, f, g, w, t):
    """The pairwise certificate by its definition, over the pairs i < j in
    row-major order: a pair at x_i, x_j closer than PAIR_SKIP_REL * lambda
    is skipped, any other has the value q = df^2 + (w_i + w_j) dg, the
    difference quotients of f and g taken over the abscissae t, and fails
    where q - tol > 0 or is NaN, tol = COND_TOL_REL (1 + max(|df^2|,
    |(w_i + w_j) dg|)).  The witness is the pair of the first largest
    violation (the first NaN before any number), worst the largest q (NaN if
    any is) and g must be nonincreasing in x up to COND_TOL_REL (1 + max g).
    Per point f, g, w = f^2 / (g (lambda - x)) and t are floats or Decimals.
    Returns the report and the largest |term| of the worst pair."""
    rel = type(f[0])(couples.COND_TOL_REL)
    high, scale, top, witness, checked, skipped = None, 0.0, None, None, 0, 0
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if not abs(xs[i] - xs[j]) >= couples.PAIR_SKIP_REL * lam:
                skipped += 1
                continue
            dt = t[i] - t[j]
            df, dg = (f[i] - f[j]) / dt, (g[i] - g[j]) / dt
            t1, t2 = df * df, (w[i] + w[j]) * dg
            q = t1 + t2
            violation = q - rel * (1 + _nan_max(abs(t1), abs(t2)))
            if high is None or q != q or (high == high and q > high):
                high, scale = q, _nan_max(abs(t1), abs(t2))
            if not violation <= 0 and (top is None or (top == top and (violation != violation or violation > top))):
                top, witness = violation, (float(xs[i]), float(xs[j]))
            checked += 1
    order = sorted(range(len(xs)), key=lambda k: xs[k])
    g_max = g[0] * 0
    for gk in g:
        g_max = _nan_max(g_max, abs(gk))
    g_ok = all(g[b] - g[a] <= rel * (1 + g_max) for a, b in zip(order, order[1:]))
    if not checked:
        return couples.MembershipReport(g_ok, "pairwise", -np.inf, None, 0, skipped, g_ok), 0.0
    passed = witness is None and g_ok
    return couples.MembershipReport(passed, "pairwise", float(high), witness, checked, skipped, g_ok), float(scale)


def _certificate_cases():
    """Seeded sample sets in (0, 1), in no order, with repeated points and
    points 1e-15 apart (skipped pairs), of 2 to 90 points."""
    rng = np.random.default_rng(30)
    cases = []
    for n in (2, 9, 40, 90):
        xs = rng.uniform(0.01, 0.99, n)
        xs[n // 2] = xs[0]
        if n > 2:
            xs[1] = xs[-1] + 1e-15
        cases.append(xs)
    return cases


def _table_candidates(xs):
    """Tables on the distinct points of xs: one from equal-power:1.5 that
    passes, one of random values that fails, and ones with f or g of 1e200
    (overflow to inf and NaN pair values) or 1e-200 at two points.  Points
    the lookup cannot tell apart (1e-15 apart) carry the values of the first,
    the only ones the lookup reads."""
    rng = np.random.default_rng(xs.size)
    tx = np.unique(xs)
    u = 1.0 - tx
    fs, gs = rng.uniform(0.1, 3.0, tx.size), np.sort(rng.uniform(0.1, 3.0, tx.size))[::-1]
    tables = [(u**1.5, u**1.5), (fs, gs)]
    for column, value in ((0, 1e200), (1, 1e200), (0, 1e-200), (1, 1e-200)):
        bad = [fs.copy(), gs.copy()]
        bad[column][[0, tx.size // 2]] = value
        tables.append(tuple(bad))
    return [tabulated(1.0, tx, *_scanned_lookup((tx, f, g), tx)) for f, g in tables]


@pytest.mark.parametrize("pair_block", [couples._PAIR_BLOCK, 1], ids=["default-blocks", "one-row-blocks"])
def test_certificate_of_a_table_is_its_pairwise_definition(monkeypatch, pair_block):
    """On tables the definition, evaluated in floats pair by pair, gives the
    certificate's report exactly, at the default block size (the pair table
    up to 64 points, one row block above) and in blocks of one row."""
    monkeypatch.setattr(couples, "_PAIR_BLOCK", pair_block)
    verdicts = set()
    for xs in _certificate_cases():
        for couple in _table_candidates(xs):
            f, g = (h.tolist() for h in _scanned_lookup(couple.table, xs))
            x = xs.tolist()
            w = [fk * fk / (gk * (1.0 - xk)) for fk, gk, xk in zip(f, g, x)]
            want, _ = _definition(x, 1.0, f, g, w, x)
            with np.errstate(over="ignore", invalid="ignore"):
                got = certify_on_samples(couple, xs)
            assert repr(got) == repr(want), (xs.size, couple.table)
            verdicts.add((got.passed, got.n_skipped > 0, math.isnan(got.worst)))
    assert {(True, True, False), (False, True, False), (False, True, True)} <= verdicts


def _decimal_definition(couple, xs):
    """The definition on a power couple, in 40-digit decimal arithmetic on the
    float points u = lambda - x: f, g = u^(ef, eg), w = u^(2 ef - eg - 1),
    and the quotients over t = -u."""
    import decimal

    with decimal.localcontext(decimal.Context(prec=40)):
        ef, eg = (decimal.Decimal(e) for e in couple.power_exponents())
        u = [decimal.Decimal(v) for v in (couple.lam - xs).tolist()]
        f, g, w = ([uk**e for uk in u] for e in (ef, eg, 2 * ef - eg - 1))
        return _definition(xs.tolist(), couple.lam, f, g, w, [-uk for uk in u])


# power couples inside their ranges, on and off the boundaries, and just
# outside them: (ef, eg) of alpha < 0, beta < 1/2, delta > 2, delta < 0 and
# alpha^2 > beta
INSIDE = [("const-power", (0.0,)), ("const-power", (1.5,)), ("linear-power", (0.5,)), ("linear-power", (2.0,)),
          ("equal-power", (2.0,)), ("equal-power", (0.7,)), ("neg-power", (-2.0, 4.0)), ("neg-power", (-1.0, 2.5))]
OUTSIDE = [(0.0, -0.01), (1.0, 0.49), (2.01, 2.01), (-0.01, -0.01), (-3.0, 4.0)]  # fmt: skip


@pytest.mark.parametrize("pair_block", [couples._PAIR_BLOCK, 1], ids=["default-blocks", "one-row-blocks"])
def test_certificate_of_a_power_couple_is_its_pairwise_definition(monkeypatch, pair_block):
    """On power couples inside and just outside their ranges, at lambda 1 and
    37.5, the definition in exact-enough arithmetic gives the certificate's
    verdict, witness and counts, and its worst value within 1e-12 of the
    worst pair's largest term (q is a difference of its terms, which is 0
    exactly for equal-power:2)."""
    monkeypatch.setattr(couples, "_PAIR_BLOCK", pair_block)
    verdicts = set()
    for lam in (1.0, 37.5):
        candidates = [FunctionCouple(family, lam, params) for family, params in INSIDE]
        candidates += [_PowerStub(lam, ef, eg) for ef, eg in OUTSIDE]
        for xs in _certificate_cases():
            xs = lam * xs
            for couple in candidates:
                want, scale = _decimal_definition(couple, xs)
                got = certify_on_samples(couple, xs)
                case = (couple.describe(), lam, xs.size)
                assert (got.passed, got.witness, got.n_checked, got.n_skipped, got.g_nonincreasing) == (
                    want.passed, want.witness, want.n_checked, want.n_skipped, want.g_nonincreasing), case
                error = 0.0 if got.worst == want.worst else abs(got.worst - want.worst)
                assert error <= 1e-12 * max(abs(want.worst), scale), case
                verdicts.add((got.passed, got.witness is None))
    assert verdicts == {(True, True), (False, False)}


def test_membership_order_independent():
    c = FunctionCouple("neg-power", 2.0, (-1.0, 1.5))
    xs = np.array([0.3, 1.1, 0.9, 1.7, 0.05])
    a = certify_on_samples(c, xs)
    b = certify_on_samples(c, xs[::-1])
    assert a.passed == b.passed
    assert a.worst == b.worst
    assert a.n_checked == b.n_checked


def test_membership_scaling_invariance():
    # multiplying f and g by positive constants keeps the verdict
    lam = 1.0
    xs = np.array([0.15, 0.4, 0.85])
    u = lam - xs
    for cf, cg in [(3.7, 0.2), (100.0, 100.0)]:
        good = tabulated(lam, xs, cf * u**1.5, cg * u**1.5)
        assert certify_on_samples(good, xs).passed  # equal-power delta=1.5, scaled
        bad = tabulated(lam, xs, cf * u, cg * np.ones_like(u))
        assert not certify_on_samples(bad, xs).passed


@settings(max_examples=60, deadline=None)
@given(
    delta=st.floats(min_value=0.05, max_value=2.0),
    lam=st.floats(min_value=0.1, max_value=100.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_membership_equal_power_family_property(delta, lam, seed):
    rng = np.random.default_rng(seed)
    xs = lam * rng.uniform(1e-4, 1.0 - 1e-4, size=rng.integers(2, 24))
    rep = certify_on_samples(FunctionCouple("equal-power", lam, (delta,)), xs)
    assert rep.passed


def test_membership_certified_families_randomized():
    # every certified family passes on random sample sets, many seeds
    rng = np.random.default_rng(20240917)
    trials = 10_000
    for _ in range(trials):
        lam = float(rng.uniform(0.2, 50.0))
        m = int(rng.integers(2, 65))
        xs = lam * rng.uniform(1e-5, 1.0 - 1e-5, size=m)
        family = rng.choice(["const-power", "linear-power", "equal-power", "neg-power"])
        if family == "const-power":
            params = (float(rng.uniform(0.0, 4.0)),)
        elif family == "linear-power":
            params = (float(rng.uniform(0.5, 4.0)),)
        elif family == "equal-power":
            params = (float(rng.uniform(0.01, 2.0)),)
        else:
            alpha = float(rng.uniform(-1.8, -0.05))
            params = (alpha, float(rng.uniform(max(1.0, alpha**2), 4.0)))
        rep = certify_on_samples(FunctionCouple(family, lam, params), xs)
        assert rep.passed, (family, params, lam, rep.worst, rep.witness)


def clustered_samples(lam, clusters=64, per=64, width=1e-9, seed=0):
    """clusters * per samples in (0, lam): tight clusters of width ~ width * lam
    around random centres, so that most close pairs sit 1e-11 lam apart."""
    rng = np.random.default_rng(seed)
    centres = lam * rng.uniform(1e-6, 1.0 - 1e-6, clusters)
    return (centres[:, None] + lam * width * rng.uniform(-1.0, 1.0, (clusters, per))).ravel()


@pytest.mark.parametrize(
    "family, params, lam",
    [
        ("equal-power", (2.0,), 1e-3),
        ("equal-power", (2.0,), 1e4),
        ("linear-power", (0.5,), 1e-3),
        ("linear-power", (0.5,), 1e4),
        ("neg-power", (-1.0, 1.0), 5.0),
        ("neg-power", (-2.0, 4.0), 5.0),
    ],
)
def test_membership_boundary_families_pass_on_clustered_samples(family, params, lam):
    # boundary parameters: delta = 2, beta = 1/2 and alpha^2 = beta; raw
    # difference quotients of close pairs refuse the first two
    xs = clustered_samples(lam)
    assert xs.size == couples.MAX_MEMBERSHIP_SAMPLES
    rep = certify_on_samples(FunctionCouple(family, lam, params), xs)
    assert rep.passed, (rep.worst, rep.witness)
    assert rep.n_skipped == 0


@pytest.mark.parametrize(
    "family, params, oracle",
    [
        # (f, g) quotients in x of (lambda - x)^e, exact on the float u = lambda - x
        ("equal-power", (2.0,), lambda u, v: (-(u + v), -(u + v))),
        ("linear-power", (0.5,), lambda u, v: (-np.ones_like(u), -1.0 / (np.sqrt(u) + np.sqrt(v)))),
        ("neg-power", (-1.0, 1.0), lambda u, v: (1.0 / (u * v), -np.ones_like(u))),
    ],
)
def test_power_quotients_match_closed_forms_at_every_separation(family, params, oracle):
    lam = 5.0
    xs = np.concatenate([clustered_samples(lam, clusters=8, per=16), lam * np.array([1e-6, 0.5, 1.0 - 1e-6])])
    i, j = np.triu_indices(xs.size, 1)
    u = lam - xs
    got = couples._power_quotients(FunctionCouple(family, lam, params).power_exponents(), u, i, j)
    for row, want in zip(got, oracle(u[i], u[j])):
        assert np.max(np.abs(row - want) / np.abs(want)) <= 1e-14


# ---------------------------------------------------------------------------
# differentiable necessary condition
# ---------------------------------------------------------------------------


def test_necessary_const_power():
    c = FunctionCouple("const-power", 1.0, (2.0,))
    rep = check_necessary_differentiable(c, [0.5])
    assert rep.passed
    # (ln f)' = 0, RHS = 2 alpha / (lam - x)^2 = 16
    assert rep.worst == pytest.approx(16.0, rel=1e-12)


def test_necessary_neg_power_strict_pass():
    c = FunctionCouple("neg-power", 1.0, (-1.0, 1.0))
    rep = check_necessary_differentiable(c, [0.5])
    assert rep.passed
    # LHS = (1/0.5)^2 = 4, RHS = (-2/0.5)(-1/0.5) = 8
    assert rep.worst == pytest.approx(4.0, rel=1e-12)


def test_necessary_tabulated_unsupported():
    c = tabulated(1.0, [0.2, 0.8], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(InputError, match="has no power form"):
        check_necessary_differentiable(c, [0.2])


class _PowerStub:
    """Power couple with unchecked exponents, for out-of-range diagnostics."""

    family = "stub-power"  # not tabulated: the pairwise check takes its power form

    def __init__(self, lam, ef, eg):
        self.lam = lam
        self._e = (ef, eg)

    def power_exponents(self):
        return self._e

    def describe(self):
        return f"stub-power:{self._e}"


def test_necessary_failure_implies_membership_failure_nearby():
    # just beyond the equal-power boundary delta = 2 the screen must fail,
    # and the pairwise condition must fail on pairs near the witness
    stub = _PowerStub(1.0, 3.0, 3.0)
    xs = [0.25, 0.5, 0.75]
    screen = check_necessary_differentiable(stub, xs)
    assert not screen.passed
    x0 = screen.witness[0]
    cluster = np.array([x0, x0 + 1e-5, x0 + 2e-5])
    rep = certify_on_samples(stub, cluster)
    assert not rep.passed


# ---------------------------------------------------------------------------
# spec strings
# ---------------------------------------------------------------------------


def test_parse_couple_spec_roundtrip():
    spec = parse_couple_spec("equal-power:2@10")
    c = spec.bind(spec.lam)
    assert c.family == "equal-power" and c.lam == 10.0 and c.params == (2.0,)

    spec = parse_couple_spec("neg-power:-1,1@5")
    c = spec.bind(spec.lam)
    assert c.params == (-1.0, 1.0) and c.lam == 5.0


def test_parse_couple_spec_without_lambda_binds_later():
    spec = parse_couple_spec("const-power:1")
    assert spec.lam is None
    c = spec.bind(3.0)
    assert c.lam == 3.0


def test_parse_couple_spec_tabulated_path():
    spec = parse_couple_spec("tabulated:table.csv@1")
    assert spec.table_path == "table.csv"


# each malformed spec and a fragment of the message that refuses it
MALFORMED_SPECS = {
    "foo:@": "bad lambda in couple spec",
    "equal-power:": "has no parameters",
    "equal-power:2@-1": "lambda must be positive",
    "equal-power:2@inf": "lambda must be positive",
    "const-power:0@nan": "lambda must be positive",
    "": "empty couple spec",
    "nofamily": "needs 'family:params'",
    "tabulated:@1": "tabulated spec needs a table path",
    "equal-power:two@1": "bad parameters in couple spec",
}


@pytest.mark.parametrize("bad", list(MALFORMED_SPECS))
def test_parse_couple_spec_malformed(bad):
    with pytest.raises(InputError, match=MALFORMED_SPECS[bad]):
        parse_couple_spec(bad)


@pytest.mark.parametrize("lam", [0.0, -1.0, float("inf"), float("nan")])
def test_function_couple_refuses_a_lambda_that_is_not_positive_and_finite(lam):
    with pytest.raises(InputError, match="lambda must be positive"):
        FunctionCouple("const-power", lam, (0.0,))


def test_parse_couple_spec_out_of_range_params_rejected():
    with pytest.raises(InputError):
        parse_couple_spec("equal-power:3@1")


_NEEDS = {
    "const-power": "one parameter alpha >= 0",
    "linear-power": "one parameter beta >= 1/2",
    "equal-power": "one parameter 0 < delta <= 2",
    "neg-power": "(alpha, beta) with alpha < 0, beta >= 1, alpha^2 <= beta",
}
# per family: a value out of range, a wrong parameter count and a NaN
REFUSED_PARAMS = [
    ("const-power", "-1"), ("const-power", "1,2"), ("const-power", "nan"),
    ("linear-power", "0.4"), ("linear-power", "1,1"),
    ("equal-power", "0"), ("equal-power", "2.5"), ("equal-power", "nan"),
    ("neg-power", "-1"), ("neg-power", "1,1"), ("neg-power", "-2,3"), ("neg-power", "-1,0.5"),
    ("neg-power", "-1,1,1"), ("neg-power", "nan,1"),
    # and each family at an infinite value, which a one-sided range test takes
    ("const-power", "inf"), ("linear-power", "inf"), ("equal-power", "-inf"), ("neg-power", "-1,inf"),
    ("neg-power", "-inf,inf"),
]  # fmt: skip


def _refusal(make, *args):
    with pytest.raises(InputError) as exc:
        make(*args)
    return str(exc.value)


@pytest.mark.parametrize("entry", ["spec", "couple"])
@pytest.mark.parametrize("family, text", REFUSED_PARAMS)
def test_power_parameters_are_refused_with_the_family_range(entry, family, text):
    params = tuple(float(p) for p in text.split(","))
    if entry == "spec":
        message = _refusal(parse_couple_spec, f"{family}:{text}@2")
    else:
        message = _refusal(FunctionCouple, family, 2, params)
    assert message == f"{family} needs {_NEEDS[family]}, got {params}"


def test_function_couple_checks_its_table():
    xs, fs, gs = [0.2, 0.8], [0.8, 0.2], [1.0, 1.0]
    assert _refusal(FunctionCouple, "tabulated", 1.0) == "tabulated couple requires a table of (x, f, g)"
    assert _refusal(FunctionCouple, "const-power", 1.0, (1.0,), (xs, fs, gs)) == (
        "only the tabulated family carries a table"
    )
    for table in (([], [], []), (xs, fs, [1.0])):
        assert _refusal(tabulated, 1.0, *table) == "table arrays must be nonempty and of equal length"
    for bad in ([0.8, 0.0], [0.8, -1.0]):
        assert _refusal(tabulated, 1.0, xs, bad, gs) == "tabulated f and g must be strictly positive"
        assert _refusal(tabulated, 1.0, xs, fs, bad) == "tabulated f and g must be strictly positive"


def test_admissible_weights_refuses_a_couple_that_fails_on_the_prefix():
    # a tabulated couple is a legal weight only where its certificate passes:
    # admissible_weights is the runtime check of check_general_poly and
    # verify_theorem
    couple = tabulated(1.0, [0.2, 0.8], [0.8, 0.2], [1.0, 1.0])
    refusal = r"couple tabulated\[2 pts\]@1 fails admissibility on the eigenvalue prefix \(worst pair value 1 at "
    with pytest.raises(InputError, match=refusal):
        couples.admissible_weights(couple, np.array([0.2, 0.8]))
    with pytest.raises(InputError, match=refusal):
        check_general_poly(SpectrumPrefix([0.2, 0.8], n=2), couple)
    f, g = couples.admissible_weights(FunctionCouple("equal-power", 1.0, (2.0,)), np.array([0.2, 0.8]))
    np.testing.assert_allclose((f, g), [[0.64, 0.04], [0.64, 0.04]], rtol=1e-15)


# every power family, inside and on the boundary of its parameter range
WEIGHT_FAMILIES = [*SCALE_FAMILIES, ("const-power", (0.0,)), ("linear-power", (0.5,)), ("equal-power", (2.0,)),
                   ("neg-power", (-2.0, 4.0))]  # fmt: skip


@pytest.mark.parametrize("family, params", WEIGHT_FAMILIES)
def test_admissible_weights_are_the_closed_forms_bit_for_bit(family, params):
    rng = np.random.default_rng(2027)
    for lam in (1e-3, 1.0, 37.5, 1e4):
        couple = FunctionCouple(family, lam, params)
        for size in (1, 2, 9, 64):
            xs = np.sort(lam * rng.uniform(1e-4, 1.0 - 1e-4, size))
            got, want = couples.admissible_weights(couple, xs), closed_form(couple, xs)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape == (size,)
                assert a.tobytes() == b.tobytes(), (family, params, lam, size)


def test_admissible_weights_refuses_with_the_texts_of_its_certificate():
    c = FunctionCouple("const-power", 1.0, (1.0,))
    outside = "evaluation points must lie in (0, 1.0), got range [0.2, 1.2]"
    over = np.linspace(0.1, 0.9, couples.MAX_MEMBERSHIP_SAMPLES + 1)
    for samples, refusal in (([0.2, 1.2], outside), (over, "4097 samples exceed the cap of 4096"),
                             ([], "empty sample set")):  # fmt: skip
        assert _refusal(couples.admissible_weights, c, np.array(samples)) == refusal
        assert _refusal(certify_on_samples, c, samples) == refusal
    failing = tabulated(1.0, [0.2, 0.8], [0.8, 0.2], [1.0, 1.0])
    assert _refusal(couples.admissible_weights, failing, np.array([0.2, 0.8])) == (
        "couple tabulated[2 pts]@1 fails admissibility on the eigenvalue prefix (worst pair value 1 at (0.2, 0.8))"
    )


def test_couples_outside_the_power_families_are_refused():
    known = "('const-power', 'linear-power', 'equal-power', 'neg-power', 'tabulated')"
    assert _refusal(FunctionCouple, "tabulated", 2, (1,)) == "tabulated couples carry a table, not parameters"
    assert _refusal(FunctionCouple, "cubic-power", 2, (1,)) == f"unknown couple family 'cubic-power'; known: {known}"
    assert _refusal(parse_couple_spec, "cubic-power:1@2") == f"unknown family 'cubic-power'; known: {known}"
