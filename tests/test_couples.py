"""Couple evaluation and admissibility certification."""

import math
import subprocess
import sys

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
# evaluate
# ---------------------------------------------------------------------------


def test_evaluate_const_power_alpha_zero():
    c = FunctionCouple("const-power", 10.0, (0.0,))
    (f,), (g,) = c.evaluate_batch([3.0])
    assert (f, g) == (1.0, 1.0)


def test_evaluate_equal_power():
    c = FunctionCouple("equal-power", 10.0, (2.0,))
    (f,), (g,) = c.evaluate_batch([4.0])
    assert (f, g) == (36.0, 36.0)


def test_evaluate_linear_power_half():
    c = FunctionCouple("linear-power", 1.0, (0.5,))
    (f,), (g,) = c.evaluate_batch([0.75])
    assert f == pytest.approx(0.25, rel=1e-15)
    assert g == pytest.approx(0.5, rel=1e-15)


def test_evaluate_domain_error():
    c = FunctionCouple("equal-power", 1.0, (1.0,))
    with pytest.raises(InputError, match="evaluation points must lie in"):
        c.evaluate_batch([1.5])
    with pytest.raises(InputError, match="evaluation points must lie in"):
        c.evaluate_batch([0.0])


def test_tabulated_lookup():
    c = tabulated(1.0, [0.2, 0.8], [0.8, 0.2], [1.0, 1.0])
    (f,), (g,) = c.evaluate_batch([0.2])
    assert (f, g) == (0.8, 1.0)
    with pytest.raises(InputError, match="is not a tabulated sample point"):
        c.evaluate_batch([0.5])


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


@pytest.mark.parametrize("pair_block", [1, 120, 500])
def test_pairwise_report_does_not_depend_on_its_row_blocks(monkeypatch, pair_block):
    """The pairs are evaluated in blocks of whole rows (1, 3 and 12 rows of
    40 points here, one block by default): the report, worst value, witness
    (the first largest violation in row order, a NaN before any number) and
    the counts of checked and skipped pairs, is the one-block report."""
    rng = np.random.default_rng(7)
    xs = np.round(rng.uniform(0.01, 0.99, 40), 2)  # repeated points: skipped pairs
    ux = np.unique(xs)
    fs, gs = rng.uniform(0.1, 3.0, ux.size), np.sort(rng.uniform(0.1, 3.0, ux.size))[::-1]
    infinite = fs.copy()
    infinite[[5, 20]] = np.inf  # inf - inf: NaN pair values
    power = FunctionCouple("neg-power", 1.0, (-1.0, 1.0))
    candidates = [power, tabulated(1.0, ux, fs, gs), tabulated(1.0, ux, infinite, gs)]
    with np.errstate(invalid="ignore"):
        whole = [certify_on_samples(c, xs) for c in candidates]
        monkeypatch.setattr(couples, "_PAIR_BLOCK", pair_block)
        blocked = [certify_on_samples(c, xs) for c in candidates]
    assert whole[0].passed and whole[1].witness is not None and math.isnan(whole[2].worst)
    assert all(r.n_skipped > 0 for r in whole)
    assert [repr(r) for r in blocked] == [repr(r) for r in whole]


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

    def evaluate_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        u = self.lam - xs
        return u ** self._e[0], u ** self._e[1]

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


def test_couples_outside_the_power_families_are_refused():
    known = "('const-power', 'linear-power', 'equal-power', 'neg-power', 'tabulated')"
    assert _refusal(FunctionCouple, "tabulated", 2, (1,)) == "tabulated couples carry a table, not parameters"
    assert _refusal(FunctionCouple, "cubic-power", 2, (1,)) == f"unknown couple family 'cubic-power'; known: {known}"
    assert _refusal(parse_couple_spec, "cubic-power:1@2") == f"unknown family 'cubic-power'; known: {known}"
