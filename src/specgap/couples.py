"""Weight couples (f, g) and their admissibility certification.

A couple is a pair of positive functions on the open interval (0, lambda).
It is admissible when, for every pair of points x != y,

    ((f(x)-f(y))/(x-y))^2
      + (f(x)^2/(g(x)(lambda-x)) + f(y)^2/(g(y)(lambda-y)))
        * (g(x)-g(y))/(x-y)                                    <= 0.

Admissibility makes the couple a legal weight in the commutator inequality
verified by :mod:`specgap.abstract` and in the polyharmonic margin check of
:mod:`specgap.bounds`, both read at z = couple.lam: the couple's lambda is the
point where the inequality is evaluated, and no z is passed beside it.  Four
parametric power families are admissible for the parameter ranges of
``_POWER_FAMILIES``, which declares each family once; a tabulated couple is
second class and can only ever be certified on the sample points it was given.

Both checks here are numerical certificates on finite samples, not proofs,
and both read their samples through one gate, ``_points``:
``certify_on_samples`` evaluates the displayed condition pairwise (a power
family's difference quotients in closed form, so that close pairs lose
nothing to cancellation), and ``check_necessary_differentiable`` screens
smooth families with the weaker pointwise condition
((ln f)')^2 <= -2/(lambda-x) * (ln g)'.  Both are homogeneous for a power
family, so they run exactly in the unit 2^m <= lambda < 2^(m+1) and scale
back what they report (+-inf beyond the float range).  The weights f and g
themselves come only from ``admissible_weights``, after the pairwise
certificate has passed on the points they are asked at.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError

TABULATED = "tabulated"

# family: parameter count, exponents (ef, eg) of f, g = (lambda-x)^(ef, eg),
# admissible range and the range as its refusal states it
_POWER_FAMILIES = {
    "const-power": (1, lambda a: (0.0, a), lambda a: a >= 0, "one parameter alpha >= 0"),
    "linear-power": (1, lambda b: (1.0, b), lambda b: b >= 0.5, "one parameter beta >= 1/2"),
    "equal-power": (1, lambda d: (d, d), lambda d: 0 < d <= 2, "one parameter 0 < delta <= 2"),
    "neg-power": (2, lambda a, b: (a, b), lambda a, b: a < 0 and b >= 1 and a**2 <= b,
                  "(alpha, beta) with alpha < 0, beta >= 1, alpha^2 <= beta"),
}  # fmt: skip

FAMILIES = (*_POWER_FAMILIES, TABULATED)

# Pairs closer than this (relative to lambda) make the difference quotients
# meaningless and are skipped; the condition is only stated for x != y.
PAIR_SKIP_REL = 1e-14

# The admissibility condition is a closed inequality; equality configurations
# (e.g. the equal-power family at delta = 2) must not fail from round-off.
COND_TOL_REL = 1e-12

# _points refuses more samples for every certificate, before any allocation:
# 8.4e6 pairs at this cap (`couple check --samples 4096`: 86 MB peak RSS,
# 1.0-1.2 s on 2 CPUs)
MAX_MEMBERSHIP_SAMPLES = 4096
# pairs the pairwise certificate evaluates at once, in blocks of whole rows
# (at least one row): it holds a few float arrays of this length
_PAIR_BLOCK = 2**18
# sets of at most this many points, in one block, read their pairs from a
# table kept per size: 0.7 MB for all 64 sizes
_PAIR_TABLE_MAX = 64


def _check_domain(lam: float, xs: np.ndarray) -> None:
    """Refuse any point of ``xs`` outside (0, lam), NaN included."""
    if not ((xs > 0) & (xs < lam)).all():
        raise InputError(f"evaluation points must lie in (0, {lam}), got range [{xs.min()}, {xs.max()}]")


def _lookup(table: tuple, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, g) of a (x, f, g) table at its own points ``xs``; no domain test.

    The point of x is the table's lowest-index tx with |tx - x| <= 1e-12 |x|
    (``np.isclose`` with rtol 1e-12, atol 0).  Those tx are a run of the
    table sorted by x, found by ``np.searchsorted`` within 2e-12 |x| of x and
    tested exactly, one position of the widest run at a time."""
    tx, tf, tg = table
    x = xs.ravel()
    order = tx.argsort(kind="stable")
    sorted_x = tx[order]
    tol = 1e-12 * abs(x)
    lo = sorted_x.searchsorted(x - 2 * tol, "left")
    hi = sorted_x.searchsorted(x + 2 * tol, "right")
    idx = np.full(x.shape, tx.size)
    for step in range(int((hi - lo).max(initial=0))):
        at = np.minimum(lo + step, tx.size - 1)
        hit = (lo + step < hi) & (abs(sorted_x[at] - x) <= tol)
        idx = np.where(hit, np.minimum(idx, order[at]), idx)
    missing = np.flatnonzero(idx == tx.size)
    if missing.size:
        raise InputError(f"x = {x[missing[0]]} is not a tabulated sample point")
    idx = idx.reshape(xs.shape)
    return tf[idx], tg[idx]


def _validate_params(family: str, params: tuple) -> None:
    if family == TABULATED:
        if params:
            raise InputError("tabulated couples carry a table, not parameters")
        return
    if family not in _POWER_FAMILIES:
        raise InputError(f"unknown couple family {family!r}; known: {FAMILIES}")
    count, _, admissible, needs = _POWER_FAMILIES[family]
    # inf would pass a one-sided range test; NaN fails every one
    if len(params) != count or not all(map(math.isfinite, params)) or not admissible(*params):
        raise InputError(f"{family} needs {needs}, got {params}")


@dataclass(frozen=True)
class FunctionCouple:
    """A candidate couple: family name, threshold lambda, parameters.

    For the tabulated family, ``table`` holds (x, f, g) arrays and evaluation
    is lookup-only.
    """

    family: str
    lam: float
    params: tuple = ()
    table: Optional[tuple] = None

    def __post_init__(self):
        if not 0 < self.lam < np.inf:
            raise InputError(f"lambda must be positive and finite, got {self.lam}")
        params = tuple(float(p) for p in self.params)
        _validate_params(self.family, params)
        object.__setattr__(self, "params", params)
        if self.family == TABULATED:
            if self.table is None:
                raise InputError("tabulated couple requires a table of (x, f, g)")
            xs, fs, gs = (np.asarray(a, dtype=float).ravel() for a in self.table)
            if not (xs.size and xs.size == fs.size == gs.size):
                raise InputError("table arrays must be nonempty and of equal length")
            _check_domain(self.lam, xs)
            bad = ~(np.isfinite(fs) & np.isfinite(gs))  # NaN would pass the positivity test
            if bad.any():
                i = bad.argmax()
                raise InputError(f"tabulated f and g must be finite, got f = {fs[i]}, g = {gs[i]} at x = {xs[i]}")
            if np.any(fs <= 0) or np.any(gs <= 0):
                raise InputError("tabulated f and g must be strictly positive")
            lf, lg = _lookup((xs, fs, gs), xs)
            shadowed = (lf != fs) | (lg != gs)  # rows the lookup never reads, with values of their own
            if shadowed.any():
                raise InputError(f"tabulated x = {xs[shadowed.argmax()]} has two rows with different f, g")
            for a in (xs, fs, gs):
                a.setflags(write=False)
            object.__setattr__(self, "table", (xs, fs, gs))
        elif self.table is not None:
            raise InputError("only the tabulated family carries a table")

    def power_exponents(self) -> tuple[float, float]:
        """Exponents (ef, eg) such that f,g = (lambda-x)^(ef,eg)."""
        if self.family not in _POWER_FAMILIES:
            raise InputError(f"family {self.family!r} has no power form")
        return _POWER_FAMILIES[self.family][1](*self.params)

    def describe(self) -> str:
        if self.family == TABULATED:
            return f"{TABULATED}[{self.table[0].size} pts]@{self.lam:g}"
        return f"{self.family}:{','.join(f'{p:g}' for p in self.params)}@{self.lam:g}"


def _weights(couple: FunctionCouple, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, g) at points ``xs`` already inside (0, lambda): a table's lookup,
    or u^ef, u^eg of u = lambda - x."""
    if couple.family == TABULATED:
        return _lookup(couple.table, xs)
    ef, eg = couple.power_exponents()
    u = couple.lam - xs
    return u**ef, u**eg


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of a certification run.

    ``worst`` is the largest pair value for the pairwise check (pass means
    every pair value is at or below its round-off tolerance) and the smallest
    margin for the screen (pass means every margin is nonnegative up to
    round-off); -inf when no pair was checked, +-inf beyond the float range.
    """

    passed: bool
    check: str
    worst: float
    witness: Optional[tuple]
    n_checked: int
    n_skipped: int = 0
    g_nonincreasing: bool = True


def _power_quotients(exponents: tuple, u: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Difference quotients (h(x_i) - h(x_j)) / (x_i - x_j) of h = f and h = g
    of a power family, f, g = u^exponents with u = lambda - x, as rows f and
    g, in closed form.

    With v the larger and s the smaller of u_i, u_j and r = (s - v) / v in
    (-1, 0), the quotient is -(s^e - v^e) / (s - v) =
    -v^(e-1) expm1(e log(1 + r)) / r.  The log is log1p(r) for close points
    and log(s / v) for distant ones, so the quotient is accurate to a few
    ulps at any separation; the raw quotient loses eps * h / |x_i - x_j| to
    cancellation.  Pairs that PAIR_SKIP_REL keeps have u_i != u_j, so r != 0.
    """
    e = np.array(exponents)[:, None]
    ui, uj = u[i], u[j]
    small, v = np.minimum(ui, uj), np.maximum(ui, uj)
    r = (small - v) / v
    log_ratio = np.where(r > -0.5, np.log1p(r), np.log(small / v))
    return -(v ** (e - 1.0)) * np.expm1(e * log_ratio) / r


def _points(couple, samples) -> np.ndarray:
    """The samples, flat: refused if none, above the cap or outside (0, lambda)."""
    xs = np.asarray(samples, dtype=float).ravel()
    if xs.size == 0:
        raise InputError("empty sample set")
    if xs.size > MAX_MEMBERSHIP_SAMPLES:
        raise InputError(f"{xs.size} samples exceed the cap of {MAX_MEMBERSHIP_SAMPLES}")
    _check_domain(couple.lam, xs)
    return xs


def _in_units(lam: float, xs: np.ndarray) -> tuple[int, np.ndarray]:
    """(m, (lam - xs) / 2^m), exactly, for the unit 2^m <= lam < 2^(m+1)."""
    m = math.frexp(lam)[1] - 1
    return m, np.ldexp(lam - xs, -m)


def _times_pow2(x: float, p: float) -> float:
    """x * 2^p, exact for integer p, and +-inf where it overflows."""
    try:
        return math.ldexp(x * 2.0 ** (p % 1), math.floor(p))
    except OverflowError:
        return math.copysign(math.inf, x)


@functools.cache
def _pair_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (i, j), i < j, of n points in row-major order, read-only and made
    once per n."""
    i, j = np.triu_indices(n, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _row_blocks(n: int, rows: int):
    """The (i, j), i < j, of n points in blocks of ``rows`` whole rows, in
    row-major order."""
    index = np.arange(n)
    for start in range(0, n, rows):
        i, j = np.nonzero(index[start : start + rows, None] < index)  # np.triu_indices, at a fifth of its cost
        if start:  # np.nonzero counts a later block's rows from 0
            i += start
        yield i, j


def _pairwise_report(couple, xs: np.ndarray) -> MembershipReport:
    """The pairwise certificate on gated points.  In the unit 2^m, g and the
    pair value q are 2^(-m eg) and 2^(-m (2 ef - 2)) times their values at
    x, and so is each tolerance; a table is read as given (m = 0)."""
    tabulated = couple.family == TABULATED
    if tabulated:  # the unit 1: no exponent scales anything
        m, (ef, eg), u = 0, (0.0, 0.0), couple.lam - xs
        fs, gs = _lookup(couple.table, xs)
    else:
        ef, eg = couple.power_exponents()
        m, u = _in_units(couple.lam, xs)
        fs, gs = u**ef, u**eg
    if (fs <= 0).any() or (gs <= 0).any():
        raise InputError("couple is not positive on the sample set")
    # each point's weight f^2 / (g u); a power family's as one power of u,
    # with no intermediate to overflow or underflow
    w = fs**2 / (gs * u) if tabulated else u ** (2 * ef - eg - 1)

    # g must be nonincreasing; check on the sorted samples.
    g_sorted = gs[xs.argsort(kind="stable")]
    g_tol = COND_TOL_REL * (_times_pow2(1.0, -m * eg) + float(abs(gs).max()))
    g_ok = bool((g_sorted[1:] - g_sorted[:-1] <= g_tol).all())

    degree = m * (2 * ef - 2)
    # the largest pair value so far (NaN once any is), and per failing block
    # of rows its first largest violation (or NaN) and that pair
    high, fails, n_checked, n_skipped = None, [], 0, 0
    rows = max(1, _PAIR_BLOCK // xs.size)
    one_table = rows >= xs.size and xs.size <= _PAIR_TABLE_MAX
    for i, j in [_pair_table(xs.size)] if one_table else _row_blocks(xs.size, rows):
        dx = xs[i] - xs[j]
        keep = abs(dx) >= PAIR_SKIP_REL * couple.lam
        if not keep.all():  # masked copies only when a pair is skipped
            n_skipped += int(np.count_nonzero(~keep))
            i, j, dx = i[keep], j[keep], dx[keep]
        if i.size == 0:
            continue
        if tabulated:  # no power form: raw quotients
            df, dg = (fs[i] - fs[j]) / dx, (gs[i] - gs[j]) / dx
        else:
            df, dg = _power_quotients((ef, eg), u, i, j)
        t1 = df**2
        t2 = (w[i] + w[j]) * dg
        q = t1 + t2
        violations = q - COND_TOL_REL * (_times_pow2(1.0, -degree) + np.maximum(abs(t1), abs(t2)))
        wv = violations.argmax()
        if not violations[wv] <= 0:  # a pair fails where q - tol > 0 or is NaN
            fails.append((violations[wv], (float(xs[i[wv]]), float(xs[j[wv]]))))
        top = q.max()
        high = top if high is None else np.maximum(high, top)
        n_checked += i.size

    if n_checked == 0:
        return MembershipReport(g_ok, "pairwise", -np.inf, None, 0, n_skipped, g_ok)
    # np.argmax over the blocks' own: the first largest violation (or NaN) of all pairs in row order
    witness = fails[int(np.argmax([top for top, _ in fails]))][1] if fails else None
    worst = _times_pow2(float(high), degree)
    return MembershipReport(not fails and g_ok, "pairwise", worst, witness, n_checked, n_skipped, g_ok)


def certify_on_samples(couple: FunctionCouple, samples) -> MembershipReport:
    """Certify the pairwise admissibility condition on a finite sample set.

    Pairs closer than PAIR_SKIP_REL * lambda are skipped, so a set with no
    two distinct points passes vacuously: the condition quantifies over
    x != y only.  The result is independent of sample order.
    """
    return _pairwise_report(couple, _points(couple, samples))


def admissible_weights(couple: FunctionCouple, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, g) at the eigenvalue prefix ``lam``, as weights of an inequality at
    z = couple.lam; InputError unless :func:`certify_on_samples` passes.  The
    certificate's gate is the only domain test, and this is the package's one
    source of weights: a table's values at its points, or (lambda - x)^ef and
    (lambda - x)^eg of a power family."""
    xs = np.asarray(lam, dtype=float)
    report = certify_on_samples(couple, xs)
    if not report.passed:
        raise InputError(
            f"couple {couple.describe()} fails admissibility on the eigenvalue prefix "
            f"(worst pair value {report.worst:g} at {report.witness})"
        )
    return _weights(couple, xs)


def check_necessary_differentiable(couple, samples) -> MembershipReport:
    """Screen a smooth power-family couple with the pointwise necessary
    condition ((ln f)')^2 <= -2/(lambda-x) * (ln g)'.

    A failure proves non-membership; a pass is only a screen.  Tabulated
    couples are rejected; the samples are read through ``_points``.
    """
    ef, eg = couple.power_exponents()
    xs = _points(couple, samples)
    m, u = _in_units(couple.lam, xs)  # both sides are 2^(2m) times their values at x
    lhs = (ef / u) ** 2
    rhs = 2.0 * eg / u**2
    margin = rhs - lhs
    tol = COND_TOL_REL * (_times_pow2(1.0, 2 * m) + np.abs(lhs) + np.abs(rhs))
    passed = bool(np.all(margin >= -tol))
    worst = _times_pow2(float(margin.min()), -2 * m)
    witness = None if passed else (float(xs[int(np.argmin(margin + tol))]),)
    return MembershipReport(passed, "differentiable", worst, witness, xs.size)


@dataclass(frozen=True)
class CoupleSpec:
    """Parsed form of the CLI couple string ``family:param[,param][@lambda]``.

    For the tabulated family the parameter slot is a CSV path whose rows are
    ``x,f,g``; the caller resolves it and passes the arrays to :meth:`bind`.
    """

    family: str
    params: tuple
    lam: Optional[float]
    table_path: Optional[str] = None

    def bind(self, lam: float, table=None) -> FunctionCouple:
        """The couple at threshold ``lam``; a tabulated spec needs its ``table``."""
        return FunctionCouple(self.family, lam, self.params, table)


def parse_couple_spec(text: str) -> CoupleSpec:
    """Parse ``family:param[,param][@lambda]``, e.g. ``equal-power:2@10``."""
    if not isinstance(text, str) or not text.strip():
        raise InputError(f"empty couple spec {text!r}")
    body, lam = text, None
    if "@" in text:
        body, lam_text = text.rsplit("@", 1)
        try:
            lam = float(lam_text)
        except ValueError as exc:
            raise InputError(f"bad lambda in couple spec {text!r}") from exc
        if not 0 < lam < np.inf:
            raise InputError(f"lambda must be positive and finite in couple spec {text!r}")
    if ":" not in body:
        raise InputError(f"couple spec {text!r} needs 'family:params'")
    family, param_text = body.split(":", 1)
    family = family.strip()
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}; known: {FAMILIES}")
    if family == TABULATED:
        if not param_text:
            raise InputError("tabulated spec needs a table path")
        return CoupleSpec(TABULATED, (), lam, table_path=param_text)
    try:
        params = tuple(float(p) for p in param_text.split(",") if p != "")
    except ValueError as exc:
        raise InputError(f"bad parameters in couple spec {text!r}") from exc
    if not params:
        raise InputError(f"couple spec {text!r} has no parameters")
    _validate_params(family, params)
    return CoupleSpec(family, params, lam)
