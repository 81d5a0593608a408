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

Both checks here are numerical certificates on finite samples, not proofs:
``check_membership`` evaluates the displayed condition pairwise (with the
difference quotients of a power family in closed form, so that close pairs
lose nothing to cancellation), and ``check_necessary_differentiable``
screens smooth families with the weaker pointwise condition
((ln f)')^2 <= -2/(lambda-x) * (ln g)'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError

CONST_POWER = "const-power"
LINEAR_POWER = "linear-power"
EQUAL_POWER = "equal-power"
NEG_POWER = "neg-power"
TABULATED = "tabulated"

# family: parameter count, exponents (ef, eg) of f, g = (lambda-x)^(ef, eg),
# admissible range and the range as its refusal states it
_POWER_FAMILIES = {
    CONST_POWER: (1, lambda a: (0.0, a), lambda a: a >= 0, "one parameter alpha >= 0"),
    LINEAR_POWER: (1, lambda b: (1.0, b), lambda b: b >= 0.5, "one parameter beta >= 1/2"),
    EQUAL_POWER: (1, lambda d: (d, d), lambda d: 0 < d <= 2, "one parameter 0 < delta <= 2"),
    NEG_POWER: (2, lambda a, b: (a, b), lambda a, b: a < 0 and b >= 1 and a**2 <= b,
                "(alpha, beta) with alpha < 0, beta >= 1, alpha^2 <= beta"),
}  # fmt: skip

FAMILIES = (*_POWER_FAMILIES, TABULATED)

# Pairs closer than this (relative to lambda) make the difference quotients
# meaningless and are skipped; the condition is only stated for x != y.
PAIR_SKIP_REL = 1e-14

# The admissibility condition is a closed inequality; equality configurations
# (e.g. the equal-power family at delta = 2) must not fail from round-off.
COND_TOL_REL = 1e-12

# check_membership holds a few float arrays per sample pair, about 8.4e6
# pairs at this cap; more samples are refused before anything is allocated.
MAX_MEMBERSHIP_SAMPLES = 4096


def _validate_params(family: str, params: tuple) -> None:
    if family == TABULATED:
        if params:
            raise InputError("tabulated couples carry a table, not parameters")
        return
    if family not in _POWER_FAMILIES:
        raise InputError(f"unknown couple family {family!r}; known: {FAMILIES}")
    count, _, admissible, needs = _POWER_FAMILIES[family]
    if len(params) != count or not admissible(*params):
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
        _validate_params(self.family, tuple(float(p) for p in self.params))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.family == TABULATED:
            if self.table is None:
                raise InputError("tabulated couple requires a table of (x, f, g)")
            xs, fs, gs = (np.asarray(a, dtype=float).ravel() for a in self.table)
            if not (xs.size and xs.size == fs.size == gs.size):
                raise InputError("table arrays must be nonempty and of equal length")
            if np.any(xs <= 0) or np.any(xs >= self.lam):
                raise InputError("table points must lie in (0, lambda)")
            if np.any(fs <= 0) or np.any(gs <= 0):
                raise InputError("tabulated f and g must be strictly positive")
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

    def evaluate_batch(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (f(x), g(x)); raises on points outside (0, lambda)."""
        xs = np.asarray(xs, dtype=float)
        if np.any(xs <= 0) or np.any(xs >= self.lam):
            raise InputError(
                f"evaluation points must lie in (0, {self.lam}), got range "
                f"[{xs.min() if xs.size else 'nan'}, {xs.max() if xs.size else 'nan'}]"
            )
        if self.family == TABULATED:
            tx, tf, tg = self.table
            idx = np.empty(xs.shape, dtype=int)
            for pos, x in np.ndenumerate(xs):
                hits = np.nonzero(np.isclose(tx, x, rtol=1e-12, atol=0.0))[0]
                if hits.size == 0:
                    raise InputError(f"x = {x} is not a tabulated sample point")
                idx[pos] = hits[0]
            return tf[idx], tg[idx]
        ef, eg = self.power_exponents()
        u = self.lam - xs
        return u**ef, u**eg

    def describe(self) -> str:
        if self.family == TABULATED:
            return f"{TABULATED}[{self.table[0].size} pts]@{self.lam:g}"
        return f"{self.family}:{','.join(f'{p:g}' for p in self.params)}@{self.lam:g}"


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of a certification run.

    ``worst`` is the largest pair value for the pairwise check (pass means
    every pair value is at or below its round-off tolerance) and the smallest
    margin for the differentiable screen (pass means every margin is
    nonnegative up to round-off).
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


def _pairwise_report(couple, xs: np.ndarray) -> MembershipReport:
    fs, gs = couple.evaluate_batch(xs)
    if np.any(fs <= 0) or np.any(gs <= 0):
        raise InputError("couple is not positive on the sample set")

    index = np.arange(xs.size)
    i, j = np.nonzero(index[:, None] < index)  # np.triu_indices(xs.size, 1), at a fifth of its cost
    dx = xs[i] - xs[j]
    keep = np.abs(dx) >= PAIR_SKIP_REL * couple.lam
    n_skipped = int(np.count_nonzero(~keep))
    i, j, dx = i[keep], j[keep], dx[keep]

    # g must be nonincreasing; check on the sorted samples.
    order = np.argsort(xs, kind="stable")
    g_sorted = gs[order]
    g_tol = COND_TOL_REL * (1.0 + float(np.max(np.abs(gs))))
    g_ok = bool(np.all(np.diff(g_sorted) <= g_tol))

    if i.size == 0:
        return MembershipReport(g_ok, "pairwise", -np.inf, None, 0, n_skipped, g_ok)

    u = couple.lam - xs
    if couple.family == TABULATED:  # no power form: raw quotients and ratio
        df, dg = (fs[i] - fs[j]) / dx, (gs[i] - gs[j]) / dx
        w = fs**2 / (gs * u)
    else:  # f^2 / (g u) as one power of u, with no intermediate to overflow or underflow
        ef, eg = couple.power_exponents()
        df, dg = _power_quotients((ef, eg), u, i, j)
        w = u ** (2 * ef - eg - 1)
    t1 = df**2
    t2 = (w[i] + w[j]) * dg
    q = t1 + t2
    tol = COND_TOL_REL * (1.0 + np.maximum(np.abs(t1), np.abs(t2)))

    violations = q - tol
    worst_idx = int(np.argmax(q))
    pairs_ok = bool(np.all(violations <= 0))
    passed = pairs_ok and g_ok
    witness = None
    if not pairs_ok:
        wv = int(np.argmax(violations))
        witness = (float(xs[i[wv]]), float(xs[j[wv]]))
    return MembershipReport(
        passed=passed,
        check="pairwise",
        worst=float(q[worst_idx]),
        witness=witness,
        n_checked=int(i.size),
        n_skipped=n_skipped,
        g_nonincreasing=g_ok,
    )


def check_membership(couple: FunctionCouple, samples) -> MembershipReport:
    """Certify the pairwise admissibility condition on a finite sample set.

    Requires at least two distinct samples in (0, lambda), and at most
    MAX_MEMBERSHIP_SAMPLES of them.  Pairs closer than PAIR_SKIP_REL * lambda
    are skipped.  The result is independent of sample order.
    """
    xs = np.asarray(samples, dtype=float).ravel()
    if xs.size > MAX_MEMBERSHIP_SAMPLES:
        raise InputError(f"{xs.size} samples exceed the cap of {MAX_MEMBERSHIP_SAMPLES}")
    if xs.size < 2 or xs.min() == xs.max():  # np.unique would import numpy.ma
        raise InputError("need at least 2 distinct sample points")
    return _pairwise_report(couple, xs)


def certify_on_samples(couple: FunctionCouple, samples) -> MembershipReport:
    """Like check_membership, but a sample set with no pair of distinct
    points (a single point, or one point repeated) passes vacuously: the
    pairwise condition quantifies over x != y only.

    Downstream verifiers use this for k = 1 prefixes.
    """
    xs = np.asarray(samples, dtype=float).ravel()
    if xs.size == 0:
        raise InputError("empty sample set")
    return _pairwise_report(couple, xs)


def admissible_weights(couple: FunctionCouple, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, g) at the eigenvalue prefix ``lam``, as weights of an inequality at
    z = couple.lam.

    Raises InputError unless the couple is certified admissible on ``lam``
    (:func:`certify_on_samples`).
    """
    report = certify_on_samples(couple, lam)
    if not report.passed:
        raise InputError(
            f"couple {couple.describe()} fails admissibility on the eigenvalue prefix "
            f"(worst pair value {report.worst:g} at {report.witness})"
        )
    return couple.evaluate_batch(lam)


def check_necessary_differentiable(couple, samples) -> MembershipReport:
    """Screen a smooth power-family couple with the pointwise necessary
    condition ((ln f)')^2 <= -2/(lambda-x) * (ln g)'.

    A failure proves non-membership; a pass is only a screen.  Tabulated
    couples are rejected.
    """
    ef, eg = couple.power_exponents()
    xs = np.asarray(samples, dtype=float).ravel()
    if xs.size == 0:
        raise InputError("empty sample set")
    if np.any(xs <= 0) or np.any(xs >= couple.lam):
        raise InputError("samples must lie in (0, lambda)")
    u = couple.lam - xs
    lhs = (ef / u) ** 2
    with np.errstate(over="ignore"):  # u**2 overflows only where the exact rhs underflows to 0
        rhs = 2.0 * eg / u**2
    margin = rhs - lhs
    tol = COND_TOL_REL * (1.0 + np.abs(lhs) + np.abs(rhs))
    ok = margin >= -tol
    passed = bool(np.all(ok))
    worst_idx = int(np.argmin(margin))
    witness = None if passed else (float(xs[int(np.argmin(margin + tol))]),)
    return MembershipReport(
        passed=passed,
        check="differentiable",
        worst=float(margin[worst_idx]),
        witness=witness,
        n_checked=int(xs.size),
    )


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
