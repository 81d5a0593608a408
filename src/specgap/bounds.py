"""Catalogue of universal upper bounds on the next eigenvalue.

Every entry of the registry reads one published inequality as a constraint on
z = lambda_{k+1} given the prefix lambda_1 <= ... <= lambda_k, and reports the
supremum of admissible z.  Each solver form has one kernel, which takes the
spectrum and an array of prefix lengths k and returns value, iterations,
residual and validity for all of them at once; ``compute_bound`` (one k) and
``verify_margins`` (one candidate, or every k of a spectrum) are views of
these kernels.  Four solver forms cover the bound entries:

* closed        -- gap or average bounds, from prefix sums of lambda_i^r;
* quadratic     -- larger real root of  k z^2 - B z + C <= 0, with B and C
                   from prefix sums;
* monotone      -- root of  G(z) = sum_i w_i / (z - lambda_i) = T.  1/G is a
                   weighted harmonic mean of the z - lambda_i over
                   W = sum_i w_i, so psi = 1/G - 1/T is increasing and
                   concave, and W/(z - lambda_1) <= G <= W/(z - lambda_k)
                   puts the root in [max(lambda_k, lambda_1 + W/T),
                   lambda_k + W/T].  Newton on psi from the left end rises
                   monotonically to the root;
* largest-root  -- supremum of {z >= lambda_k (1 + LOWER_END_REL) : H(z) <= 0}
                   for a mixed form H, with d_i = z - lambda_i:
                   - degree 1 (Cheng-Yang, Wu-Cao):
                     H = sum d - c sqrt(sum sqrt(d) wa * sum sqrt(d) wb) is
                     linear minus a concave term, hence convex.  Newton from
                     a cap where H > 0 falls monotonically to the right end
                     of {H <= 0}; a tangent that stays positive down to the
                     lower end proves the set empty;
                   - degree 2 (Kohn):
                     H = sum d^2 - c sqrt(sum d wa * sum d^2 wb) <= 0 exactly
                     where the quartic P(t) = S^2 - c^2 X Y <= 0, in
                     t = z - lambda_k with S = sum d^2, X = sum d wa and
                     Y = sum d^2 wb.  Its coefficients come from seven
                     moments of e_i = lambda_k - lambda_i >= 0 and the
                     weights, and the answer is its largest real root,
                     polished by Newton.

Certificate: an implicit root r is reported valid only if the original G - T
or H changes sign across [r (1 - ROOT_TOL), r (1 + ROOT_TOL)].  Sums over the
gaps z - lambda_i run in ``_gap_sums`` alone, in blocks of prefix lengths of at
most CHUNK_FLOATS floats, so memory stays bounded up to MAX_PREFIX_LEN.

One further entry is verify-only: it reports the slack of its inequality at a
candidate z instead of a bound.  Each entry is declared once, as one row of
the registry table holding its form and its recipe; only this module tells
the forms apart.

``verify_margins`` returns a ``MarginTable``: columns straight from the
kernels, one row per prefix length k and one column per entry, with one note
rule and one violation unit (z for a bound, z^2 for a slack) per entry.
Entries with the same recipe and cap entries give the same table, so each
such table is computed once per call.

Descriptor names double as the stable CLI vocabulary.  The registry spans the
Dirichlet Laplacian (l = 1), the clamped plate (l = 2), the general
polyharmonic family (any l), and the Kohn Laplacian on a Heisenberg box
(problem "heisenberg-kohn", powers l = 1, 2 and odd/even l >= 3, with the
combinatorial constants c1(n, l) and c2(n, l) evaluated in exact rational
arithmetic).

Twelve l = 1 and l = 2 rows are general rows at that l, and share their
recipe:

* ppw-laplacian, ppw-clamped-sharp          -- ppw-poly at l = 1, 2;
* hp-laplacian, hook-chenqian-clamped       -- hp-poly at l = 1, 2;
* hp-weak-clamped                           -- hp-weak-poly at l = 2;
* chengyang-clamped                         -- wucao-poly at l = 2 (with its
                                               own cap entries);
* yang1-laplacian                           -- cim-yang-poly at l = 1;
* kohn-yang-l1, niuzhang-l1                 -- kohn-yang-odd-l, niuzhang-odd
                                               at l = 1;
* kohn-yang-l2, niuzhang-l2, kohn-chengyang-l2
                                            -- kohn-yang-even-l, niuzhang-even,
                                               kohn-even-l at l = 2.

The Kohn ones rest on c1(n, 1) = c2(n, 2) = 0: the double sum defining both
constants is empty for l <= 2.

Every bound scales with the spectrum, bound(s lambda) = s bound(lambda),
except kohn-odd-l, kohn-yang-odd-l and niuzhang-odd at odd l >= 3, whose
c1(n, l) terms add two powers of lambda a factor lambda^(2/l) apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import couples as _couples
from .errors import InputError
from .operators import EUCLIDEAN, HEISENBERG, MAX_PREFIX_LEN, SpectrumPrefix

ROOT_TOL = 1e-12
MAX_CAP_DOUBLINGS = 60
MAX_NEWTON = 100
NEWTON_TOL = 1e-14  # a Newton step below NEWTON_TOL * z ends the iteration
LOWER_END_REL = 1e-9  # largest-root forms look at z >= lambda_k (1 + LOWER_END_REL)
CHUNK_FLOATS = 2**20  # entries of the largest (prefix lengths x eigenvalues) block
CHUNK_ROWS = 64  # prefix lengths per block, so that short prefixes pad little


@dataclass
class BoundResult:
    """A named upper bound for lambda_{k+1} with solver diagnostics."""

    name: str
    value: float
    method: str
    iterations: int
    residual: float
    valid: bool


# ---------------------------------------------------------------------------
# solver kernels: every prefix length at once
# ---------------------------------------------------------------------------


class _Prefixes:
    """The prefixes lambda_1 .. lambda_k of one spectrum, for every k in ``ks``."""

    def __init__(self, values, ks):
        self.ks = np.asarray(ks, dtype=np.intp)
        self.lam = np.asarray(values, dtype=float)[: int(self.ks.max())]
        self.k = self.ks.astype(float)
        self.last = self.lam[self.ks - 1]

    def cum(self, x: np.ndarray) -> np.ndarray:
        """sum_{i <= k} x_i for every k."""
        return np.cumsum(x)[self.ks - 1]

    def S(self, r: float) -> np.ndarray:
        """sum_{i <= k} lambda_i^r for every k."""
        return self.cum(self.lam**r)


def _gap_sums(lam: np.ndarray, ks: np.ndarray, z: np.ndarray, terms) -> np.ndarray:
    """Row t: sum_{i<k} w_i phi_t(d_i), d_i = z_k - lambda_i, for every k and the
    t-th pair (phi_t(d), w) that ``terms(d)`` yields (w None: unweighted), in
    blocks d of at most CHUNK_ROWS rows and CHUNK_FLOATS entries, 0 past k.
    A pair is summed before the next is asked for, so ``terms`` builds a later
    phi in place of an earlier one: two block arrays freed per block would
    make malloc hand them back to the system and fault them in again."""
    step = min(CHUNK_ROWS, max(1, CHUNK_FLOATS // int(ks.max(initial=1))))
    blocks = []
    for start in range(0, max(len(ks), 1), step):
        rows = slice(start, start + step)
        width = int(ks[rows].max(initial=0))
        d = z[rows, None] - lam[:width]
        d[np.arange(width) >= ks[rows, None]] = 0.0
        blocks.append([phi.sum(axis=1) if w is None else phi @ w[:width] for phi, w in terms(d)])
    return np.concatenate(blocks, axis=1)


def _larger_root(a, b, c) -> np.ndarray:
    """Larger real root of a z^2 - b z + c = 0 with a, b > 0, elementwise;
    NaN where there is no real root.

    Discriminants in [-1e-13 b^2, 0) are treated as round-off from an
    equality configuration and clamped to zero.
    """
    a, b, c = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, c)))
    disc = b * b - 4.0 * a * c
    disc = np.where((disc < 0.0) & (disc >= -1e-13 * b * b), 0.0, disc)
    with np.errstate(invalid="ignore"):
        return (b + np.sqrt(disc)) / (2.0 * a)


def _G(lam, ks, z, w, slope: bool = False):
    """G(z) = sum_{i<k} w_i / (z - lambda_i) for z > lambda_k, and with
    ``slope`` also -G'(z) = sum_{i<k} w_i / (z - lambda_i)^2."""

    def terms(d):
        inv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0.0)
        yield inv, w
        if slope:  # 1/d^2 in place of 1/d
            yield np.multiply(inv, inv, out=inv), w

    sums = _gap_sums(lam, ks, z, terms)
    return sums if slope else sums[0]


def _certify(f, lo, z):
    """(valid, |f(z)|) for a root z of f, where f <= 0 marks the admissible
    points: f <= 0 at max(lo, z (1 - ROOT_TOL)) and f > 0 at z (1 + ROOT_TOL)."""
    valid = (f(np.maximum(z * (1.0 - ROOT_TOL), lo)) <= 0.0) & (f(z * (1.0 + ROOT_TOL)) > 0.0)
    return valid, np.abs(f(z))


def _monotone_roots(p: _Prefixes, w: np.ndarray, target: np.ndarray):
    """Root of G(z) = target for every prefix length: Newton on
    psi = 1/G - 1/target from the left end of its bracket (module docstring),
    each step clipped to the bracket.  Returns (value, iterations, residual
    |G - target|, valid)."""
    lam, ks, last = p.lam, p.ks, p.last
    above = np.nextafter(last, np.inf)
    spread = p.cum(w) / target
    lo = np.maximum(above, lam[0] + spread)
    hi = np.maximum(last + spread, lo)
    z = lo.copy()
    iterations = np.zeros(len(ks), dtype=int)
    active = np.arange(len(ks))
    for _ in range(MAX_NEWTON):
        G, Q = _G(lam, ks[active], z[active], w, slope=True)
        step = G / Q * (G / target[active] - 1.0)  # -psi / psi'
        z[active] = np.clip(z[active] + step, lo[active], hi[active])
        iterations[active] += 1
        active = active[np.abs(step) > NEWTON_TOL * z[active]]
        if not active.size:
            break
    # G(lambda_k+) = +inf, so the left end need not go below lambda_k+
    valid, residual = _certify(lambda x: target - _G(lam, ks, x, w), above, z)
    return z, iterations, residual, valid


class _Mixed(NamedTuple):
    """A largest-root form H with d_i = z - lambda_i (module docstring):

    degree 1:  H = sum d   - c sqrt(sum sqrt(d) wa * sum sqrt(d) wb);
    degree 2:  H = sum d^2 - c sqrt(sum d wa       * sum d^2 wb).
    """

    degree: int
    c: float
    wa: np.ndarray
    wb: np.ndarray


def _H(form: _Mixed, lam, ks, z, slope: bool = False):
    """The original H of ``form`` at z >= lambda_k for every row; with ``slope`` also H' (degree 1)."""

    def terms(d):
        if form.degree == 2:
            d2 = d * d
            yield from ((d2, None), (d, form.wa), (d2, form.wb))
            return
        s = np.sqrt(d)
        yield from ((d, None), (s, form.wa), (s, form.wb))
        if slope:  # 1/(2 sqrt(d)) in place of sqrt(d), 0 where sqrt(d) is 0
            np.divide(0.5, s, out=s, where=s > 0.0)
            yield from ((s, form.wa), (s, form.wb))

    total, A, B, *dAB = _gap_sums(lam, ks, z, terms)
    g = np.sqrt(A * B)
    H = total - form.c * g
    return (H, ks - form.c * (dAB[0] * B + A * dAB[1]) / (2.0 * g)) if slope else H


def _convex_roots(p: _Prefixes, form: _Mixed, cap: np.ndarray):
    """Right end of {z >= lo : H(z) <= 0} for the convex degree-1 form, for
    every prefix length.  The cap doubles until H(cap) > 0; Newton from there
    falls monotonically to the root.  A row is empty once a tangent of H, a
    lower bound of the convex H, is positive on [lo, z]."""
    lam, ks = p.lam, p.ks
    lo = p.last * (1.0 + LOWER_END_REL)
    z = np.maximum(cap, 2.0 * lo)
    iterations = np.zeros(len(ks), dtype=int)
    H = _H(form, lam, ks, z)
    for _ in range(MAX_CAP_DOUBLINGS):
        low = np.nonzero(H <= 0.0)[0]
        if not low.size:
            break
        z[low] *= 2.0
        iterations[low] += 1
        H[low] = _H(form, lam, ks[low], z[low])
    capped = H > 0.0
    empty = np.zeros(len(ks), dtype=bool)
    active = np.nonzero(capped)[0]
    for _ in range(MAX_NEWTON):
        H, H1 = _H(form, lam, ks[active], z[active], slope=True)
        za = z[active]
        above = H > 0.0
        gone = above & ((H1 <= 0.0) | (H + H1 * (lo[active] - za) > 0.0))
        empty[active[gone]] = True
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(above & ~gone, H / H1, 0.0)
        z[active] = za - step
        iterations[active] += 1
        active = active[step > NEWTON_TOL * za]
        if not active.size:
            break
    valid, residual = _certify(lambda x: _H(form, lam, ks, x), lo, z)
    return z, iterations, residual, valid & capped & ~empty


def _quartic_roots(p: _Prefixes, form: _Mixed):
    """Largest real root z >= lo of the degree-2 form for every prefix
    length, through the quartic P(t) = S^2 - c^2 X Y in t = z - lambda_k
    (module docstring).  Eigenvalues of the companion matrices, in units of
    lambda_k, give the candidates; each is polished by Newton on P and kept
    only if H changes sign across it, largest candidate first."""
    lam, ks, last = p.lam, p.ks, p.last

    def moments(e):  # e_i = lambda_k - lambda_i >= 0
        e2 = e * e
        return (e, None), (e2, None), (e, form.wa), (e, form.wb), (e2, form.wb)

    m1, m2, a1, b1, b2 = _gap_sums(lam, ks, last, moments)
    k, a0, b0, c2 = p.k, p.cum(form.wa), p.cum(form.wb), form.c**2
    # S = k t^2 + 2 m1 t + m2,  X = a0 t + a1,  Y = b0 t^2 + 2 b1 t + b2
    coef = np.stack(
        [
            k * k,
            4.0 * k * m1 - c2 * a0 * b0,
            4.0 * m1 * m1 + 2.0 * k * m2 - c2 * (2.0 * a0 * b1 + a1 * b0),
            4.0 * m1 * m2 - c2 * (a0 * b2 + 2.0 * a1 * b1),
            m2 * m2 - c2 * a1 * b2,
        ],
        axis=1,
    )
    q = coef[:, 1:] / (coef[:, :1] * last[:, None] ** np.arange(1, 5))  # monic, in u = t / lambda_k
    companion = np.zeros((len(ks), 4, 4))
    companion[:, 0, :] = -q
    companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    roots = np.linalg.eigvals(companion)
    lo = last * (1.0 + LOWER_END_REL)
    # near-real roots at or (by round-off) just below lo; _certify decides
    near_real = np.abs(roots.imag) <= 1e-6 * np.abs(roots.real)
    above_lo = near_real & (roots.real >= LOWER_END_REL * (1.0 - 1e-6))
    candidates = -np.sort(-np.where(above_lo, roots.real, -np.inf), axis=1)  # largest first

    value, residual = np.full(len(ks), np.nan), np.full(len(ks), np.nan)
    iterations, valid = np.zeros(len(ks), dtype=int), np.zeros(len(ks), dtype=bool)
    for slot in range(4):
        rows = np.nonzero(~valid & np.isfinite(candidates[:, slot]))[0]
        if not rows.size:
            break
        u, active = candidates[rows, slot], np.arange(rows.size)
        for _ in range(MAX_NEWTON):
            ua, qa = u[active], q[rows[active]].T
            P = (((ua + qa[0]) * ua + qa[1]) * ua + qa[2]) * ua + qa[3]
            dP = ((4.0 * ua + 3.0 * qa[0]) * ua + 2.0 * qa[1]) * ua + qa[2]
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(dP != 0.0, P / dP, 0.0)
            u[active] = ua - step
            iterations[rows[active]] += 1
            active = active[np.abs(step) > NEWTON_TOL * np.abs(ua)]
            if not active.size:
                break
        z = last[rows] * (1.0 + u)
        ok, res = _certify(lambda x: _H(form, lam, ks[rows], x), lo[rows], z)
        value[rows[ok]], residual[rows[ok]], valid[rows[ok]] = z[ok], res[ok], True
    return value, iterations, residual, valid


# ---------------------------------------------------------------------------
# combinatorial constants of the Kohn bounds, exact rational evaluation
# ---------------------------------------------------------------------------


def _c_inner_sum(n: int, m: int, even_from: int) -> Fraction:
    """sum over s <= m of 2^s binom(m, s) / (2n-1)^(ceil(s/2)), with an extra
    factor n on odd s; the even part starts at s = even_from (0 or 2)."""
    total = Fraction(0)
    base = 2 * n - 1
    for s in range(1, m + 1, 2):
        total += Fraction(2**s * n * math.comb(m, s), base ** ((s + 1) // 2))
    for s in range(even_from, m + 1, 2):
        total += Fraction(2**s * math.comb(m, s), base ** (s // 2))
    return total


@lru_cache(maxsize=None)
def _kohn_c(n: int, l: int) -> float:
    """c1(n, l) for odd l, c2(n, l) for even l: the double sum over q, r >= 1
    with q + r < l of the inner sums at m = l - q - r, times 2 for odd l
    (even part from s = 2) and 4 for even l (from s = 0); c1(n, 3) = 4
    exactly.  For l <= 2 the double sum is empty, so 0: the Kohn recipes then
    give the l = 1 and l = 2 bounds."""
    if l == 3:
        return 4.0
    odd = l % 2 == 1
    total = Fraction(0)
    for q in range(1, l - 1):
        for r in range(1, l - q):
            total += _c_inner_sum(n, l - q - r, even_from=2 if odd else 0)
    return float((2 if odd else 4) * total)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _any_l(l: int) -> bool:
    return l >= 1


def _l_is(value: int) -> Callable[[int], bool]:
    return lambda l: l == value


def _odd_ge3(l: int) -> bool:
    return l >= 3 and l % 2 == 1


def _even_ge4(l: int) -> bool:
    return l >= 4 and l % 2 == 0


@dataclass(frozen=True)
class BoundDescriptor:
    """Registry entry: applicability plus the one recipe of its solver form.

    ``recipe(p, n, l)`` gets the prefixes ``p`` (every requested prefix
    length k at once) and returns what ``form``'s kernel needs, per k: the
    bound values (closed); (B, C) of k z^2 - B z + C <= 0 (quadratic);
    per-eigenvalue weights w and the targets T of sum w_i/(z - lambda_i) = T
    (monotone); the mixed form H as a ``_Mixed`` (largest-root).  A
    verify-only entry extracts no bound: its recipe returns a ``_Mixed``
    whose -H(z) is the slack of its inequality at z.  ``cap_names`` lists
    the closed-form entries whose doubled maximum starts the Newton descent
    of a degree-1 largest-root form.
    """

    name: str
    problem: str
    form: str
    applies_l: Callable[[int], bool]
    recipe: Callable
    cap_names: tuple = ()

    @property
    def extracts_bound(self) -> bool:
        """False for the verify-only entries, whose margin is an inequality
        slack in units of z^2 rather than bound - z."""
        return self.form != "verify-only"

    def applicable(self, problem: str, l: int) -> bool:
        return problem == self.problem and self.applies_l(l)


# --- closed forms -----------------------------------------------------------


def _yang2_laplacian(p, n, l):
    return (1.0 + 4.0 / n) * p.S(1) / p.k


def _ppw_clamped(p, n, l):
    return p.last + 8.0 * (n + 2) * p.S(1) / (n * n * p.k)


def _ppw_poly(p, n, l):
    coef = 4.0 * l * (2 * l + n - 2) / (n * n * p.k * p.k)
    return p.last + coef * p.S(1.0 / l) * p.S((l - 1.0) / l)


def _niuzhang_odd(p, n, l):
    c1 = _kohn_c(n, l)
    bracket = 2.0 * l * (n + l - 1) * p.S((l - 1.0) / l) + c1 * (p.S(1) + p.S((l - 2.0) / l))
    return p.last + p.S(1.0 / l) * bracket / (n * n * p.k * p.k)


def _niuzhang_even(p, n, l):
    c2 = _kohn_c(n, l)
    bracket = (2.0 * l * n + 4.0 * (l - 1) + c2) * p.S((l - 1.0) / l)
    return p.last + p.S(1.0 / l) * bracket / (n * n * p.k * p.k)


# --- quadratic forms:  sum (z-lam)^2 <= sum w_i (z-lam_i)  ------------------
# normal form k z^2 - B z + C <= 0 with B = 2 S1 + sum w_i,
# C = S2 + sum w_i lam_i; for constant-C inequalities w_i = C_const * lam_i.


def _quad_constant(p, C):
    return (2.0 + C) * p.S(1), (1.0 + C) * p.S(2)


def _cim_yang_poly(p, n, l):
    return _quad_constant(p, 4.0 * l * (2 * l + n - 2) / (n * n))


def _kohn_yang_odd(p, n, l):
    c1 = _kohn_c(n, l)
    lam = p.lam
    w = (2.0 * l * (n + l - 1) * lam + c1 * (lam ** ((l + 1.0) / l) + lam ** ((l - 1.0) / l))) / (n * n)
    return 2.0 * p.S(1) + p.cum(w), p.S(2) + p.cum(w * lam)


def _kohn_yang_even(p, n, l):
    return _quad_constant(p, (2.0 * l * n + 4.0 * (l - 1) + _kohn_c(n, l)) / (n * n))


# --- monotone forms:  sum w_i / (z - lam_i) = target  -----------------------


def _hileyeh_clamped(p, n, l):
    return p.lam**0.5, n * n * p.k**1.5 / (8.0 * (n + 2) * np.sqrt(p.S(1)))


def _hp_poly(p, n, l):
    return p.lam ** (1.0 / l), n * n * p.k * p.k / (4.0 * l * (2 * l + n - 2) * p.S((l - 1.0) / l))


def _hp_weak_poly(p, n, l):
    return p.lam**1.0, n * n * p.k / (4.0 * l * (2 * l + n - 2))


# --- largest-root forms -----------------------------------------------------


def _wucao_poly(p, n, l):
    return _Mixed(1, math.sqrt(4.0 * l * (n + 2 * l - 2)) / n, p.lam ** ((l - 1.0) / l), p.lam ** (1.0 / l))


def _kohn_form(p, n, l, bracket):
    """Kohn form: sum (z-lam)^2 <= (1/n) sqrt(sum (z-lam) lam^(1/l))
    * sqrt(sum (z-lam)^2 bracket_i)."""
    return _Mixed(2, 1.0 / n, p.lam ** (1.0 / l), bracket)


def _kohn_odd(p, n, l):
    lam, c1 = p.lam, _kohn_c(n, l)
    bracket = 2.0 * l * (n + l - 1) * lam ** ((l - 1.0) / l) + c1 * (lam + lam ** ((l - 2.0) / l))
    return _kohn_form(p, n, l, bracket)


def _kohn_even(p, n, l):
    return _kohn_form(p, n, l, (2.0 * l * n + 4.0 * (l - 1) + _kohn_c(n, l)) * p.lam ** ((l - 1.0) / l))


def _kohn_odd_homog(p, n, l):
    return _kohn_form(p, n, l, (2.0 * l * (n + l - 1) + _kohn_c(n, l)) * p.lam ** ((l - 1.0) / l))


# --- verify-only forms ------------------------------------------------------


def _cim_squared(p, n, l):
    """The squared-weight polyharmonic inequality
    sum (z-lam)^2 <= (2/n) sqrt(l(2l+n-2)) sqrt(sum (z-lam) lam^(1/l) * sum (z-lam)^2 lam^((l-1)/l)),
    in the square-root normal form of check_general_poly with f = g = (z - x)^2."""
    c = (2.0 / n) * math.sqrt(l * (2.0 * l + n - 2))
    return _Mixed(2, c, p.lam ** (1.0 / l), p.lam ** ((l - 1.0) / l))


# name, problem, form, l-rule, recipe, cap seeds of the degree-1 largest-root
# entries.  A row at l = 1 or 2 that specialises a general-l row shares its
# recipe (the Kohn ones through c1(n, 1) = c2(n, 2) = 0).
_TABLE = [
    ("ppw-laplacian", EUCLIDEAN, "closed", _l_is(1), _ppw_poly, ()),
    ("hp-laplacian", EUCLIDEAN, "monotone", _l_is(1), _hp_poly, ()),
    ("yang1-laplacian", EUCLIDEAN, "quadratic", _l_is(1), _cim_yang_poly, ()),
    ("yang2-laplacian", EUCLIDEAN, "closed", _l_is(1), _yang2_laplacian, ()),
    ("ppw-clamped", EUCLIDEAN, "closed", _l_is(2), _ppw_clamped, ()),
    ("ppw-clamped-sharp", EUCLIDEAN, "closed", _l_is(2), _ppw_poly, ()),
    ("hileyeh-clamped", EUCLIDEAN, "monotone", _l_is(2), _hileyeh_clamped, ()),
    ("hook-chenqian-clamped", EUCLIDEAN, "monotone", _l_is(2), _hp_poly, ()),
    ("hp-weak-clamped", EUCLIDEAN, "monotone", _l_is(2), _hp_weak_poly, ()),
    ("chengyang-clamped", EUCLIDEAN, "largest-root", _l_is(2), _wucao_poly,
     ("ppw-clamped", "ppw-clamped-sharp")),
    ("ppw-poly", EUCLIDEAN, "closed", _any_l, _ppw_poly, ()),
    ("hp-poly", EUCLIDEAN, "monotone", _any_l, _hp_poly, ()),
    ("hp-weak-poly", EUCLIDEAN, "monotone", _any_l, _hp_weak_poly, ()),
    ("wucao-poly", EUCLIDEAN, "largest-root", _any_l, _wucao_poly, ("ppw-poly",)),
    ("cim-yang-poly", EUCLIDEAN, "quadratic", _any_l, _cim_yang_poly, ()),
    ("cim-squared-poly", EUCLIDEAN, "verify-only", _any_l, _cim_squared, ()),
    ("kohn-yang-l1", HEISENBERG, "quadratic", _l_is(1), _kohn_yang_odd, ()),
    ("kohn-chengyang-l2", HEISENBERG, "largest-root", _l_is(2), _kohn_even, ()),
    ("kohn-yang-l2", HEISENBERG, "quadratic", _l_is(2), _kohn_yang_even, ()),
    ("kohn-odd-l", HEISENBERG, "largest-root", _odd_ge3, _kohn_odd, ()),
    ("kohn-even-l", HEISENBERG, "largest-root", _even_ge4, _kohn_even, ()),
    ("kohn-odd-l-homog", HEISENBERG, "largest-root", _odd_ge3, _kohn_odd_homog, ()),
    ("kohn-yang-odd-l", HEISENBERG, "quadratic", _odd_ge3, _kohn_yang_odd, ()),
    ("kohn-yang-even-l", HEISENBERG, "quadratic", _even_ge4, _kohn_yang_even, ()),
    ("niuzhang-l1", HEISENBERG, "closed", _l_is(1), _niuzhang_odd, ()),
    ("niuzhang-l2", HEISENBERG, "closed", _l_is(2), _niuzhang_even, ()),
    ("niuzhang-odd", HEISENBERG, "closed", _odd_ge3, _niuzhang_odd, ()),
    ("niuzhang-even", HEISENBERG, "closed", _even_ge4, _niuzhang_even, ()),
]

REGISTRY: dict[str, BoundDescriptor] = {row[0]: BoundDescriptor(*row) for row in _TABLE}

CHAIN = ("yang1-laplacian", "yang2-laplacian", "hp-laplacian", "ppw-laplacian")


def registry_names(problem: Optional[str] = None, l: Optional[int] = None) -> list[str]:
    """Registry names, optionally filtered by applicability."""
    names = []
    for name, desc in REGISTRY.items():
        if problem is not None and desc.problem != problem:
            continue
        if l is not None and not desc.applies_l(l):
            continue
        names.append(name)
    return names


def _descriptor(name: str) -> BoundDescriptor:
    try:
        return REGISTRY[name]
    except KeyError:
        raise InputError(f"unknown bound {name!r}; known: {sorted(REGISTRY)}") from None


def _check_applicable(desc: BoundDescriptor, prefix: SpectrumPrefix) -> None:
    if not desc.applicable(prefix.problem, prefix.l):
        raise InputError(
            f"{desc.name} does not apply to problem={prefix.problem!r}, l={prefix.l}"
        )


def _bound_table(desc: BoundDescriptor, prefix: SpectrumPrefix, ks, caps=None):
    """(value, iterations, residual, valid) of a bound-extracting entry for
    every prefix length in ``ks``.  ``caps`` seed a degree-1 largest-root
    form; by default they are twice the largest of its cap entries.  Invalid
    implicit rows report NaN value and residual and 0 iterations."""
    p = _Prefixes(prefix.values, ks)
    data = desc.recipe(p, prefix.n, prefix.l)
    none = np.zeros(len(p.ks), dtype=int)
    if desc.form == "closed":
        return data, none, np.zeros(len(p.ks)), np.ones(len(p.ks), dtype=bool)
    if desc.form == "quadratic":
        root = _larger_root(p.k, *data)
        real = ~np.isnan(root)
        return root, none, np.where(real, 0.0, np.nan), real & (root >= p.last * (1.0 - 1e-12))
    if desc.form == "monotone":
        value, iterations, residual, valid = _monotone_roots(p, *data)
    elif data.degree == 2:
        value, iterations, residual, valid = _quartic_roots(p, data)
    else:
        if caps is None:
            caps = 2.0 * np.max([_bound_table(REGISTRY[c], prefix, ks)[0] for c in desc.cap_names], axis=0)
        value, iterations, residual, valid = _convex_roots(p, data, caps)
    return (
        np.where(valid, value, np.nan),
        np.where(valid, iterations, 0),
        np.where(valid, residual, np.nan),
        valid,
    )


def compute_bound(name: str, prefix: SpectrumPrefix, k: Optional[int] = None) -> BoundResult:
    """The named upper bound for lambda_{k+1} from the first k prefix values.

    Reads the inequality as a constraint on z = lambda_{k+1} and returns the
    supremum of admissible z.  Solver failures (no real root, empty feasible
    set, an uncertified root) return valid=False rather than raising; bad
    input raises.
    """
    desc = _descriptor(name)
    _check_applicable(desc, prefix)
    if not desc.extracts_bound:
        raise InputError(
            f"{name} is verification-only; it does not extract a bound "
            "(evaluate its margin via verify_margins)"
        )
    k = len(prefix) if k is None else int(k)
    if not 1 <= k <= len(prefix):
        raise InputError(f"k must satisfy 1 <= k <= {len(prefix)}, got {k}")
    caps = None
    if desc.cap_names:  # one compute_bound call per cap entry
        caps = np.array([2.0 * max(compute_bound(c, prefix, k).value for c in desc.cap_names)])
    value, iterations, residual, valid = _bound_table(desc, prefix, [k], caps)
    implicit = desc.form in ("monotone", "largest-root")
    method = "implicit" if implicit and valid[0] else desc.form
    return BoundResult(name, float(value[0]), method, int(iterations[0]), float(residual[0]), bool(valid[0]))


# ---------------------------------------------------------------------------
# verification-mode margins
# ---------------------------------------------------------------------------


class MarginTable(NamedTuple):
    """Margins of the requested entries at every prefix length, as columns.

    Row j is the prefix length ks[j] with candidate z[j]; column e is the
    entry names[e].  ``margin``, ``bound`` and ``valid`` are (row x entry)
    arrays.  A bound-extracting entry has margin = bound - z, NaN where its
    bound is invalid; a verify-only entry has its inequality slack -H(z) as
    margin, in units of z^2 (``squared``), and a NaN bound; an inapplicable
    entry has NaN margin and bound and is never valid.  notes[e] is the
    pair (note of an invalid row, note of a valid row) of entry e.
    """

    ks: np.ndarray
    z: np.ndarray
    names: tuple
    margin: np.ndarray
    bound: np.ndarray
    valid: np.ndarray
    notes: tuple
    squared: np.ndarray

    def violations(self, rel_slack: float) -> np.ndarray:
        """(row x entry) flags: valid margins below -rel_slack times their
        unit, z for a bound and z^2 for a verify-only slack."""
        unit = np.where(self.squared, self.z[:, None] ** 2, self.z[:, None])
        return self.valid & (self.margin < -rel_slack * unit)


def verify_margins(prefix: SpectrumPrefix, candidate: Optional[float] = None, which=None) -> MarginTable:
    """Margins of every requested descriptor: bound - candidate, or the
    inequality slack of a verify-only entry.

    With a candidate, one row at z = candidate from the whole prefix
    (k = len(prefix)).  Without one, along the spectrum: at z = lambda_{k+1}
    from the first k values, one row for every k = 1 .. len(prefix) - 1.
    Entries follow ``which`` (default: the whole registry).  Inapplicable
    descriptors and invalid bounds are reported with a note, not an error.
    Entries that share a recipe and cap entries share one table, computed
    once."""
    if candidate is None:
        if len(prefix) < 2:
            raise InputError("need at least two eigenvalues to verify anything")
        ks, z = np.arange(1, len(prefix)), np.array(prefix.values[1:])
    else:
        lam_k = float(prefix.values[-1])
        if not candidate >= lam_k * (1.0 - 1e-12):
            raise InputError(f"candidate {candidate} is below lambda_k = {lam_k}")
        ks, z = np.array([len(prefix)]), np.array([float(candidate)])
    descs = [_descriptor(name) for name in (which if which is not None else registry_names())]
    shape = (len(ks), len(descs))
    margin, bound, valid = np.full(shape, np.nan), np.full(shape, np.nan), np.zeros(shape, dtype=bool)
    notes, tables = [], {}
    for e, desc in enumerate(descs):
        if not desc.applicable(prefix.problem, prefix.l):
            notes.append(("inapplicable: skipped",) * 2)
        elif not desc.extracts_bound:
            p = _Prefixes(prefix.values, ks)
            margin[:, e] = -_H(desc.recipe(p, prefix.n, prefix.l), p.lam, p.ks, z)
            valid[:, e] = True
            notes.append(("", "inequality slack (no bound form)"))
        else:
            key = (desc.recipe, desc.cap_names)
            if key not in tables:
                tables[key] = _bound_table(desc, prefix, ks)
            bound[:, e], _, _, valid[:, e] = tables[key]
            margin[:, e] = np.where(valid[:, e], bound[:, e] - z, np.nan)
            notes.append(("no admissible bound value", ""))
    squared = np.array([not desc.extracts_bound for desc in descs], dtype=bool)
    return MarginTable(ks, z, tuple(desc.name for desc in descs), margin, bound, valid, tuple(notes), squared)


@dataclass
class ChainReport:
    """The four Dirichlet-Laplacian bounds with their ordering verdict."""

    results: dict
    ordered: bool
    violations: list

    def values(self) -> list[float]:
        return [self.results[name].value for name in CHAIN]


def chain_compare(prefix: SpectrumPrefix, k: Optional[int] = None, rel_slack: float = 1e-10) -> ChainReport:
    """Compute the four l = 1 bounds and check the expected ordering
    yang1 <= yang2 <= hp <= ppw up to relative slack."""
    if prefix.problem != EUCLIDEAN or prefix.l != 1:
        raise InputError("chain comparison is defined for the l=1 Euclidean problem")
    results = {name: compute_bound(name, prefix, k) for name in CHAIN}
    violations = []
    vals = [results[name].value for name in CHAIN]
    for a, b, an, bn in zip(vals, vals[1:], CHAIN, CHAIN[1:]):
        if a > b * (1.0 + rel_slack):
            violations.append((an, bn, a, b))
    return ChainReport(results, not violations, violations)


def check_general_poly(prefix: SpectrumPrefix, couple) -> float:
    """Margin (RHS - LHS) of the polyharmonic couple inequality

        sum f(lam_i) <= (2/n) sqrt(l(2l+n-2))
                        * (sum g(lam_i) lam_i^((l-1)/l))^(1/2)
                        * (sum f^2/(g (z-lam_i)) lam_i^(1/l))^(1/2)

    at z = couple.lam, for an admissible couple.
    """
    lam = prefix.values
    n, l = prefix.n, prefix.l
    z = couple.lam
    if not z > float(lam[-1]):
        raise InputError(f"next value {z} must exceed lambda_k = {lam[-1]}")
    f, g = _couples.admissible_weights(couple, lam)
    lhs = float(np.sum(f))
    rhs = (2.0 / n) * math.sqrt(l * (2.0 * l + n - 2)) * math.sqrt(
        float(np.sum(g * lam ** ((l - 1.0) / l)))
        * float(np.sum(f**2 / (g * (z - lam)) * lam ** (1.0 / l)))
    )
    return rhs - lhs
