"""Catalogue of universal upper bounds on the next eigenvalue.

Every entry of the registry reads one published inequality as a constraint on
z = lambda_{k+1} given the prefix lambda_1 <= ... <= lambda_k, and reports the
supremum of admissible z.  Four solver forms cover the bound entries:

* closed        -- gap or average bounds evaluated directly;
* quadratic     -- larger real root of  k z^2 - B z + C <= 0;
* monotone      -- unique root of  G(z) = sum_i lambda_i^a / (z - lambda_i)
                   = target,  G strictly decreasing on (lambda_k, inf);
* largest-root  -- supremum of  {z >= lambda_k : H(z) <= 0}  for mixed forms
                   H(z) -> +inf, located by a geometric scan for the last
                   sign change followed by bisection.

One further entry is verify-only: it reports the slack of its inequality at a
candidate z instead of a bound.  Each entry is declared once, as one row of
the registry table holding its form and its recipe; only this module tells
the forms apart.

Descriptor names double as the stable CLI vocabulary.  The registry spans the
Dirichlet Laplacian (l = 1), the clamped plate (l = 2), the general
polyharmonic family (any l), and the Kohn Laplacian on a Heisenberg box
(problem "heisenberg-kohn", powers l = 1, 2 and odd/even l >= 3, with the
combinatorial constants c1(n, l) and c2(n, l) evaluated in exact rational
arithmetic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import couples as _couples
from .errors import InputError, SolverError

EUCLIDEAN = "euclidean-polyharmonic"
HEISENBERG = "heisenberg-kohn"
PROBLEMS = (EUCLIDEAN, HEISENBERG)

MAX_PREFIX_LEN = 10**5
ROOT_TOL = 1e-12
MAX_BISECT = 200
MAX_DOUBLINGS = 200
MAX_CAP_DOUBLINGS = 60
SCAN_PER_DECADE = 512


@dataclass(frozen=True)
class SpectrumPrefix:
    """An ordered positive eigenvalue prefix with problem metadata.

    ``n`` is the space dimension for Euclidean problems and the Heisenberg
    parameter for Kohn problems; ``l`` is the operator power.
    """

    values: np.ndarray
    n: int
    l: int = 1
    problem: str = EUCLIDEAN

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel().copy()
        if vals.size == 0:
            raise InputError("eigenvalue prefix is empty")
        if vals.size > MAX_PREFIX_LEN:
            raise InputError(f"prefix longer than {MAX_PREFIX_LEN} entries")
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
            raise InputError("eigenvalues must be finite and strictly positive")
        if np.any(np.diff(vals) < 0):
            raise InputError("eigenvalues must be nondecreasing")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise InputError(f"n must be a positive integer, got {self.n}")
        if not (isinstance(self.l, (int, np.integer)) and self.l >= 1):
            raise InputError(f"l must be a positive integer, got {self.l}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "l", int(self.l))
        if self.problem not in PROBLEMS:
            raise InputError(f"unknown problem {self.problem!r}; known: {PROBLEMS}")

    def __len__(self) -> int:
        return int(self.values.size)

    def head(self, k: int) -> np.ndarray:
        if not 1 <= k <= len(self):
            raise InputError(f"k must satisfy 1 <= k <= {len(self)}, got {k}")
        return self.values[:k]


@dataclass
class BoundResult:
    """A named upper bound for lambda_{k+1} with solver diagnostics."""

    name: str
    value: float
    method: str
    iterations: int
    residual: float
    valid: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "method": self.method,
            "iterations": self.iterations,
            "residual": self.residual,
            "valid": self.valid,
        }


# ---------------------------------------------------------------------------
# solver kernels
# ---------------------------------------------------------------------------


def _larger_root(a: float, b: float, c: float) -> float:
    """Larger real root of a z^2 - b z + c = 0 with a, b > 0.

    Discriminants in [-1e-13 b^2, 0) are treated as round-off from an
    equality configuration and clamped to zero.
    """
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        if disc >= -1e-13 * b * b:
            disc = 0.0
        else:
            raise SolverError(
                f"no real root: discriminant {disc:g} for a={a:g}, b={b:g}, c={c:g}"
            )
    return (b + math.sqrt(disc)) / (2.0 * a)


def solve_monotone_bound(
    G: Callable[[float], float], z_low: float, target: float
) -> tuple[float, int, float]:
    """Unique root of G(z) = target for G strictly decreasing on (z_low, inf)
    with G(z_low+) = +inf and limit below target.

    Brackets by doubling an offset from z_low, then bisects to relative width
    ROOT_TOL.  Returns (root, iterations, |G(root) - target|).
    """
    if not target > 0:
        raise InputError(f"target must be positive, got {target}")
    if not z_low > 0:
        raise InputError(f"z_low must be positive, got {z_low}")
    iterations = 0
    d = 1e-9 * z_low
    hi = z_low + d
    while G(hi) >= target:
        d *= 2.0
        hi = z_low + d
        iterations += 1
        if iterations > MAX_DOUBLINGS:
            raise SolverError(
                f"no upper bracket after {MAX_DOUBLINGS} doublings from {z_low:g}"
            )
    lo = z_low + d / 2.0 if iterations else math.nextafter(z_low, math.inf)
    # invariant: G(lo) >= target > G(hi)
    while hi - lo > 0.5 * ROOT_TOL * hi and iterations < MAX_DOUBLINGS + MAX_BISECT:
        mid = 0.5 * (lo + hi)
        if G(mid) >= target:
            lo = mid
        else:
            hi = mid
        iterations += 1
    root = 0.5 * (lo + hi)
    return root, iterations, abs(G(root) - target)


def solve_largest_root_bound(
    H: Callable[[np.ndarray], np.ndarray], z_low: float, z_hint: float
) -> tuple[float, int, float]:
    """Supremum of {z >= z_low : H(z) <= 0} for H(z) -> +inf as z -> inf.

    H must accept numpy arrays.  Scans a geometric grid from just above z_low
    to a cap seeded at z_hint (doubling the cap until H(cap) > 0), takes the
    last sign change (SCAN_PER_DECADE points per decade), and bisects to
    relative width ROOT_TOL.  Returns (root, iterations, |H(root)|).
    """
    if not z_low > 0:
        raise InputError(f"z_low must be positive, got {z_low}")
    lo = z_low * (1.0 + 1e-9)
    cap = max(z_hint, 2.0 * lo)
    iterations = 0
    while float(H(np.asarray([cap]))[0]) <= 0.0:
        cap *= 2.0
        iterations += 1
        if iterations > MAX_CAP_DOUBLINGS:
            raise SolverError("H stayed nonpositive out to the cap doubling budget")
    n_decades = math.log10(cap / lo)
    npts = max(8, int(math.ceil(SCAN_PER_DECADE * n_decades)) + 1)
    zs = np.geomspace(lo, cap, npts)
    hs = np.asarray(H(zs), dtype=float)
    feasible = hs <= 0.0
    if not feasible.any():
        raise SolverError(
            f"H > 0 on the whole scan ({npts} points in [{lo:g}, {cap:g}])"
        )
    last = int(np.nonzero(feasible)[0][-1])
    a, b = float(zs[last]), float(zs[last + 1])
    steps = 0
    while b - a > 0.5 * ROOT_TOL * b and steps < MAX_BISECT:
        mid = 0.5 * (a + b)
        if float(H(np.asarray([mid]))[0]) <= 0.0:
            a = mid
        else:
            b = mid
        steps += 1
    root = 0.5 * (a + b)
    return root, iterations + steps, abs(float(H(np.asarray([root]))[0]))


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
def kohn_constant_c1(n: int, l: int) -> float:
    """c1(n, l) for odd l >= 3.  c1(n, 3) = 4 exactly; for odd l >= 5 the
    double sum over (q, r) of the inner binomial sums, times 2."""
    if not (isinstance(n, int) and n >= 1):
        raise InputError(f"n must be a positive integer, got {n}")
    if not (isinstance(l, int) and l >= 3 and l % 2 == 1):
        raise InputError(f"c1 requires odd l >= 3, got {l}")
    if l == 3:
        return 4.0
    total = Fraction(0)
    for q in range(1, l - 1):
        for r in range(1, l - q):
            total += _c_inner_sum(n, l - q - r, even_from=2)
    return float(2 * total)


@lru_cache(maxsize=None)
def kohn_constant_c2(n: int, l: int) -> float:
    """c2(n, l) for even l >= 4: the analogous double sum with the even part
    of the inner sum starting at s = 0, times 4."""
    if not (isinstance(n, int) and n >= 1):
        raise InputError(f"n must be a positive integer, got {n}")
    if not (isinstance(l, int) and l >= 4 and l % 2 == 0):
        raise InputError(f"c2 requires even l >= 4, got {l}")
    total = Fraction(0)
    for q in range(1, l - 1):
        for r in range(1, l - q):
            total += _c_inner_sum(n, l - q - r, even_from=0)
    return float(4 * total)


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

    ``recipe(lam, n, l, k)`` returns what ``form`` needs: the bound value
    (closed); (B, C) of k z^2 - B z + C <= 0 (quadratic); (weights, target)
    of sum w_i/(z - lambda_i) = target (monotone); a vectorized H
    (largest-root).  A verify-only entry extracts no bound: its
    ``recipe(lam, n, l, k, z)`` is the slack of the inequality at z.
    ``cap_names`` lists closed-form entries seeding the largest-root cap.
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


def _S(lam: np.ndarray, r: float) -> float:
    return float(np.sum(lam**r))


# --- closed forms -----------------------------------------------------------


def _ppw_laplacian(lam, n, l, k):
    return lam[-1] + 4.0 * _S(lam, 1) / (n * k)


def _yang2_laplacian(lam, n, l, k):
    return (1.0 + 4.0 / n) * _S(lam, 1) / k


def _ppw_clamped(lam, n, l, k):
    return lam[-1] + 8.0 * (n + 2) * _S(lam, 1) / (n * n * k)


def _ppw_clamped_sharp(lam, n, l, k):
    return lam[-1] + 8.0 * (n + 2) * _S(lam, 0.5) ** 2 / (n * n * k * k)


def _ppw_poly(lam, n, l, k):
    coef = 4.0 * l * (2 * l + n - 2) / (n * n * k * k)
    return lam[-1] + coef * _S(lam, 1.0 / l) * _S(lam, (l - 1.0) / l)


def _niuzhang_l1(lam, n, l, k):
    return lam[-1] + 2.0 * _S(lam, 1) / (n * k)


def _niuzhang_l2(lam, n, l, k):
    return lam[-1] + 4.0 * (n + 1) * _S(lam, 0.5) ** 2 / (n * n * k * k)


def _niuzhang_odd(lam, n, l, k):
    c1 = kohn_constant_c1(n, l)
    bracket = 2.0 * l * (n + l - 1) * _S(lam, (l - 1.0) / l) + c1 * (
        _S(lam, 1) + _S(lam, (l - 2.0) / l)
    )
    return lam[-1] + _S(lam, 1.0 / l) * bracket / (n * n * k * k)


def _niuzhang_even(lam, n, l, k):
    c2 = kohn_constant_c2(n, l)
    bracket = (2.0 * l * n + 4.0 * (l - 1) + c2) * _S(lam, (l - 1.0) / l)
    return lam[-1] + _S(lam, 1.0 / l) * bracket / (n * n * k * k)


# --- quadratic forms:  sum (z-lam)^2 <= sum w_i (z-lam_i)  ------------------
# normal form k z^2 - B z + C <= 0 with B = 2 S1 + sum w_i,
# C = S2 + sum w_i lam_i; for constant-C inequalities w_i = C_const * lam_i.


def _quad_constant(C_of):
    def fn(lam, n, l, k):
        C = C_of(n, l)
        return (2.0 + C) * _S(lam, 1), (1.0 + C) * _S(lam, 2)

    return fn


def _quad_kohn_yang_odd(lam, n, l, k):
    c1 = kohn_constant_c1(n, l)
    w = (2.0 * l * (n + l - 1) * lam + c1 * (lam ** ((l + 1.0) / l) + lam ** ((l - 1.0) / l))) / (
        n * n
    )
    return 2.0 * _S(lam, 1) + float(np.sum(w)), _S(lam, 2) + float(np.sum(w * lam))


def _c_kohn_even(n, l):
    return (2.0 * l * n + 4.0 * (l - 1) + kohn_constant_c2(n, l)) / (n * n)


# --- monotone forms:  sum w_i / (z - lam_i) = target  -----------------------


def _hp_laplacian(lam, n, l, k):
    return lam**1.0, n * k / 4.0


def _hp_weak_clamped(lam, n, l, k):
    return lam**1.0, n * n * k / (8.0 * (n + 2))


def _hileyeh_clamped(lam, n, l, k):
    return lam**0.5, n * n * k**1.5 / (8.0 * (n + 2) * math.sqrt(_S(lam, 1)))


def _hook_chenqian_clamped(lam, n, l, k):
    return lam**0.5, n * n * k * k / (8.0 * (n + 2) * _S(lam, 0.5))


def _hp_poly(lam, n, l, k):
    return lam ** (1.0 / l), n * n * k * k / (4.0 * l * (2 * l + n - 2) * _S(lam, (l - 1.0) / l))


def _hp_weak_poly(lam, n, l, k):
    return lam**1.0, n * n * k / (4.0 * l * (2 * l + n - 2))


# --- largest-root forms -----------------------------------------------------


def _H_chengyang_clamped(lam, n, l, k):
    c = math.sqrt(8.0 * (n + 2)) / n

    def H(z):
        d = z[:, None] - lam[None, :]
        return d.sum(axis=1) - c * np.sqrt(lam[None, :] * d).sum(axis=1)

    return H


def _H_wucao_poly(lam, n, l, k):
    c = math.sqrt(4.0 * l * (n + 2 * l - 2)) / n
    wa = lam ** ((l - 1.0) / l)
    wb = lam ** (1.0 / l)

    def H(z):
        s = np.sqrt(z[:, None] - lam[None, :])
        return (z[:, None] - lam[None, :]).sum(axis=1) - c * np.sqrt(
            (s * wa[None, :]).sum(axis=1) * (s * wb[None, :]).sum(axis=1)
        )

    return H


def _H_kohn_chengyang_l2(lam, n, l, k):
    c = 2.0 * math.sqrt(n + 1.0) / n
    w = np.sqrt(lam)

    def H(z):
        d = z[:, None] - lam[None, :]
        return (d**2).sum(axis=1) - c * np.sqrt(
            (d * w[None, :]).sum(axis=1) * (d**2 * w[None, :]).sum(axis=1)
        )

    return H


def _H_kohn_mixed(bracket_of):
    """Kohn l >= 3 form: sum (z-lam)^2 <= (1/n) sqrt(sum (z-lam) lam^(1/l))
    * sqrt(sum (z-lam)^2 bracket_i)."""

    def build(lam, n, l, k):
        wa = lam ** (1.0 / l)
        wb = bracket_of(lam, n, l)

        def H(z):
            d = z[:, None] - lam[None, :]
            return (d**2).sum(axis=1) - np.sqrt(
                (d * wa[None, :]).sum(axis=1) * (d**2 * wb[None, :]).sum(axis=1)
            ) / n

        return H

    return build


def _bracket_odd(lam, n, l):
    c1 = kohn_constant_c1(n, l)
    return 2.0 * l * (n + l - 1) * lam ** ((l - 1.0) / l) + c1 * (lam + lam ** ((l - 2.0) / l))


def _bracket_even(lam, n, l):
    c2 = kohn_constant_c2(n, l)
    return (2.0 * l * n + 4.0 * (l - 1) + c2) * lam ** ((l - 1.0) / l)


def _bracket_odd_homog(lam, n, l):
    c1 = kohn_constant_c1(n, l)
    return (2.0 * l * (n + l - 1) + c1) * lam ** ((l - 1.0) / l)


# --- verify-only forms ------------------------------------------------------


def _cim_squared_slack(lam, n, l, k, z):
    """Slack of the squared-weight polyharmonic inequality at z, in the
    square-root normal form so that it matches check_general_poly with
    f = g = (z - x)^2 exactly."""
    d = z - lam
    lhs = float(np.sum(d**2))
    rhs = (2.0 / n) * math.sqrt(l * (2.0 * l + n - 2)) * math.sqrt(
        float(np.sum(d**2 * lam ** ((l - 1.0) / l))) * float(np.sum(d * lam ** (1.0 / l)))
    )
    return rhs - lhs


# name, problem, form, l-rule, recipe, cap seeds of the largest-root entries
_TABLE = [
    ("ppw-laplacian", EUCLIDEAN, "closed", _l_is(1), _ppw_laplacian, ()),
    ("hp-laplacian", EUCLIDEAN, "monotone", _l_is(1), _hp_laplacian, ()),
    ("yang1-laplacian", EUCLIDEAN, "quadratic", _l_is(1), _quad_constant(lambda n, l: 4.0 / n), ()),
    ("yang2-laplacian", EUCLIDEAN, "closed", _l_is(1), _yang2_laplacian, ()),
    ("ppw-clamped", EUCLIDEAN, "closed", _l_is(2), _ppw_clamped, ()),
    ("ppw-clamped-sharp", EUCLIDEAN, "closed", _l_is(2), _ppw_clamped_sharp, ()),
    ("hileyeh-clamped", EUCLIDEAN, "monotone", _l_is(2), _hileyeh_clamped, ()),
    ("hook-chenqian-clamped", EUCLIDEAN, "monotone", _l_is(2), _hook_chenqian_clamped, ()),
    ("hp-weak-clamped", EUCLIDEAN, "monotone", _l_is(2), _hp_weak_clamped, ()),
    ("chengyang-clamped", EUCLIDEAN, "largest-root", _l_is(2), _H_chengyang_clamped,
     ("ppw-clamped", "ppw-clamped-sharp")),
    ("ppw-poly", EUCLIDEAN, "closed", _any_l, _ppw_poly, ()),
    ("hp-poly", EUCLIDEAN, "monotone", _any_l, _hp_poly, ()),
    ("hp-weak-poly", EUCLIDEAN, "monotone", _any_l, _hp_weak_poly, ()),
    ("wucao-poly", EUCLIDEAN, "largest-root", _any_l, _H_wucao_poly, ("ppw-poly",)),
    ("cim-yang-poly", EUCLIDEAN, "quadratic", _any_l,
     _quad_constant(lambda n, l: 4.0 * l * (2 * l + n - 2) / (n * n)), ()),
    ("cim-squared-poly", EUCLIDEAN, "verify-only", _any_l, _cim_squared_slack, ()),
    ("kohn-yang-l1", HEISENBERG, "quadratic", _l_is(1), _quad_constant(lambda n, l: 2.0 / n), ()),
    ("kohn-chengyang-l2", HEISENBERG, "largest-root", _l_is(2), _H_kohn_chengyang_l2, ("niuzhang-l2",)),
    ("kohn-yang-l2", HEISENBERG, "quadratic", _l_is(2),
     _quad_constant(lambda n, l: 4.0 * (n + 1.0) / (n * n)), ()),
    ("kohn-odd-l", HEISENBERG, "largest-root", _odd_ge3, _H_kohn_mixed(_bracket_odd), ("niuzhang-odd",)),
    ("kohn-even-l", HEISENBERG, "largest-root", _even_ge4, _H_kohn_mixed(_bracket_even), ("niuzhang-even",)),
    ("kohn-odd-l-homog", HEISENBERG, "largest-root", _odd_ge3, _H_kohn_mixed(_bracket_odd_homog),
     ("niuzhang-odd",)),
    ("kohn-yang-odd-l", HEISENBERG, "quadratic", _odd_ge3, _quad_kohn_yang_odd, ()),
    ("kohn-yang-even-l", HEISENBERG, "quadratic", _even_ge4, _quad_constant(_c_kohn_even), ()),
    ("niuzhang-l1", HEISENBERG, "closed", _l_is(1), _niuzhang_l1, ()),
    ("niuzhang-l2", HEISENBERG, "closed", _l_is(2), _niuzhang_l2, ()),
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


def compute_bound(name: str, prefix: SpectrumPrefix, k: Optional[int] = None) -> BoundResult:
    """The named upper bound for lambda_{k+1} from the first k prefix values.

    Reads the inequality as a constraint on z = lambda_{k+1} and returns the
    supremum of admissible z.  Solver failures (negative discriminant, empty
    feasible set) return valid=False rather than raising; bad input raises.
    """
    desc = _descriptor(name)
    _check_applicable(desc, prefix)
    if not desc.extracts_bound:
        raise InputError(
            f"{name} is verification-only; it does not extract a bound "
            "(evaluate its margin via verify_margins)"
        )
    k = len(prefix) if k is None else int(k)
    lam = prefix.head(k)
    n, l = prefix.n, prefix.l
    lam_k = float(lam[-1])

    try:
        if desc.form == "closed":
            return BoundResult(name, float(desc.recipe(lam, n, l, k)), "closed", 0, 0.0, True)
        if desc.form == "quadratic":
            B, C = desc.recipe(lam, n, l, k)
            root = _larger_root(float(k), B, C)
            valid = root >= lam_k * (1.0 - 1e-12)
            return BoundResult(name, root, "quadratic", 0, 0.0, valid)
        if desc.form == "monotone":
            w, target = desc.recipe(lam, n, l, k)

            def G(z):
                return float(np.sum(w / (z - lam)))

            root, iters, resid = solve_monotone_bound(G, lam_k, target)
            return BoundResult(name, root, "implicit", iters, resid, True)
        if desc.form == "largest-root":
            H = desc.recipe(lam, n, l, k)
            cap = 2.0 * max(
                compute_bound(c, prefix, k).value for c in desc.cap_names
            )
            root, iters, resid = solve_largest_root_bound(H, lam_k, cap)
            return BoundResult(name, root, "implicit", iters, resid, True)
    except SolverError:
        return BoundResult(name, float("nan"), desc.form, 0, float("nan"), False)
    raise AssertionError(f"unhandled form {desc.form!r}")


# ---------------------------------------------------------------------------
# verification-mode margins
# ---------------------------------------------------------------------------


@dataclass
class MarginEntry:
    """Per-descriptor slack of the inequality at a candidate lambda_{k+1}.

    For bound-extracting descriptors, margin = bound - candidate.  For
    verification-only descriptors, margin is the inequality slack itself
    (note field says so), in units of candidate^2.  Negative margin flags a
    violation; :meth:`violated` applies a relative tolerance in the right unit.
    """

    name: str
    margin: float
    bound: float
    valid: bool
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "margin": self.margin,
            "bound": self.bound,
            "valid": self.valid,
            "note": self.note,
        }

    def violated(self, z: float, rel_slack: float) -> bool:
        """Whether the margin falls below -rel_slack times its unit: z for a
        bound, z^2 for the inequality slack of a verify-only entry.  Invalid
        and inapplicable entries are never violations."""
        if not self.valid or math.isnan(self.margin):
            return False
        unit = z if _descriptor(self.name).extracts_bound else z**2
        return self.margin < -rel_slack * unit


def verify_margins(prefix: SpectrumPrefix, candidate: float, which=None) -> list[MarginEntry]:
    """Margins of every requested descriptor at z = candidate, using the whole
    prefix (k = len(prefix)): bound - candidate, or the inequality slack of a
    verify-only entry.  Inapplicable descriptors and invalid bounds are
    reported with a notice, not an error."""
    k = len(prefix)
    lam_k = float(prefix.values[-1])
    if not candidate >= lam_k * (1.0 - 1e-12):
        raise InputError(f"candidate {candidate} is below lambda_k = {lam_k}")
    names = list(which) if which is not None else registry_names()
    out: list[MarginEntry] = []
    for name in names:
        desc = _descriptor(name)
        if not desc.applicable(prefix.problem, prefix.l):
            out.append(MarginEntry(name, float("nan"), float("nan"), False, "inapplicable: skipped"))
        elif not desc.extracts_bound:
            slack = desc.recipe(prefix.head(k), prefix.n, prefix.l, k, candidate)
            out.append(MarginEntry(name, slack, float("nan"), True, "inequality slack (no bound form)"))
        else:
            res = compute_bound(name, prefix, k)
            if res.valid:
                out.append(MarginEntry(name, res.value - candidate, res.value, True))
            else:
                out.append(MarginEntry(name, float("nan"), res.value, False, "no admissible bound value"))
    return out


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


def check_general_poly(prefix: SpectrumPrefix, next_value: float, couple) -> float:
    """Margin (RHS - LHS) of the polyharmonic couple inequality

        sum f(lam_i) <= (2/n) sqrt(l(2l+n-2))
                        * (sum g(lam_i) lam_i^((l-1)/l))^(1/2)
                        * (sum f^2/(g (z-lam_i)) lam_i^(1/l))^(1/2)

    at z = next_value, for an admissible couple with couple.lam = next_value.
    """
    k = len(prefix)
    lam = prefix.head(k)
    n, l = prefix.n, prefix.l
    if not next_value > float(lam[-1]):
        raise InputError(f"next value {next_value} must exceed lambda_k = {lam[-1]}")
    f, g = _couples.admissible_weights(couple, lam, next_value)
    lhs = float(np.sum(f))
    rhs = (2.0 / n) * math.sqrt(l * (2.0 * l + n - 2)) * math.sqrt(
        float(np.sum(g * lam ** ((l - 1.0) / l)))
        * float(np.sum(f**2 / (g * (next_value - lam)) * lam ** (1.0 / l)))
    )
    return rhs - lhs

