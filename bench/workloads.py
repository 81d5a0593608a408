"""The three benchmark workloads: their inputs, commands and output checks.

Each workload's ``prepare(seed, setup)`` writes the workload's input files
and returns its timed batch as a list of ``Command``.  The program sees only
those files and the flags; the seed decides the box shapes (and the seed of
``verify abstract``), nothing else.  Every command has a check that compares
its output with a reference from :mod:`reference`, which does not use the
code under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import reference as ref

REL_TOL = 1e-8


@dataclass
class Command:
    """One CLI invocation of the timed batch."""

    label: str
    args: list
    check: Callable[[str], Optional[str]]  # output text -> error, or None if correct


@dataclass
class Workload:
    name: str
    why: str
    prepare: Callable  # (seed, Setup) -> list[Command]


def _once(fn):
    """Cache a zero-argument reference so each is computed at most once."""
    cache = []

    def get():
        if not cache:
            cache.append(fn())
        return cache[0]

    return get


def _seeded_sides(seed: int, salt: int, ndim: int) -> tuple:
    """Box side lengths (1, a_2, ...) with a_j drawn from [1, 2)."""
    rng = np.random.default_rng([seed, salt])
    return (1.0,) + tuple(round(float(a), 4) for a in rng.uniform(1.0, 2.0, ndim - 1))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _spectrum_check(reference: Callable[[], np.ndarray]):
    def check(text: str) -> Optional[str]:
        got, want = ref.csv_values(text), reference()
        if got.shape != want.shape:
            return f"expected {want.size} eigenvalues, got {got.size}"
        worst = float(np.max(np.abs(got - want) / np.abs(want)))
        return None if worst <= REL_TOL else f"relative eigenvalue error {worst:.3g} > {REL_TOL:g}"

    return check


def _verify_spectrum_check(ks: int):
    def check(text: str) -> Optional[str]:
        rows = ref.json_rows(text)
        summary, body = rows[-1], rows[:-1]
        if not summary.get("summary") or summary["ks"] != ks:
            return f"summary line does not cover ks = {ks}"
        if len(body) != ks * ref.REGISTRY_SIZE:
            return f"expected {ks * ref.REGISTRY_SIZE} rows, got {len(body)}"
        flagged = sum(bool(r["violation"]) for r in body)
        if summary["violations"] or flagged:
            return f"{max(flagged, summary['violations'])} violations"
        return None

    return check


def _verify_abstract_check(trials: int):
    def check(text: str) -> Optional[str]:
        rows = ref.json_rows(text)
        summary = rows[-1]
        if not summary.get("summary") or summary["trials"] != trials:
            return f"summary line does not cover {trials} trials"
        if summary["checks"] != len(rows) - 1 or summary["failures"] != 0:
            return f"{summary['failures']} failures in {summary['checks']} checks"
        return None

    return check


def _bound_check(problem: str, l: int, lam_k: float):
    want = ref.applicable_bounds(problem, l)

    def check(text: str) -> Optional[str]:
        rows = ref.json_rows(text)
        names = [r["name"] for r in rows]
        if len(names) != len(want) or set(names) != want:
            return f"expected one line for each of {sorted(want)}, got {names}"
        for r in rows:
            if r["valid"] and not (r["value"] is not None and math.isfinite(r["value"]) and r["value"] >= lam_k):
                return f"{r['name']} = {r['value']} is below lambda_k = {lam_k}"
        return None

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _fd(problem: str, dims: str, grid: str, count: int, *extra) -> list:
    return ["spectrum", "fd", "--problem", problem, "--dims", dims, "--grid", grid, "--count", str(count), *extra]


def prepare_fd_spectrum(seed: int, setup) -> list:
    """Eigensolver routes on either side of DENSE_FALLBACK_DIM; no input files."""
    cube, square = (1.0, 1.0, 1.0), (1.0, 1.0)
    return [
        Command(
            "laplacian-40x40",
            _fd("laplacian", "1,1", "40,40", 30),
            _spectrum_check(_once(lambda: ref.fd_laplacian_spectrum(square, (40, 40), 30))),
        ),
        Command(
            "laplacian-46x46",
            _fd("laplacian", "1,1", "46,46", 30),
            _spectrum_check(_once(lambda: ref.fd_laplacian_spectrum(square, (46, 46), 30))),
        ),
        Command(
            "kohn-12x12x12",
            _fd("kohn", "1,1,1", "12,12,12", 30),
            _spectrum_check(
                _once(lambda: ref.smallest_eigenvalues(ref.kohn_matrix(cube, (12, 12, 12)), 30))
            ),
        ),
        Command(
            "clamped-30x30",
            _fd("clamped", "1,1", "30,30", 20),
            _spectrum_check(
                _once(lambda: ref.smallest_eigenvalues(ref.clamped_plate_matrix(square, (30, 30)), 20))
            ),
        ),
    ]


def prepare_verify_spectrum(seed: int, setup) -> list:
    sides = _seeded_sides(seed, 1, 2)
    box = setup.write("box2d-1000.csv", ref.spectrum_csv(ref.box_spectrum(sides, 1000), ref.EUCLIDEAN, 2, 1))
    clamped = setup.specgap("clamped-30x30.csv", _fd("clamped", "1,1", "30,30", 200))
    kohn = setup.specgap("kohn-12x12x12-l3.csv", _fd("kohn", "1,1,1", "12,12,12", 300, "--power", "3"))
    # one long prefix: the npts x k largest-root scan sets the peak RSS
    big_values = ref.box_spectrum(_seeded_sides(seed, 4, 2), 20000) ** 2
    big = setup.write("box2d-k20000-l2.csv", ref.spectrum_csv(big_values, ref.EUCLIDEAN, 2, 2))
    return [
        Command(
            "box2d-K1000-slack0",
            ["verify", "spectrum", "--eigs", box, "--n", "2", "--l", "1", "--slack", "0"],
            _verify_spectrum_check(999),
        ),
        Command(
            "clamped-30x30-l2",
            ["verify", "spectrum", "--eigs", clamped, "--n", "2", "--l", "2"],
            _verify_spectrum_check(199),
        ),
        Command(
            "kohn-12x12x12-l3",
            ["verify", "spectrum", "--eigs", kohn, "--n", "1", "--l", "3", "--problem", ref.HEISENBERG],
            _verify_spectrum_check(299),
        ),
        Command(
            "box2d-k20000-l2",
            ["bound", "--ineq", "all", "--eigs", big, "--n", "2"],
            _bound_check(ref.EUCLIDEAN, 2, float(big_values[-1])),
        ),
    ]


ABSTRACT_TRIALS = 1000


def prepare_verify_abstract(seed: int, setup) -> list:
    args = [
        "verify", "abstract", "--trials", str(ABSTRACT_TRIALS), "--dim", "8", "--nops", "3",
        "--couple", "equal-power:2", "--couple", "neg-power:-1,1", "--workers", "1", "--seed", str(seed),
    ]  # fmt: skip
    return [Command(f"trials-{ABSTRACT_TRIALS}-d8", args, _verify_abstract_check(ABSTRACT_TRIALS))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fd-spectrum",
            "eigensolve does most of the work, on both routes either side of DENSE_FALLBACK_DIM",
            prepare_fd_spectrum,
        ),
        Workload(
            "verify-spectrum",
            "bounds and cli serialization do most of the work, across all four solver forms; "
            "one long prefix sets the peak RSS",
            prepare_verify_spectrum,
        ),
        Workload(
            "verify-abstract",
            "abstract and couples do most of the work; bounds and large eigensolves are bypassed",
            prepare_verify_abstract,
        ),
    )
}
