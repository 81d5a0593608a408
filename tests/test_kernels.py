"""The all-k bound kernels: brute force on the original G and H, agreement
with the per-k view, work counts and memory; and the memory of the pairwise
couple certificate at its sample cap."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgap import bounds, couples, operators
from specgap.bounds import EUCLIDEAN, HEISENBERG, REGISTRY, SpectrumPrefix, compute_bound

# a geometric grid 64 times as dense as a 512-per-decade scan
GRID_PER_DECADE = 64 * 512
IMPLICIT = ("monotone", "largest-root")


class _PerK(bounds._Prefixes):
    """Prefix sums by one np.sum per prefix length instead of a cumulative sum."""

    def cum(self, x):
        return np.array([np.sum(x[:k]) for k in self.ks])


def _admissible(desc, lam, n, l, z):
    """Whether each z of a grid satisfies the entry's inequality for the
    prefix lam: G(z) >= T (monotone) or H(z) <= 0 (largest-root), summed
    directly from the recipe's weights; and the largest z that can."""
    p = bounds._Prefixes(lam, [len(lam)])
    data = desc.recipe(p, n, l)
    d = z[:, None] - lam[None, :]
    if desc.form == "monotone":
        w, target = data[0], float(data[1][0])
        # G <= W / (z - lambda_k)
        return (w / d).sum(axis=1) >= target, lam[-1] + w.sum() / target
    c, wa, wb = data.c, data.wa, data.wb
    if data.degree == 1:
        s = np.sqrt(d)
        H = d.sum(axis=1) - c * np.sqrt((s @ wa) * (s @ wb))
        # Cauchy-Schwarz: H >= D - c sqrt(D) (sum wa^2 sum wb^2)^(1/4), D = sum d
        z_max = (lam.sum() + c * c * math.sqrt(np.sum(wa**2) * np.sum(wb**2))) / len(lam)
    else:
        H = (d**2).sum(axis=1) - c * np.sqrt((d @ wa) * ((d**2) @ wb))
        # H >= S - c S^(3/4) (sum wa^2)^(1/4) max(wb)^(1/2), S = sum d^2 >= k (z - lambda_k)^2
        z_max = lam[-1] + c * c * math.sqrt(np.sum(wa**2)) * wb.max() / math.sqrt(len(lam))
    return H <= 0.0, z_max


def _grid(lo, hi):
    return np.geomspace(lo, hi, int(math.ceil(GRID_PER_DECADE * math.log10(hi / lo))) + 2)


CASES = [(EUCLIDEAN, l) for l in (1, 2, 3)] + [(HEISENBERG, l) for l in (1, 2, 3, 4)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    lam1=st.floats(min_value=0.1, max_value=50.0),
    ratios=st.lists(st.floats(min_value=1.0, max_value=1.8), min_size=0, max_size=5),
    n=st.integers(min_value=1, max_value=4),
    case=st.sampled_from(CASES),
)
def test_kernels_against_brute_force(lam1, ratios, n, case):
    problem, l = case
    lam = lam1 * np.cumprod([1.0] + ratios)
    prefix = SpectrumPrefix(lam, n=n, l=l, problem=problem)
    ks = np.arange(1, len(lam) + 1)
    for name in bounds.registry_names(problem, l):
        desc = REGISTRY[name]
        if not desc.extracts_bound:
            continue
        if desc.form not in IMPLICIT:
            # cumulative sums against one np.sum per k
            got, want = desc.recipe(bounds._Prefixes(lam, ks), n, l), desc.recipe(_PerK(lam, ks), n, l)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0, err_msg=name)
            continue
        value, _, _, valid = bounds._bound_table(desc, prefix, ks)
        for k, root, ok in zip(ks, value, valid):
            head = lam[:k]
            lo = head[-1] * (1.0 + 1e-9)
            _, z_max = _admissible(desc, head, n, l, np.array([lo]))
            hi = max(z_max, root if ok else 0.0, lo) * (1.0 + 1e-6)
            z = _grid(lo, hi)
            feasible, _ = _admissible(desc, head, n, l, z)
            if not ok:
                assert not feasible.any(), (name, k, head, z[feasible][-1])
                continue
            # no admissible point above the root, and one at its lower certificate end
            assert not feasible[z > root * (1.0 + bounds.ROOT_TOL)].any(), (name, k, head, root)
            if desc.form == "monotone":  # G is decreasing: every point below the root
                assert feasible[z < root * (1.0 - bounds.ROOT_TOL)].all(), (name, k, head, root)
            ends, _ = _admissible(desc, head, n, l, np.array([max(root * (1.0 - bounds.ROOT_TOL), lo)]))
            assert ends[0], (name, k, head, root)


def test_all_k_table_matches_per_k_results():
    full = operators.box_spectrum((1.0, 1.37), 60).values
    for problem, l in CASES:
        prefix = SpectrumPrefix(full**l, n=2, l=l, problem=problem)
        ks = np.arange(1, len(full) + 1)
        for name in bounds.registry_names(problem, l):
            if not REGISTRY[name].extracts_bound:
                continue
            value, _, _, valid = bounds._bound_table(REGISTRY[name], prefix, ks)
            for k in (1, 2, 7, 31, 60):
                res = compute_bound(name, prefix, k)
                assert res.valid == valid[k - 1], (name, k)
                if res.valid:
                    assert res.value == pytest.approx(value[k - 1], rel=1e-13), (name, k)


def test_newton_work_on_the_unit_square():
    # Newton from a proven bracket or cap takes a handful of steps; bisection to
    # ROOT_TOL from a doubled bracket would take about 70
    full = operators.box_spectrum((1.0, 1.0), 1000).values
    ks = np.arange(1, 1001)
    for l in (1, 2):
        prefix = SpectrumPrefix(full**l, n=2, l=l)
        for name in bounds.registry_names(EUCLIDEAN, l):
            desc = REGISTRY[name]
            if desc.form == "monotone" or desc.cap_names:
                _, iterations, _, valid = bounds._bound_table(desc, prefix, ks)
                assert valid.all() and 0 < iterations.min() and iterations.max() <= 12, (name, l)
                for k in ks[::37]:
                    assert 0 < compute_bound(name, prefix, int(k)).iterations <= 12, (name, l, k)


def test_convex_roots_double_a_cap_below_the_root():
    # every root of wucao-poly at l = 2 lies above 2 lambda_k, where caps far
    # below it start: each row doubles its cap until H > 0, and Newton then
    # falls to the root that the default caps reach from above
    full = operators.box_spectrum((1.0, 1.37), 60).values
    prefix, ks = SpectrumPrefix(full**2, n=2, l=2), np.arange(1, 61)
    desc = REGISTRY["wucao-poly"]
    value, iterations, _, valid = bounds._bound_table(desc, prefix, ks)
    low_value, low_iterations, _, low_valid = bounds._bound_table(desc, prefix, ks, caps=np.full(ks.size, 1e-3))
    assert valid.all() and np.all(value > 2.0 * full * (1.0 + bounds.LOWER_END_REL))
    assert np.array_equal(low_valid, valid)
    np.testing.assert_allclose(low_value, value, rtol=1e-12, atol=0.0)
    assert np.all(low_iterations >= iterations) and low_iterations.sum() > iterations.sum()


def _peak_rss_mb(argv, cwd):
    """Peak RSS of ``python -m specgap argv``, read in a parent process of its own."""
    code = (
        "import resource, subprocess, sys\n"
        "proc = subprocess.run([sys.executable, '-m', 'specgap', *sys.argv[1:]], stdout=subprocess.DEVNULL)\n"
        "print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, capture_output=True, text=True, check=True, timeout=300
    )
    returncode, rss_kb = out.stdout.split()
    return int(returncode), int(rss_kb) / 1024.0


@pytest.mark.parametrize("ineq", ["chengyang-clamped", "all"])
def test_bound_memory_at_max_prefix_len(ineq, tmp_path):
    values = operators.box_spectrum((1.0, 1.3), bounds.MAX_PREFIX_LEN).values ** 2
    with open(tmp_path / "big.csv", "w") as fh:
        operators.write_spectrum_csv(fh, values, {"problem": EUCLIDEAN, "n": 2, "l": 2})
    returncode, rss_mb = _peak_rss_mb(["bound", "--ineq", ineq, "--eigs", "big.csv", "--n", "2"], tmp_path)
    assert returncode == 0
    assert rss_mb < 300.0, rss_mb


def test_couple_check_memory_at_the_sample_cap(tmp_path):
    # 8.4e6 pairs, evaluated in row blocks of couples._PAIR_BLOCK pairs
    argv = ["couple", "check", "--spec", "equal-power:2@5", "--samples", str(couples.MAX_MEMBERSHIP_SAMPLES)]
    returncode, rss_mb = _peak_rss_mb(argv, tmp_path)
    assert returncode == 0
    assert rss_mb < 300.0, rss_mb
