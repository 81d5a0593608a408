"""Tests of the benchmark's own machinery: the tracer and the output checks.

Run from the repository root::

    python3 -m pytest -q bench/selftest.py

(The file name keeps it out of the package's test suite; it is collected
only when named.)
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import run  # noqa: E402
import specgap  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from specgap import bounds, operators  # noqa: E402

# lookup sites the per-layer metrics depend on: (module, name)
REQUIRED_SITES = [
    ("specgap.bounds", "compute_bound"),
    ("specgap.operators", "smallest_eigs"),
    ("specgap.operators", "dense_symmetric_eig"),
    ("specgap.abstract", "dense_symmetric_eig"),
    ("specgap.cli", "json_line"),
    ("specgap.couples", "certify_on_samples"),
    ("specgap.abstract", "random_instance"),
    ("specgap.abstract", "verify_theorem"),
    ("specgap.abstract", "admissible_ks"),
    ("specgap.bounds", "verify_margins"),
    ("specgap.couples", "parse_couple_spec"),
    ("specgap.operators", "read_spectrum_csv"),
]


def _bindings():
    return {
        (mod.__name__, key): value
        for mod in tracer.specgap_modules()
        for key, value in vars(mod).items()
        if callable(value)
    }


@pytest.fixture
def installed():
    t = tracer.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------


def _span(name, parent, start, end, **counters):
    return {"name": name, "parent": parent, "start": start, "end": end, **counters}


def test_self_time_of_synthetic_nested_spans():
    spans = [
        _span("cli.main", -1, 0.0, 10.0),
        _span("bounds.largest_root", 0, 1.0, 5.0, k=50, iterations=7, invalid=0),
        _span("bounds.closed", 1, 2.0, 2.5, k=50, iterations=0, invalid=0),
        _span("bounds.closed", 1, 3.0, 4.0, k=50, iterations=0, invalid=0),
        _span("cli.json_line", 0, 6.0, 6.25),
        _span("cli.json_line", 0, 7.0, 7.75),
    ]
    assert tracer.self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0, 4.0 - 1.5, 0.5, 1.0, 0.25, 0.75])

    m, total = tracer.layer_metrics([spans])
    assert total == pytest.approx(10.0)
    assert m["cli.main.self_s"] == pytest.approx(5.0)
    assert m["cli.json_line.calls"] == 2
    assert m["bounds.largest_root.self_s"] == pytest.approx(2.5)
    assert m["bounds.largest_root.cap_calls"] == 2
    assert m["bounds.closed.calls"] == 2
    assert m["bounds.closed.us_per_call.k100"] == pytest.approx(0.75e6)
    assert m["bounds.closed.us_per_call.k10"] == 0.0
    assert m["bounds.largest_root.iterations"] == 7
    assert list(m) == tracer.layer_metric_names()


def test_overlapping_children_are_not_counted_twice():
    spans = [
        _span("cli.main", -1, 0.0, 10.0),
        _span("cli.json_line", 0, 1.0, 4.0),
        _span("cli.json_line", 0, 3.0, 6.0),
        _span("cli.json_line", 0, 9.0, 12.0),  # clipped to the parent
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_spans_nest_and_carry_counters(installed):
    prefix = bounds.SpectrumPrefix(np.array([1.0, 2.0, 3.0]) ** 2, n=2, l=2)
    bounds.compute_bound("chengyang-clamped", prefix)
    names = [(s["name"], s["parent"]) for s in installed.spans]
    assert names == [("bounds.largest_root", -1), ("bounds.closed", 0), ("bounds.closed", 0)]
    assert installed.spans[0]["k"] == 3 and installed.spans[0]["iterations"] > 0


def test_eigensolve_fallback_is_one_span(installed):
    op = operators.fd_laplacian((1.0, 1.0), (8, 8))
    result = operators.smallest_eigs(op, 4)
    assert result.method == "dense-fallback"
    eig = [s for s in installed.spans if s["name"].startswith("eigensolve")]
    assert [s["name"] for s in eig] == ["eigensolve.dense"]
    assert eig[0]["dim"] == 64 and eig[0]["max_residual"] > 0


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def test_wrappers_are_removed_afterwards():
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    patched = {key for key, value in _bindings().items() if before[key] is not value}
    t.uninstall()
    after = _bindings()
    assert patched, "install patched nothing"
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_listed_sites_are_wrapped(installed):
    for module, name in REQUIRED_SITES:
        assert getattr(sys.modules[module], name).__wrapped_by_tracer__, (module, name)


def test_no_module_keeps_an_unwrapped_target(installed):
    originals = {getattr(sys.modules[m], a).__wrapped__ for m, a, _, _ in tracer.TARGETS}
    for (module, key), value in _bindings().items():
        assert value not in originals, f"{module}.{key} still binds the original"


def test_every_call_site_in_the_source_goes_through_a_wrapped_binding(installed):
    """Each call of a traced function in src/specgap is either a bare name in
    a module whose binding is wrapped, or ``alias.name`` where ``alias`` is a
    specgap module whose binding is wrapped."""
    targets = {a for _, a, _, _ in tracer.TARGETS}
    for path in sorted((ROOT / "src" / "specgap").glob("*.py")):
        module = sys.modules.get(f"specgap.{path.stem}") if path.stem != "__init__" else specgap
        if module is None:
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in targets:
                owner = module
            elif isinstance(func, ast.Attribute) and func.attr in targets and isinstance(func.value, ast.Name):
                owner = vars(module).get(func.value.id)
                if not isinstance(owner, type(sys)):
                    continue  # a method of some object, not a module lookup
            else:
                continue
            name = func.id if isinstance(func, ast.Name) else func.attr
            bound = getattr(owner, name)
            assert getattr(bound, "__wrapped_by_tracer__", False), f"{path.name}:{node.lineno} calls {name} unwrapped"


# ---------------------------------------------------------------------------
# traced and untraced runs write the same bytes
# ---------------------------------------------------------------------------


def _cli(argv, tmp_path, traced):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    if traced:
        argv = [str(BENCH / "tracer.py"), str(tmp_path / "spans.json"), *argv]
    else:
        argv = ["-m", "specgap", *argv]
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "fd", "--problem", "kohn", "--dims", "1,1,1", "--grid", "5,5,5", "--count", "6"],
        ["bound", "--ineq", "all", "--eigs", "box.csv", "--n", "2"],
        ["verify", "spectrum", "--eigs", "box.csv", "--n", "2", "--slack", "0"],
        ["verify", "abstract", "--trials", "4", "--dim", "5", "--nops", "2", "--couple", "neg-power:-1,1", "--seed", "3"],
    ],
)
def test_traced_output_is_byte_identical(argv, tmp_path):
    (tmp_path / "box.csv").write_text(ref.spectrum_csv(ref.box_spectrum((1.0, 1.3), 40) ** 2, ref.EUCLIDEAN, 2, 2))
    plain_rc, plain = _cli(argv, tmp_path, traced=False)
    traced_rc, traced = _cli(argv, tmp_path, traced=True)
    assert plain_rc == traced_rc == 0
    assert plain and traced == plain
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans and spans[0]["name"] == "cli.main"


# ---------------------------------------------------------------------------
# references, checks and the benchmark description
# ---------------------------------------------------------------------------


def test_references_match_the_operators_they_describe():
    np.testing.assert_allclose(
        ref.fd_laplacian_spectrum((1.0, 1.5), (6, 7), 42),
        np.linalg.eigvalsh(operators.fd_laplacian((1.0, 1.5), (6, 7)).matrix.toarray()),
        rtol=1e-12,
    )
    np.testing.assert_allclose(
        ref.clamped_plate_matrix((1.0, 1.0), (6, 6)), operators.fd_clamped_plate((1.0, 1.0), (6, 6)).matrix.toarray()
    )
    np.testing.assert_allclose(
        ref.kohn_matrix((1.0, 1.0, 1.0), (4, 5, 6)), operators.kohn_fd(1, (1.0, 1.0, 1.0), (4, 5, 6)).matrix.toarray()
    )
    np.testing.assert_allclose(ref.box_spectrum((1.0, 1.7), 300), operators.box_spectrum((1.0, 1.7), 300).values)
    for problem in (ref.EUCLIDEAN, ref.HEISENBERG):
        for l in (1, 2, 3, 4, 5):
            want = {n for n in bounds.registry_names(problem, l) if bounds.REGISTRY[n].form != "verify-only"}
            assert ref.applicable_bounds(problem, l) == want
    assert len(bounds.REGISTRY) == ref.REGISTRY_SIZE


def test_checks_reject_wrong_output():
    spectrum = workloads._spectrum_check(lambda: np.array([1.0, 2.0]))
    assert spectrum("# x\n1\n2\n") is None
    assert spectrum("1\n2.0000001\n") is not None
    assert spectrum("1\n") is not None

    bound = workloads._bound_check(ref.HEISENBERG, 1, 5.0)
    good = [{"name": "kohn-yang-l1", "value": 6.0, "valid": True}, {"name": "niuzhang-l1", "value": 7.0, "valid": True}]
    assert bound("\n".join(json.dumps(r) for r in good)) is None
    assert bound(json.dumps(good[0])) is not None
    low = [good[0], {**good[1], "value": 4.0}]
    assert bound("\n".join(json.dumps(r) for r in low)) is not None

    abstract = workloads._verify_abstract_check(1)
    summary = {"summary": True, "trials": 1, "checks": 1, "failures": 0}
    assert abstract('{"pass": true}\n' + json.dumps(summary)) is None
    assert abstract('{"pass": false}\n' + json.dumps({**summary, "failures": 1})) is not None


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER_UNITS


def test_end_to_end_times_are_window_means():
    inv = lambda wall, cpu, rss: run.Invocation(wall, cpu, rss, 0)  # noqa: E731
    passes = [
        run.Pass(False, 3.0, [inv(1.0, 1.5, 10.0), inv(2.0, 2.0, 30.0)], [b"", b""]),
        run.Pass(False, 5.0, [inv(2.0, 2.5, 12.0), inv(3.0, 3.0, 20.0)], [b"", b""]),
        run.Pass(False, 10.0, [inv(4.0, 4.5, 14.0), inv(6.0, 6.0, 40.0)], [b"", b""]),
    ]
    metrics = run.end_to_end_metrics(passes, [0.5, 0.1, 0.3])
    assert metrics == {"wall_s": 6.0, "cpu_s": 6.5, "peak_rss_mb": 30.0, "setup_s": 0.3}
