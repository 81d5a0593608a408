"""Out-of-program tracing of the specgap layers.

``Tracer.install`` replaces the public functions listed in ``TARGETS`` with
wrappers, in every ``specgap`` module namespace that binds them, so internal
calls (``compute_bound`` computing its cap bounds, ``abstract`` calling
``dense_symmetric_eig``) are seen as well as the CLI's.  Each wrapper keeps a
span in memory -- name, start, end, parent -- plus the counters it reads from
the returned object (``BoundResult``, ``EigResult``, ``MembershipReport``).
``Tracer.uninstall`` puts the original functions back.

Run as a script, this module is the traced child process of the benchmark::

    PYTHONPATH=src python3 bench/tracer.py SPANS.json <specgap arguments...>

It installs the wrappers, calls ``specgap.cli.main`` with the arguments, and
writes the spans to SPANS.json when the command ends.  ``layer_metrics``
turns the spans of one batch into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict

# solver forms of the bound registry, as metric names use them
FORMS = ("closed", "quadratic", "monotone", "largest_root")
# upper ends of the prefix-length buckets of bounds.<form>.us_per_call.*
K_BUCKETS = (("k10", 10), ("k100", 100), ("k1000", 1000))


# ---------------------------------------------------------------------------
# what is traced: (defining module, function, span name, observer)
# ---------------------------------------------------------------------------


def _bound_name(args, kwargs):
    name = args[0] if args else kwargs["name"]
    return "bounds." + sys.modules["specgap.bounds"].REGISTRY[name].form.replace("-", "_")


def _observe_bound(span, args, kwargs, result):
    prefix = args[1] if len(args) > 1 else kwargs["prefix"]
    k = args[2] if len(args) > 2 else kwargs.get("k")
    span["k"] = len(prefix) if k is None else int(k)
    span["iterations"] = int(result.iterations)
    span["invalid"] = int(not result.valid)


def _observe_eig(span, args, kwargs, result):
    span["name"] = "eigensolve.lanczos" if result.method == "lanczos" else "eigensolve.dense"
    matrix = args[0] if args else next(iter(kwargs.values()))
    span["dim"] = int(getattr(matrix, "matrix", matrix).shape[0])
    span["basis"] = int(result.iterations)
    span["unconverged"] = int(not result.converged)
    residuals = result.residuals
    span["max_residual"] = float(max(residuals)) if residuals is not None and len(residuals) else 0.0


def _observe_build(span, args, kwargs, result):
    span["nnz"] = int(result.matrix.nnz)


def _observe_parse(span, args, kwargs, result):
    span["text"] = args[0] if args else kwargs["text"]


def _observe_certify(span, args, kwargs, result):
    span["checked"] = int(result.n_checked)
    span["skipped"] = int(result.n_skipped)


TARGETS = (
    ("specgap.cli", "main", "cli.main", None),
    ("specgap.cli", "json_line", "cli.json_line", None),
    ("specgap.operators", "fd_laplacian", "operators.build", _observe_build),
    ("specgap.operators", "fd_clamped_plate", "operators.build", _observe_build),
    ("specgap.operators", "kohn_fd", "operators.build", _observe_build),
    ("specgap.operators", "operator_power_spectrum", "operators.power_spectrum", None),
    ("specgap.operators", "read_spectrum_csv", "operators.read_csv", None),
    ("specgap.eigensolve", "smallest_eigs", "eigensolve", _observe_eig),
    ("specgap.eigensolve", "dense_symmetric_eig", "eigensolve", _observe_eig),
    ("specgap.bounds", "compute_bound", _bound_name, _observe_bound),
    ("specgap.bounds", "verify_margins", "bounds.verify_margins", None),
    ("specgap.couples", "parse_couple_spec", "couples.parse", _observe_parse),
    ("specgap.couples", "certify_on_samples", "couples.certify", _observe_certify),
    ("specgap.abstract", "random_instance", "abstract.random_instance", None),
    ("specgap.abstract", "admissible_ks", "abstract.admissible_ks", None),
    ("specgap.abstract", "verify_theorem", "abstract.verify_theorem", None),
)

# A call made while a span of this layer is open is part of that span: the
# dense fallback of smallest_eigs is one eigensolve, not two.
FLAT_LAYER = "eigensolve"


def specgap_modules() -> list:
    """Every imported module of the specgap package, the package included."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "specgap" or name.startswith("specgap."))
    ]


class Tracer:
    """Spans of one process, and the patches that record them."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, fn, name, observe=None):
        """``fn`` recording one span per call; ``name`` is a string or a
        function of the call's (args, kwargs)."""
        layer = name if isinstance(name, str) else None
        flat = layer == FLAT_LAYER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if flat and self._open and self.spans[self._open[-1]]["name"].startswith(layer):
                return fn(*args, **kwargs)
            span = {
                "name": layer or name(args, kwargs),
                "parent": self._open[-1] if self._open else -1,
                "start": time.perf_counter(),
            }
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self, targets=TARGETS) -> None:
        """Patch every binding of each target in the imported specgap modules."""
        for module_name, _, _, _ in targets:
            importlib.import_module(module_name)
        modules = specgap_modules()
        for module_name, attr, name, observe in targets:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(original, name, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# from spans to metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span["parent"] >= 0:
            children[span["parent"]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered, reach = 0.0, start
        for a, b in sorted((spans[c]["start"], spans[c]["end"]) for c in children[i]):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def layer_metric_names() -> list[str]:
    """Names of the metrics ``layer_metrics`` computes, in report order."""
    names = [
        "cli.main.self_s",
        "cli.json_line.calls",
        "cli.json_line.self_s",
        "operators.build.self_s",
        "operators.build.nnz",
        "operators.power_spectrum.self_s",
        "operators.read_csv.self_s",
        "eigensolve.dense.calls",
        "eigensolve.dense.self_s",
        "eigensolve.lanczos.calls",
        "eigensolve.lanczos.self_s",
        "eigensolve.lanczos.basis",
        "eigensolve.lanczos.basis_frac",
        "eigensolve.max_residual",
        "eigensolve.unconverged",
    ]
    for form in FORMS:
        names += [f"bounds.{form}.{m}" for m in ("calls", "self_s", "iterations", "invalid")]
        names += [f"bounds.{form}.us_per_call.{b}" for b, _ in K_BUCKETS]
    names += [
        "bounds.largest_root.cap_calls",
        "bounds.verify_margins.self_s",
        "couples.parse.calls",
        "couples.parse.distinct",
        "couples.certify.calls",
        "couples.certify.self_s",
        "couples.certify.pairs_checked",
        "couples.certify.pairs_skipped",
        "abstract.random_instance.calls",
        "abstract.random_instance.self_s",
        "abstract.admissible_ks.self_s",
        "abstract.verify_theorem.calls",
        "abstract.verify_theorem.self_s",
    ]
    return names


def layer_metrics(processes: list[list[dict]]) -> dict:
    """Per-layer metrics of one batch, from the spans of each of its
    processes.  Returns the metrics and the summed self time of all spans."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    count = defaultdict(float)
    bucket_s = defaultdict(float)
    bucket_n = defaultdict(int)
    texts = set()
    max_residual = 0.0
    for spans in processes:
        selfs = self_times(spans)
        for span, own in zip(spans, selfs):
            name = span["name"]
            calls[name] += 1
            self_s[name] += own
            for key in ("nnz", "basis", "dim", "unconverged", "iterations", "invalid", "checked", "skipped"):
                count[f"{name}.{key}"] += span.get(key, 0)
            max_residual = max(max_residual, span.get("max_residual", 0.0))
            if "text" in span:
                texts.add(span["text"])
            if name.startswith("bounds.") and "k" in span:
                bucket = next((b for b, top in K_BUCKETS if span["k"] <= top), None)
                if bucket:
                    bucket_s[(name, bucket)] += own
                    bucket_n[(name, bucket)] += 1
                if span["parent"] >= 0 and spans[span["parent"]]["name"] == "bounds.largest_root":
                    count["bounds.largest_root.cap_calls"] += 1

    lanczos_dim = count["eigensolve.lanczos.dim"]
    m = {
        "cli.main.self_s": self_s["cli.main"],
        "cli.json_line.calls": calls["cli.json_line"],
        "cli.json_line.self_s": self_s["cli.json_line"],
        "operators.build.self_s": self_s["operators.build"],
        "operators.build.nnz": count["operators.build.nnz"],
        "operators.power_spectrum.self_s": self_s["operators.power_spectrum"],
        "operators.read_csv.self_s": self_s["operators.read_csv"],
        "eigensolve.dense.calls": calls["eigensolve.dense"],
        "eigensolve.dense.self_s": self_s["eigensolve.dense"],
        "eigensolve.lanczos.calls": calls["eigensolve.lanczos"],
        "eigensolve.lanczos.self_s": self_s["eigensolve.lanczos"],
        "eigensolve.lanczos.basis": count["eigensolve.lanczos.basis"],
        "eigensolve.lanczos.basis_frac": (
            count["eigensolve.lanczos.basis"] / lanczos_dim if lanczos_dim else 0.0
        ),
        "eigensolve.max_residual": max_residual,
        "eigensolve.unconverged": count["eigensolve.dense.unconverged"]
        + count["eigensolve.lanczos.unconverged"],
    }
    for form in FORMS:
        name = f"bounds.{form}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
        m[f"{name}.iterations"] = count[f"{name}.iterations"]
        m[f"{name}.invalid"] = count[f"{name}.invalid"]
        for bucket, _ in K_BUCKETS:
            n = bucket_n[(name, bucket)]
            m[f"{name}.us_per_call.{bucket}"] = 1e6 * bucket_s[(name, bucket)] / n if n else 0.0
    m.update(
        {
            "bounds.largest_root.cap_calls": count["bounds.largest_root.cap_calls"],
            "bounds.verify_margins.self_s": self_s["bounds.verify_margins"],
            "couples.parse.calls": calls["couples.parse"],
            "couples.parse.distinct": len(texts),
            "couples.certify.calls": calls["couples.certify"],
            "couples.certify.self_s": self_s["couples.certify"],
            "couples.certify.pairs_checked": count["couples.certify.checked"],
            "couples.certify.pairs_skipped": count["couples.certify.skipped"],
            "abstract.random_instance.calls": calls["abstract.random_instance"],
            "abstract.random_instance.self_s": self_s["abstract.random_instance"],
            "abstract.admissible_ks.self_s": self_s["abstract.admissible_ks"],
            "abstract.verify_theorem.calls": calls["abstract.verify_theorem"],
            "abstract.verify_theorem.self_s": self_s["abstract.verify_theorem"],
        }
    )
    return m, sum(self_s.values())


def median_metrics(batches: list[dict]) -> dict:
    return {name: statistics.median(b[name] for b in batches) for name in batches[0]}


def _main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return sys.modules["specgap.cli"].main(cli_args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
