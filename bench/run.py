"""Benchmark of the specgap command line, end to end and layer by layer.

Run from the root of a specgap checkout::

    python3 bench/run.py --workload fd-spectrum --seed 1 --seconds 32 --trace 0

Each workload is a fixed batch of ``python -m specgap ...`` processes, run
one at a time by a single client (a closed loop).  A run

1. imports specgap once, untimed, so its bytecode is compiled;
2. sets up at least three times and for at least four seconds -- a cold
   ``python -c "import specgap"`` plus writing the workload's input files --
   and reports the median as ``setup_s``;
3. within a window of ``--seconds``: runs the batch once untimed if this
   checkout has not run the workload before (the warm-up pass: bytecode and
   page cache persist in the checkout), and otherwise only its last command
   (the first timed pass of a run was often the slowest), then repeats the
   batch while the next
   pass still fits in the window, at least twice (with ``--trace 1`` the
   passes alternate untraced and traced);
4. checks every output against an independent reference (and that every pass
   wrote the same bytes), then prints one JSON line with the metrics.

With ``--trace 0`` the metrics are the end-to-end ones: wall and CPU time per
batch over all passes of the window (inverse throughput), the largest
per-command median max-RSS, and the median set-up time.
With ``--trace 1`` the traced passes run each command under
``bench/tracer.py`` and the metrics are the per-layer ones.  Every run also
writes ``.bench_runs/BENCH_<workload>_seed<seed>_trace<0|1>.json`` with the
machine, the environment and every pass.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3  # at least; set-up repeats until it has also taken SETUP_SECONDS
SETUP_SECONDS = 4.0
IMPORT_REPEATS = 5
MIN_PASSES = 2  # a median needs more than one sample, traced or not
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark could not run (as opposed to the program failing a check)."""


@dataclass
class Invocation:
    wall: float
    cpu: float
    rss_mb: float
    returncode: int


def run_process(argv, env, cwd, stdout_path, stderr_path) -> Invocation:
    """Run argv to completion with stdout and stderr sent to files; return its
    wall time and its own resource usage."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


@dataclass
class Pass:
    traced: bool
    wall: float
    invocations: list
    outputs: list  # bytes written by each command
    spans: list = field(default_factory=list)  # per command, when traced

    @property
    def cpu(self) -> float:
        return sum(i.cpu for i in self.invocations)

    @property
    def rss_mb(self) -> float:
        return max(i.rss_mb for i in self.invocations)


class Runner:
    """Starts specgap processes from a checkout and keeps their files under
    ``.bench_runs/<workload>/``."""

    def __init__(self, root: Path, workload: str):
        self.root = root
        self.work = root / ".bench_runs" / workload
        self.inputs = self.work / "in"
        for d in (self.work, self.inputs):
            d.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def rel(self, path: Path) -> str:
        return str(path.relative_to(self.root))

    def process(self, argv, tag: str) -> Invocation:
        """Run the interpreter with ``argv``; output goes to ``<tag>.out``."""
        out, err = self.work / f"{tag}.out", self.work / f"{tag}.err"
        return run_process([sys.executable, *argv], self.env, self.root, out, err)

    def import_specgap(self) -> Invocation:
        inv = self.process(["-c", "import specgap"], "import")
        if inv.returncode != 0:
            raise BenchError(f"python -c 'import specgap' failed: {(self.work / 'import.err').read_text()}")
        return inv

    def bare_python(self) -> Invocation:
        return self.process(["-c", "pass"], "bare")

    # -- set-up helpers the workloads call ---------------------------------

    def write(self, name: str, text: str) -> str:
        path = self.inputs / name
        path.write_text(text)
        return self.rel(path)

    def specgap(self, name: str, args: list) -> str:
        """Run a set-up command that writes input file ``name``."""
        path = self.rel(self.inputs / name)
        inv = self.process(["-m", "specgap", *args, "--out", path], "setup")
        if inv.returncode != 0:
            raise BenchError(f"set-up command {args} failed: {(self.work / 'setup.err').read_text()}")
        return path

    # -- the timed batch ---------------------------------------------------

    def run_pass(self, commands, traced: bool) -> Pass:
        invocations, spans_paths = [], []
        start = time.perf_counter()
        for i, cmd in enumerate(commands):
            if traced:
                spans_path = self.work / f"cmd{i}.spans.json"
                spans_paths.append(spans_path)
                argv = [str(BENCH_DIR / "tracer.py"), self.rel(spans_path), *cmd.args]
            else:
                argv = ["-m", "specgap", *cmd.args]
            invocations.append(self.process(argv, f"cmd{i}"))
        wall = time.perf_counter() - start
        outputs = [(self.work / f"cmd{i}.out").read_bytes() for i in range(len(commands))]
        spans = [json.loads(p.read_text()) if p.exists() else [] for p in spans_paths]
        for p in spans_paths:
            p.unlink(missing_ok=True)
        return Pass(traced, wall, invocations, outputs, spans)


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    info = {"vendor": deps.get("blas", {}).get("name"), "version": deps.get("blas", {}).get("version")}
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    info["threads"] = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "default"
    return info


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref_name = text[5:]
        loose = root / ".git" / ref_name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: Path, seed: int) -> dict:
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(root),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _useful_row_frac(outputs: list) -> float:
    """Data rows that carry an applicable result, over data rows written
    (summary lines and CSV comments are not data rows)."""
    rows = useful = 0
    for data in outputs:
        for line in data.decode().splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            if line.startswith("{"):
                row = json.loads(line)
                if row.get("summary"):
                    continue
                useful += not str(row.get("note", "")).startswith("inapplicable")
            else:
                useful += 1
            rows += 1
    return useful / rows if rows else 1.0


def end_to_end_metrics(passes: list, setups: list) -> dict:
    """Wall and CPU time per batch over the whole window (total over passes,
    divided by the number of passes): the host's speed swings by up to 2x
    within seconds, and on short runs a median flips between its fast and slow
    phases, while the window's throughput averages them."""
    per_command = list(zip(*(p.invocations for p in passes)))
    return {
        "wall_s": statistics.fmean(p.wall for p in passes),
        "cpu_s": statistics.fmean(p.cpu for p in passes),
        "peak_rss_mb": max(statistics.median(i.rss_mb for i in runs) for runs in per_command),
        "setup_s": statistics.median(setups),
    }


def per_layer_metrics(passes: list, import_s: float) -> dict:
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    batches, unaccounted = [], []
    for p in traced:
        layers, total_self = tracer.layer_metrics(p.spans)
        batches.append(layers)
        covered = total_self + import_s * len(p.invocations)
        unaccounted.append((p.wall - covered) / p.wall)
    metrics = {"import.specgap_s": import_s}
    metrics.update(tracer.median_metrics(batches))
    metrics["cli.bytes_out"] = sum(len(o) for o in passes[0].outputs)
    metrics["cli.useful_row_frac"] = _useful_row_frac(passes[0].outputs)
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain) - 1.0
    )
    metrics["trace.unaccounted_frac"] = statistics.median(unaccounted)
    return metrics


def import_cost(runner: Runner) -> float:
    """Median fresh-interpreter ``import specgap`` minus median bare start."""
    with_import, bare = [], []
    for _ in range(IMPORT_REPEATS):
        with_import.append(runner.import_specgap().wall)
        bare.append(runner.bare_python().wall)
    return statistics.median(with_import) - statistics.median(bare)


def check_outputs(commands: list, passes: list) -> tuple[int, list]:
    """Failed invocations, and a message for each failing command.  An
    invocation fails on a nonzero exit code, on output that differs from the
    first pass, or when the first pass's output fails the command's check."""
    failed, errors = 0, []
    for i, cmd in enumerate(commands):
        first = passes[0].outputs[i]
        try:
            problem = cmd.check(first.decode())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        for n, p in enumerate(passes):
            bad = []
            if p.invocations[i].returncode != 0:
                bad.append(f"exit code {p.invocations[i].returncode}")
            if p.outputs[i] != first:
                bad.append("output differs from pass 0" + (" (traced)" if p.traced else ""))
            if problem:
                bad.append(problem)
            if bad:
                failed += 1
                errors.append(f"{cmd.label} pass {n}: {'; '.join(bad)}")
    return failed, errors


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    workload = WORKLOADS[workload_name]
    runner = Runner(root, workload_name)
    runner.import_specgap()  # compile bytecode, untimed

    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        start = time.perf_counter()
        runner.import_specgap()
        commands = workload.prepare(seed, runner)
        setups.append(time.perf_counter() - start)

    window = time.perf_counter()
    warmed = runner.work / "warmed"
    # warm-up, untimed: the whole batch the first time, later only its last
    # command, the shortest of each batch, so that it takes little of the window
    runner.run_pass(commands if not warmed.exists() else commands[-1:], traced=False)
    warmed.touch()

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(commands, traced=trace and len(passes) % 2 == 1))
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now - window + (now - start) / len(passes) > seconds:
            break

    failed, errors = check_outputs(commands, passes)
    attempted = len(passes) * len(commands)
    if trace:
        values = per_layer_metrics(passes, import_cost(runner))
        units = dict(PER_LAYER_UNITS)
    else:
        values = end_to_end_metrics(passes, setups)
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": workload_name,
        "why": workload.why,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(root, seed),
        "failed_frac": failed / attempted,
        "errors": errors,
        "setup_s": setups,
        "commands": [c.label for c in commands],
        "passes": [
            {
                "traced": p.traced,
                "wall_s": p.wall,
                "cpu_s": p.cpu,
                "peak_rss_mb": p.rss_mb,
                "per_command": [
                    {"wall_s": i.wall, "cpu_s": i.cpu, "rss_mb": i.rss_mb, "exit": i.returncode}
                    for i in p.invocations
                ],
            }
            for p in passes
        ],
        "result": result,
    }
    out = root / ".bench_runs" / f"BENCH_{workload_name}_seed{seed}_trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for line in errors:
        print(f"bench: {line}", file=sys.stderr)
    return result


def _per_layer_units() -> list:
    units = [("import.specgap_s", "s")]
    for name in tracer.layer_metric_names():
        if name.endswith("_s"):
            unit = "s"
        elif ".us_per_call." in name:
            unit = "us"
        elif name.endswith("_frac"):
            unit = "ratio"
        elif name == "eigensolve.max_residual":
            unit = "norm"
        else:
            unit = "count"
        units.append((name, unit))
    units += [
        ("cli.bytes_out", "bytes"),
        ("cli.useful_row_frac", "ratio"),
        ("trace.overhead_frac", "ratio"),
        ("trace.unaccounted_frac", "ratio"),
    ]
    return units


PER_LAYER_UNITS = _per_layer_units()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through run_process, which stops the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "specgap" / "__init__.py").is_file():
        print("bench: run from the root of a specgap checkout (src/specgap not found)", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
