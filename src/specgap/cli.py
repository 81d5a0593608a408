"""Batch command line front end.

Subcommands::

    spectrum box --dims 1,1 --count 4 [--out spec.csv]
    spectrum fd --problem laplacian|clamped|kohn --dims ... --grid ...
                [--power L] --count K [--out spec.csv]
    bound --ineq <name|all> --eigs spec.csv --n N [--l L] [--k K] [--problem P]
    verify abstract --trials T --dim D --nops N --couple SPEC --seed S
                    [--ensemble E] [--workers W] [--min-gap G] [--out f.jsonl]
    verify spectrum --eigs spec.csv --n N [--l L] [--problem P] [--slack TAU]
                    [--which a,b,...] [--out f.jsonl]
    couple check --spec SPEC [--samples M --seed S]

The front end parses flags and prints rows; the library decides what each
result is and is called.  ``spectrum fd`` writes the spectrum and labels of
``operators.fd_spectrum`` (how each problem is solved is told there), and
``bound`` and ``couple check`` write their result dataclasses field by
field; ``verify abstract`` writes each row from one template over the
``TheoremReport`` fields, the bytes ``json_line`` would write for them.
``spectrum box`` refuses the flags of ``spectrum fd``.  Each row of
``verify abstract`` binds its couple at lambda_{k+1}, the z = couple.lam the
library reads it at, so that command refuses a couple's own ``@lambda`` and a
tabulated couple; ``couple check`` refuses a table without ``@lambda``, and
``--samples`` and ``--seed`` for a table, which it checks at its own points.

Each command imports the modules it runs when it runs; only ``operators``
comes with this module, so ``spectrum`` loads no ``bounds``, ``couples`` or
``abstract``.  ``verify abstract`` imports the process pool only for
``--workers`` above 1, and checks ``--ensemble`` itself, not in the parser.

Exit codes: 0 all checks passed, 1 a mathematical violation was detected,
2 input or usage error.  Any run is reproducible from its flags (plus
--config JSON mirroring them); repeated runs emit byte-identical output,
independently of --workers.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import itertools
import json
import math
import os
import sys

import numpy as np

from . import operators
from .errors import SpecgapError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

TRIAL_WINDOW = 256  # trials a process pool maps at once in verify abstract


# ---------------------------------------------------------------------------
# deterministic serialization: floats at 17 significant digits
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _json_str(text: str) -> str:
    """json.dumps of a string; keys, names and notes repeat on every row."""
    return json.dumps(text)


def _fmt_json(value) -> str:
    if isinstance(value, float):  # first: most values are floats (np.float64 too)
        return format(float(value), ".17g") if math.isfinite(value) else "null"
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, dict):
        items = ",".join(f"{_json_str(str(k))}:{_fmt_json(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def json_line(obj: dict) -> str:
    return _fmt_json(obj)


def _output(path):
    """The --out file, or stdout when there is none, as a context manager.

    Callers write each line with one ``write`` call: ``print`` makes two,
    which are two system calls when stdout is unbuffered (PYTHONUNBUFFERED).
    """
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", newline="\n")
    except OSError as exc:
        raise SpecgapError(f"cannot write {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _parse_list(text: str, kind) -> tuple:
    """A comma separated list of ``kind`` (float or int); empty items are skipped."""
    try:
        return tuple(kind(p) for p in text.split(",") if p != "")
    except ValueError as exc:
        raise SpecgapError(f"bad {'integer' if kind is int else 'numeric'} list {text!r}") from exc


def _need(args, name: str):
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        raise SpecgapError(f"missing required flag --{name}")
    return value


def _finite_nonnegative(args, name: str, default: float) -> float:
    """A float flag that must be finite and >= 0: NaN or infinity would
    switch its check off."""
    value = getattr(args, name.replace("-", "_"))
    value = float(default if value is None else value)
    if not (math.isfinite(value) and value >= 0.0):
        raise SpecgapError(f"--{name} must be finite and >= 0, got {value}")
    return value


def _seed(args) -> int:
    """--seed, 0 when unset; a negative seed is refused, as numpy's seeding
    refuses it."""
    seed = int(args.seed if args.seed is not None else 0)
    if seed < 0:
        raise SpecgapError(f"--seed must be >= 0, got {seed}")
    return seed


def _load_eigs(path: str) -> tuple[np.ndarray, dict]:
    try:
        with open(path) as fh:
            return operators.read_spectrum_csv(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecgapError(f"cannot read eigenvalue file {path!r}: {exc}") from exc


def _load_couple_table(path: str):
    try:
        raw = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except OSError as exc:
        raise SpecgapError(f"cannot read couple table {path!r}: {exc}") from exc
    except ValueError as exc:
        raise SpecgapError(f"bad couple table {path!r}: {exc}") from exc
    if raw.shape[1] != 3:
        raise SpecgapError(f"couple table {path!r} needs rows x,f,g")
    return raw[:, 0], raw[:, 1], raw[:, 2]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    fd_flags = [f"--{flag}" for flag in ("grid", "problem", "power") if getattr(args, flag) is not None]
    if args.kind == "box" and fd_flags:
        raise SpecgapError(f"spectrum box takes no {', '.join(fd_flags)}: they are flags of spectrum fd")
    dims = _parse_list(_need(args, "dims"), float)
    count = int(_need(args, "count"))
    if args.kind == "box":
        prefix, labels = operators.box_spectrum(dims, count), {}
    else:
        grid = _parse_list(_need(args, "grid"), int)
        problem = _need(args, "problem")
        power = int(args.power if args.power is not None else 1)
        prefix, labels = operators.fd_spectrum(problem, dims, grid, power, count)
    meta = {"generator": f"spectrum {args.kind}", "dims": ",".join(f"{d:g}" for d in dims),
            "problem": prefix.problem, "n": prefix.n, "l": prefix.l, **labels}  # fmt: skip
    with _output(args.out) as out:
        operators.write_spectrum_csv(out, prefix.values, meta)
    return EXIT_OK


def _prefix_from_args(args, values: np.ndarray, meta: dict, default_problem=None):
    n = int(_need(args, "n"))
    l = args.l if args.l is not None else meta.get("l", 1)
    try:
        l = int(l)
    except ValueError:
        raise SpecgapError(f"spectrum metadata '# l: {l}' is not an integer") from None
    problem = args.problem or meta.get("problem") or default_problem or operators.EUCLIDEAN
    return operators.SpectrumPrefix(values, n=n, l=l, problem=problem)


def cmd_bound(args) -> int:
    from . import bounds
    name = _need(args, "ineq")
    values, meta = _load_eigs(_need(args, "eigs"))
    desc = bounds.REGISTRY.get(name)
    prefix = _prefix_from_args(args, values, meta, default_problem=desc.problem if desc else None)
    k = int(args.k) if args.k is not None else len(prefix)
    if name == "all":
        names = [
            reg_name
            for reg_name in bounds.registry_names(prefix.problem, prefix.l)
            if bounds.REGISTRY[reg_name].extracts_bound
        ]
    else:
        names = [name]
    with _output(args.out) as out:
        for reg_name in names:
            out.write(json_line(dataclasses.asdict(bounds.compute_bound(reg_name, prefix, k))) + "\n")
    return EXIT_OK


def _abstract_trial_worker(payload) -> list[tuple]:
    """(trial, couple text, TheoremReport) of each row of one trial; the
    couple text is its JSON string, the couple's head then lambda_(k+1)."""
    from . import abstract
    (t, seed, dim, nops, ensemble, couple_heads, min_gap) = payload
    triple = abstract.random_instance(dim, nops, seed + t, ensemble)
    lam = triple.spectral.lam
    rows: list[tuple] = []
    for k in abstract.admissible_ks(triple, min_gap):
        z = float(lam[k])
        tail = format(z, "g") + '"'
        for spec, head in couple_heads:
            rows.append((t, head + tail, abstract.verify_theorem(triple, k, spec.bind(z))))
    return rows


def _couple_heads(specs) -> tuple:
    """(spec, head) of each couple of ``verify abstract``: the head is the
    JSON string of the couple's ``describe()`` up to its lambda, which a row
    appends as describe() writes it, format(lambda, "g"), a text with no
    character that JSON escapes."""
    return tuple((spec, json.dumps(spec.bind(1.0).describe()).rpartition("@")[0] + "@") for spec in specs)


def _abstract_row(trial: int, couple_text: str, rep) -> str:
    """One ``verify abstract`` line from one template over the TheoremReport
    fields that ``verify_theorem`` sets: the bytes ``json_line`` writes for
    {"trial": trial, "couple": couple.describe()} followed by the fields in
    order, ``passed`` as "pass"."""
    return (
        f'{{"trial":{trial},"couple":{couple_text},"k":{rep.k},"lhs":{_fmt_json(rep.lhs)},'
        f'"rhs":{_fmt_json(rep.rhs)},"quad_coeff":{_fmt_json(rep.quad_coeff)},"gap":{_fmt_json(rep.gap)},'
        f'"pass":{"true" if rep.passed else "false"},"z":{_fmt_json(rep.z)},"slack":{_fmt_json(rep.slack)}}}\n'
    )


def _trial_rows(payload: tuple, trials: int, workers: int):
    """The rows of each trial, in trial order, computed as they are consumed:
    in this process, or by a pool of ``workers`` processes mapping windows of
    TRIAL_WINDOW trials, so memory stays bounded for any ``trials``."""
    payloads = ((t, *payload) for t in range(trials))
    if workers == 1:
        yield from map(_abstract_trial_worker, payloads)
        return
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for _ in range(0, trials, TRIAL_WINDOW):
            yield from pool.map(_abstract_trial_worker, itertools.islice(payloads, TRIAL_WINDOW), chunksize=8)


def cmd_verify_abstract(args) -> int:
    from . import abstract, couples  # before any pool starts: forked workers inherit them
    trials = int(_need(args, "trials"))
    if trials < 1:
        raise SpecgapError(f"--trials must be at least 1, got {trials}")
    dim = int(_need(args, "dim"))
    nops = int(_need(args, "nops"))
    seed = _seed(args)
    ensemble = args.ensemble or "dense-gaussian"
    if ensemble not in abstract.ENSEMBLES:
        raise SpecgapError(f"unknown --ensemble {ensemble!r} ({'|'.join(abstract.ENSEMBLES)})")
    workers = int(args.workers if args.workers is not None else 1)
    if workers < 1:
        raise SpecgapError(f"--workers must be at least 1, got {workers}")
    # the CPUs this process may run on, not the machine's count
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, cpus)
    min_gap = _finite_nonnegative(args, "min-gap", 1e-6)
    couple_texts = args.couple or ["equal-power:2"]
    specs = tuple(couples.parse_couple_spec(text) for text in couple_texts)
    for text, spec in zip(couple_texts, specs):
        if spec.lam is not None:  # each row reads its couple's lambda as z = lambda_(k+1)
            raise SpecgapError(f"couple {text!r} sets lambda: verify abstract binds each couple at lambda_(k+1)")
        if spec.family == couples.TABULATED:  # no table holds lambda_1..lambda_k below lambda_(k+1) for two k
            raise SpecgapError(f"couple {text!r} is tabulated: verify abstract binds each couple at lambda_(k+1)")

    trial_rows = _trial_rows((seed, dim, nops, ensemble, _couple_heads(specs), min_gap), trials, workers)

    # workers is an execution knob, not part of the mathematical run: output
    # is identical for any worker count, so it is not echoed in the summary
    config = {
        "command": "verify abstract",
        "trials": trials,
        "dim": dim,
        "nops": nops,
        "couple": list(couple_texts),
        "seed": seed,
        "ensemble": ensemble,
        "min_gap": min_gap,
    }
    checks = passes = 0
    worst = -math.inf
    with _output(args.out) as out:
        for rows in trial_rows:
            for trial, couple_text, rep in rows:
                checks += 1
                passes += rep.passed
                worst = max(worst, rep.slack / (1.0 + abs(rep.rhs)))
                out.write(_abstract_row(trial, couple_text, rep))
        summary = {
            "summary": True,
            "trials": trials,
            "checks": checks,
            "passes": passes,
            "failures": checks - passes,
            "worst_relative_slack": worst if checks else None,
            "config": config,
        }
        out.write(json_line(summary) + "\n")
    return EXIT_OK if passes == checks else EXIT_VIOLATION


def cmd_verify_spectrum(args) -> int:
    from . import bounds
    values, meta = _load_eigs(_need(args, "eigs"))
    slack = _finite_nonnegative(args, "slack", 1e-3)
    which = args.which.split(",") if args.which else None
    full = _prefix_from_args(args, values, meta)  # validates sortedness and positivity
    table = bounds.verify_margins(full, which=which)
    flagged = table.violations(slack)
    violations = int(flagged.sum())
    config = {
        "command": "verify spectrum",
        "eigs": args.eigs,
        "n": full.n,
        "l": full.l,
        "problem": full.problem,
        "slack": slack,
        "which": which,
    }
    with _output(args.out) as out:
        # Python values for one prefix length's entries at a time: lists of the
        # whole table would set the command's peak memory
        for k, z, *cells in zip(table.ks.tolist(), table.z.tolist(), table.margin, table.bound, table.valid, flagged):
            cells = [cell.tolist() for cell in cells]
            for name, notes, margin, bound, valid, violation in zip(table.names, table.notes, *cells):
                row = {"k": k, "candidate": z, "name": name, "margin": margin, "bound": bound,
                       "valid": valid, "note": notes[valid], "violation": violation}
                out.write(json_line(row) + "\n")
        summary = {"summary": True, "ks": len(full) - 1, "violations": violations, "config": config}
        out.write(json_line(summary) + "\n")
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_couple(args) -> int:
    from . import couples
    text = _need(args, "spec")
    spec = couples.parse_couple_spec(text)
    lam = spec.lam if spec.lam is not None else 1.0
    if spec.family == couples.TABULATED:
        if spec.lam is None:  # a table's admissibility depends on lambda; a power family's does not
            raise SpecgapError(f"couple check needs @lambda with a tabulated spec, got {text!r}")
        drawn = [f"--{flag}" for flag in ("samples", "seed") if getattr(args, flag) is not None]
        if drawn:  # the table points are the samples: nothing is drawn
            raise SpecgapError(
                f"couple check takes no {', '.join(drawn)} with a tabulated spec: it checks the table points"
            )
        couple = spec.bind(lam, _load_couple_table(spec.table_path))
        samples = couple.table[0]
    else:
        couple = spec.bind(lam)
        m = int(args.samples if args.samples is not None else 32)
        if m < 2:
            raise SpecgapError("need at least 2 samples")
        if m > couples.MAX_MEMBERSHIP_SAMPLES:  # refused before the draw allocates m floats
            raise SpecgapError(f"{m} samples exceed the cap of {couples.MAX_MEMBERSHIP_SAMPLES}")
        rng = np.random.default_rng(_seed(args))
        samples = lam * rng.uniform(1e-6, 1.0 - 1e-6, size=m)
    report = couples.certify_on_samples(couple, samples)
    if np.ptp(samples) == 0:  # a certificate with no pair to check certifies nothing
        raise SpecgapError("need at least 2 distinct sample points")
    row = {"spec": text, "lambda": lam, "n_samples": int(np.asarray(samples).size)}
    row.update(dataclasses.asdict(report))
    if couple.family != couples.TABULATED:
        screen = couples.check_necessary_differentiable(couple, samples)
        row["differentiable_screen"] = {"passed": screen.passed, "worst_margin": screen.worst}
    with _output(args.out) as out:
        out.write(json_line(row) + "\n")
    return EXIT_OK if report.passed else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specgap",
        description="Universal eigenvalue bounds: spectra, bounds, verification.",
    )
    parser.add_argument("--config", help="JSON file mirroring the flags of the subcommand")
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="generate eigenvalue spectra as CSV")
    p_spec.add_argument("kind", choices=("box", "fd"))
    p_spec.add_argument("--dims", help="box side lengths, comma separated")
    p_spec.add_argument("--grid", help="interior points per axis, comma separated")
    p_spec.add_argument("--problem", choices=operators.FD_PROBLEMS, help="fd problem")
    p_spec.add_argument("--power", type=int, help="operator power l (default 1)")
    p_spec.add_argument("--count", type=int, help="number of eigenvalues")
    p_spec.add_argument("--out", help="output CSV path (default stdout)")
    p_spec.set_defaults(func=cmd_spectrum)

    p_bound = sub.add_parser("bound", help="compute a named bound from a spectrum prefix")
    p_bound.add_argument("--ineq", help="registry name or 'all'")
    p_bound.add_argument("--eigs", help="CSV of the eigenvalue prefix")
    p_bound.add_argument("--n", type=int, help="dimension / Heisenberg parameter")
    p_bound.add_argument("--l", type=int, help="operator power (default from CSV metadata or 1)")
    p_bound.add_argument("--k", type=int, help="prefix length to use (default all)")
    p_bound.add_argument("--problem", choices=operators.PROBLEMS, help="problem family")
    p_bound.add_argument("--out", help="output JSONL path (default stdout)")
    p_bound.set_defaults(func=cmd_bound)

    p_verify = sub.add_parser("verify", help="verification suites")
    vsub = p_verify.add_subparsers(dest="verify_what", required=True)

    p_va = vsub.add_parser("abstract", help="randomized commutator inequality trials")
    p_va.add_argument("--trials", type=int)
    p_va.add_argument("--dim", type=int)
    p_va.add_argument("--nops", type=int)
    p_va.add_argument("--couple", action="append", help="couple spec (repeatable)")
    p_va.add_argument("--seed", type=int)
    p_va.add_argument("--ensemble", help="random matrix ensemble (default dense-gaussian)")
    p_va.add_argument("--workers", type=int, help="worker processes, >= 1; capped at the CPUs this process may use")
    p_va.add_argument("--min-gap", dest="min_gap", type=float)
    p_va.add_argument("--out")
    p_va.set_defaults(func=cmd_verify_abstract)

    p_vs = vsub.add_parser("spectrum", help="margins of every applicable bound along a spectrum")
    p_vs.add_argument("--eigs")
    p_vs.add_argument("--n", type=int)
    p_vs.add_argument("--l", type=int)
    p_vs.add_argument("--problem", choices=operators.PROBLEMS)
    p_vs.add_argument("--slack", type=float, help="relative slack (default 1e-3 for FD spectra)")
    p_vs.add_argument("--which", help="comma separated descriptor names")
    p_vs.add_argument("--out")
    p_vs.set_defaults(func=cmd_verify_spectrum)

    p_couple = sub.add_parser("couple", help="couple admissibility checks")
    p_couple.add_argument("action", choices=("check",))
    p_couple.add_argument("--spec", help="family:params@lambda")
    p_couple.add_argument("--samples", type=int)
    p_couple.add_argument("--seed", type=int)
    p_couple.add_argument("--out")
    p_couple.set_defaults(func=cmd_couple)

    return parser


# the positionals that name a subcommand after its first word
_SUBCOMMAND_WORDS = ("verify_what", "kind", "action")
# namespace entries the parser sets that are not flags of a subcommand
_NOT_FLAGS = frozenset({"config", "command", "func", *_SUBCOMMAND_WORDS})


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Fill each flag left unset on the command line from the --config file.

    A value is parsed as the flag's command-line text would be, so it passes
    the flag's type and choices; a list is repeated flags.  Anything else
    raises SpecgapError naming the key.
    """
    if not args.config:
        return
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecgapError(f"cannot load config {args.config!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise SpecgapError("config must be a JSON object mirroring the flags")
    flags = vars(args).keys() - _NOT_FLAGS
    unknown = [key for key in cfg if key.replace("-", "_") not in flags]
    if unknown:
        raise SpecgapError(f"config keys {unknown} are not flags of this subcommand")
    words = [args.command] + [getattr(args, w) for w in _SUBCOMMAND_WORDS if hasattr(args, w)]
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if value is None or getattr(args, attr) is not None:
            continue
        flag = "--" + attr.replace("_", "-")
        items = value if isinstance(value, list) else [value]
        argparse_err = io.StringIO()
        try:  # argparse writes usage and its reason to stderr, then exits
            with contextlib.redirect_stderr(argparse_err):
                parsed = getattr(parser.parse_args(words + [f"{flag}={item}" for item in items]), attr)
        except SystemExit:
            reason = argparse_err.getvalue().rsplit("error: ", 1)[-1].strip()
            raise SpecgapError(f"config key {key!r}: {reason}") from None
        if isinstance(value, list) and not isinstance(parsed, list):
            raise SpecgapError(f"config key {key!r}: {flag} takes one value, not a list")
        setattr(args, attr, parsed)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(parser, args)
        return args.func(args)
    except SpecgapError as exc:
        print(f"specgap: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # numpy has loaded by now, too late for __main__.py's BLAS setting
    print("specgap: run `python -m specgap` or the installed `specgap` script", file=sys.stderr)
    sys.exit(EXIT_USAGE)
