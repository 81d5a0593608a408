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
    couple check --spec SPEC --samples M --seed S

Exit codes: 0 all checks passed, 1 a mathematical violation was detected,
2 input or usage error.  Any run is reproducible from its flags (plus
--config JSON mirroring them); repeated runs emit byte-identical output,
independently of --workers.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import abstract, bounds, couples, operators
from .errors import SpecgapError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


# ---------------------------------------------------------------------------
# deterministic serialization: floats at 17 significant digits
# ---------------------------------------------------------------------------


def _fmt_json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v) or math.isinf(v):
            return "null"
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ",".join(f"{json.dumps(str(k))}:{_fmt_json(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_fmt_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def json_line(obj: dict) -> str:
    return _fmt_json(obj)


class _Output:
    """stdout or a file, line oriented."""

    def __init__(self, path):
        self.path = path
        self._fh = None

    def __enter__(self):
        if self.path:
            self._fh = open(self.path, "w", newline="\n")
        return self

    def __exit__(self, *exc):
        if self._fh:
            self._fh.close()

    @property
    def stream(self):
        return self._fh or sys.stdout

    def line(self, text: str) -> None:
        self.stream.write(text + "\n")


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _parse_floats(text: str) -> tuple:
    try:
        return tuple(float(p) for p in text.split(",") if p != "")
    except ValueError as exc:
        raise SpecgapError(f"bad numeric list {text!r}") from exc


def _parse_ints(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(",") if p != "")
    except ValueError as exc:
        raise SpecgapError(f"bad integer list {text!r}") from exc


def _need(args, name: str):
    value = getattr(args, name.replace("-", "_"), None)
    if value is None:
        raise SpecgapError(f"missing required flag --{name}")
    return value


def _load_eigs(path: str) -> tuple[np.ndarray, dict]:
    try:
        with open(path) as fh:
            return operators.read_spectrum_csv(fh)
    except OSError as exc:
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


def _bind_couple(text: str, lam=None):
    spec = couples.parse_couple_spec(text)
    table = _load_couple_table(spec.table_path) if spec.family == couples.TABULATED else None
    return spec.bind(lam=lam, table=table)


@dataclass
class RunConfig:
    """Resolved flag set of one run; serialized into summary lines."""

    command: str
    options: dict

    def as_dict(self) -> dict:
        return {"command": self.command, **self.options}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_spectrum(args) -> int:
    kind = args.kind
    dims = _parse_floats(_need(args, "dims"))
    count = int(_need(args, "count"))
    meta = {"generator": f"spectrum {kind}", "dims": ",".join(f"{d:g}" for d in dims)}
    if kind == "box":
        prefix = operators.box_spectrum(dims, count)
        meta.update({"problem": prefix.problem, "n": prefix.n, "l": prefix.l})
    else:
        grid = _parse_ints(_need(args, "grid"))
        problem = _need(args, "problem")
        power = int(args.power if args.power is not None else 1)
        if problem == "laplacian":
            op = operators.fd_laplacian(dims, grid)
        elif problem == "clamped":
            op = operators.fd_clamped_plate(dims, grid)
        elif problem == "kohn":
            op = operators.kohn_fd(1, dims, grid)
        else:
            raise SpecgapError(f"unknown fd problem {problem!r} (laplacian|clamped|kohn)")
        prefix = operators.operator_power_spectrum(op, power, count)
        meta.update(
            {
                "problem": prefix.problem,
                "n": prefix.n,
                "l": prefix.l,
                "grid": ",".join(str(g) for g in op.npoints),
                "stencil": op.stencil,
            }
        )
        if problem == "laplacian" and power > 1:
            meta["spectrum-type"] = "navier-power"
    with _Output(args.out) as out:
        operators.write_spectrum_csv(out.stream, prefix.values, meta)
    return EXIT_OK


def _prefix_from_args(args, values: np.ndarray, meta: dict, default_problem=None):
    n = int(_need(args, "n"))
    l = int(args.l if args.l is not None else meta.get("l", 1))
    problem = args.problem or default_problem or meta.get("problem") or bounds.EUCLIDEAN
    return bounds.SpectrumPrefix(values, n=n, l=l, problem=problem)


def cmd_bound(args) -> int:
    name = _need(args, "ineq")
    values, meta = _load_eigs(_need(args, "eigs"))
    if name != "all":
        desc_problem = bounds.REGISTRY[name].problem if name in bounds.REGISTRY else None
        prefix = _prefix_from_args(args, values, meta, default_problem=desc_problem)
    else:
        prefix = _prefix_from_args(args, values, meta)
    k = int(args.k) if args.k is not None else len(prefix)
    with _Output(args.out) as out:
        if name == "all":
            for reg_name in bounds.registry_names(prefix.problem, prefix.l):
                if bounds.REGISTRY[reg_name].form == "verify-only":
                    continue
                res = bounds.compute_bound(reg_name, prefix, k)
                out.line(json_line(res.as_dict()))
        else:
            res = bounds.compute_bound(name, prefix, k)
            out.line(json_line(res.as_dict()))
    return EXIT_OK


def _abstract_trial_worker(payload) -> list[dict]:
    (t, seed, dim, nops, ensemble, couple_texts, min_gap) = payload
    triple = abstract.random_instance(dim, nops, seed + t, ensemble)
    lam = triple.spectral.lam
    rows: list[dict] = []
    for k in abstract.admissible_ks(triple, min_gap):
        z = float(lam[k])
        for text in couple_texts:
            couple = _bind_couple(text, lam=z)
            rep = abstract.verify_theorem(triple, k, couple, z)
            row = {"trial": t, "couple": couple.describe()}
            row.update(rep.as_dict())
            rows.append(row)
    return rows


def cmd_verify_abstract(args) -> int:
    trials = int(_need(args, "trials"))
    dim = int(_need(args, "dim"))
    nops = int(_need(args, "nops"))
    seed = int(args.seed if args.seed is not None else 0)
    ensemble = args.ensemble or "dense-gaussian"
    workers = int(args.workers if args.workers is not None else 1)
    min_gap = float(args.min_gap if args.min_gap is not None else 1e-6)
    couple_texts = args.couple or ["equal-power:2"]

    payloads = [(t, seed, dim, nops, ensemble, tuple(couple_texts), min_gap) for t in range(trials)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            all_rows = list(pool.map(_abstract_trial_worker, payloads, chunksize=8))
    else:
        all_rows = [_abstract_trial_worker(p) for p in payloads]

    # workers is an execution knob, not part of the mathematical run: output
    # is identical for any worker count, so it is not echoed in the summary
    config = RunConfig(
        "verify abstract",
        {
            "trials": trials,
            "dim": dim,
            "nops": nops,
            "couple": list(couple_texts),
            "seed": seed,
            "ensemble": ensemble,
            "min_gap": min_gap,
        },
    )
    checks = passes = 0
    worst = -math.inf
    with _Output(args.out) as out:
        for rows in all_rows:
            for row in rows:
                checks += 1
                passes += bool(row["pass"])
                worst = max(worst, row["slack"] / (1.0 + abs(row["rhs"])))
                out.line(json_line(row))
        summary = {
            "summary": True,
            "trials": trials,
            "checks": checks,
            "passes": passes,
            "failures": checks - passes,
            "worst_relative_slack": worst if checks else None,
            "config": config.as_dict(),
        }
        out.line(json_line(summary))
    return EXIT_OK if passes == checks else EXIT_VIOLATION


def cmd_verify_spectrum(args) -> int:
    values, meta = _load_eigs(_need(args, "eigs"))
    slack = float(args.slack if args.slack is not None else 1e-3)
    which = args.which.split(",") if args.which else None
    full = _prefix_from_args(args, values, meta)  # validates sortedness and positivity
    if len(full) < 2:
        raise SpecgapError("need at least two eigenvalues to verify anything")
    violations = 0
    config = RunConfig(
        "verify spectrum",
        {
            "eigs": args.eigs,
            "n": full.n,
            "l": full.l,
            "problem": full.problem,
            "slack": slack,
            "which": which,
        },
    )
    with _Output(args.out) as out:
        for k in range(1, len(full)):
            prefix = bounds.SpectrumPrefix(full.values[:k], full.n, full.l, full.problem)
            candidate = float(full.values[k])
            for entry in bounds.verify_margins(prefix, candidate, which):
                row = {"k": k, "candidate": candidate}
                row.update(entry.as_dict())
                if entry.valid and not math.isnan(entry.margin):
                    # verification-only entries quantify slack in squared units
                    scale = candidate**2 if "slack" in entry.note else candidate
                    violated = entry.margin < -slack * scale
                else:
                    violated = False
                row["violation"] = violated
                violations += violated
                out.line(json_line(row))
        out.line(
            json_line(
                {
                    "summary": True,
                    "ks": len(full) - 1,
                    "violations": violations,
                    "config": config.as_dict(),
                }
            )
        )
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_couple(args) -> int:
    text = _need(args, "spec")
    spec = couples.parse_couple_spec(text)
    lam = spec.lam if spec.lam is not None else 1.0
    couple = _bind_couple(text, lam=lam)
    if couple.family == couples.TABULATED:
        samples = couple.table[0]
    else:
        m = int(args.samples if args.samples is not None else 32)
        if m < 2:
            raise SpecgapError("need at least 2 samples")
        rng = np.random.default_rng(int(args.seed if args.seed is not None else 0))
        samples = lam * rng.uniform(1e-6, 1.0 - 1e-6, size=m)
    report = couples.check_membership(couple, samples)
    row = {"spec": text, "lambda": lam, "n_samples": int(np.asarray(samples).size)}
    row.update(report.as_dict())
    if couple.family != couples.TABULATED:
        screen = couples.check_necessary_differentiable(couple, samples)
        row["differentiable_screen"] = {"passed": screen.passed, "worst_margin": screen.worst}
    with _Output(args.out) as out:
        out.line(json_line(row))
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
    p_spec.add_argument("--problem", help="fd problem: laplacian|clamped|kohn")
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
    p_bound.add_argument("--problem", choices=bounds.PROBLEMS, help="problem family")
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
    p_va.add_argument("--ensemble", choices=abstract.ENSEMBLES)
    p_va.add_argument("--workers", type=int)
    p_va.add_argument("--min-gap", dest="min_gap", type=float)
    p_va.add_argument("--out")
    p_va.set_defaults(func=cmd_verify_abstract)

    p_vs = vsub.add_parser("spectrum", help="margins of every applicable bound along a spectrum")
    p_vs.add_argument("--eigs")
    p_vs.add_argument("--n", type=int)
    p_vs.add_argument("--l", type=int)
    p_vs.add_argument("--problem", choices=bounds.PROBLEMS)
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


# namespace entries the parser sets that are not flags of a subcommand
_NOT_FLAGS = frozenset({"config", "command", "verify_what", "kind", "action", "func"})


def _apply_config(args: argparse.Namespace) -> None:
    if not args.config:
        return
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecgapError(f"cannot load config {args.config!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise SpecgapError("config must be a JSON object mirroring the flags")
    flags = vars(args).keys() - _NOT_FLAGS
    unknown = [key for key in cfg if key.replace("-", "_") not in flags]
    if unknown:
        raise SpecgapError(f"config keys {unknown} are not flags of this subcommand")
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if getattr(args, attr, None) is None:
            setattr(args, attr, value)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except SpecgapError as exc:
        print(f"specgap: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
