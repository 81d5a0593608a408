"""Command line behaviour: formats, exit codes, config, determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from scipy.sparse.linalg import ArpackNoConvergence

from specgap import cli
from specgap.operators import read_spectrum_csv

PI2 = math.pi**2


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_eigs(path, values, meta=""):
    lines = [meta] if meta else []
    lines += [format(float(v), ".17g") for v in values]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_box_unit_square(tmp_path, capsys):
    out = tmp_path / "box.csv"
    code, _, _ = run_cli(["spectrum", "box", "--dims", "1,1", "--count", "4", "--out", str(out)], capsys)
    assert code == 0
    values, meta = read_spectrum_csv(out.read_text())
    assert np.allclose(values, PI2 * np.array([2, 5, 5, 8]), rtol=1e-14)
    assert meta["problem"] == "euclidean-polyharmonic"


def test_spectrum_missing_dims_usage_error(capsys):
    code, _, err = run_cli(["spectrum", "box", "--count", "4"], capsys)
    assert code == 2
    assert "--dims" in err


def test_spectrum_fd_laplacian_analytic(tmp_path, capsys):
    out = tmp_path / "fd.csv"
    code, _, _ = run_cli(
        ["spectrum", "fd", "--problem", "laplacian", "--dims", "1", "--grid", "50",
         "--count", "5", "--out", str(out)],
        capsys,
    )
    assert code == 0
    values, _ = read_spectrum_csv(out.read_text())
    h = 1.0 / 51
    exact = (4 / h**2) * np.sin(np.arange(1, 6) * np.pi * h / 2) ** 2
    assert np.allclose(values, exact, rtol=1e-12)


def test_spectrum_fd_power_metadata(tmp_path, capsys):
    out = tmp_path / "pow.csv"
    code, _, _ = run_cli(
        ["spectrum", "fd", "--problem", "laplacian", "--dims", "1", "--grid", "40",
         "--power", "3", "--count", "4", "--out", str(out)],
        capsys,
    )
    assert code == 0
    _, meta = read_spectrum_csv(out.read_text())
    assert meta["spectrum-type"] == "navier-power"
    assert meta["l"] == "3"


FD_46 = ["spectrum", "fd", "--problem", "laplacian", "--dims", "1,1", "--grid", "46,46"]


def test_spectrum_fd_above_dense_fallback_dim(capsys):
    # dim 2116 >= DENSE_FALLBACK_DIM: the ARPACK route
    code, first, _ = run_cli(FD_46 + ["--count", "30"], capsys)
    assert code == 0
    values, meta = read_spectrum_csv(first)
    h = 1.0 / 47
    axis = (4 / h**2) * np.sin(np.arange(1, 47) * np.pi * h / 2) ** 2
    exact = np.sort((axis[:, None] + axis[None, :]).ravel())[:30]
    assert np.max(np.abs(values / exact - 1.0)) <= 1e-10
    assert meta["grid"] == "46,46"
    _, second, _ = run_cli(FD_46 + ["--count", "30"], capsys)
    assert second == first


def test_spectrum_fd_unconverged_exit_2(monkeypatch, capsys):
    def fails(A, k, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((A.shape[0], 0)))

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", fails)
    code, out, err = run_cli(FD_46 + ["--count", "5"], capsys)
    assert code == 2
    assert out == "" and "did not converge" in err


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def test_bound_yang1_example(tmp_path, capsys):
    eigs = tmp_path / "e.csv"
    write_eigs(eigs, [1.0, 2.0])
    code, out, _ = run_cli(
        ["bound", "--ineq", "yang1-laplacian", "--eigs", str(eigs), "--n", "2", "--k", "2"],
        capsys,
    )
    assert code == 0
    row = json.loads(out)
    assert row["value"] == pytest.approx(4.224744871, rel=1e-9)
    assert row["valid"] is True


def test_bound_ppw_trivial(tmp_path, capsys):
    eigs = tmp_path / "e.csv"
    write_eigs(eigs, [1.0])
    code, out, _ = run_cli(
        ["bound", "--ineq", "ppw-laplacian", "--eigs", str(eigs), "--n", "2", "--k", "1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(3.0, rel=1e-14)


def test_bound_kohn_odd_uses_problem_of_descriptor(tmp_path, capsys):
    eigs = tmp_path / "e.csv"
    write_eigs(eigs, [1.0, 1.2, 1.5])
    code, out, _ = run_cli(
        ["bound", "--ineq", "kohn-odd-l", "--eigs", str(eigs), "--n", "1", "--l", "3"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_bound_all_lists_applicable(tmp_path, capsys):
    eigs = tmp_path / "e.csv"
    write_eigs(eigs, [1.0, 2.0])
    code, out, _ = run_cli(
        ["bound", "--ineq", "all", "--eigs", str(eigs), "--n", "2"], capsys
    )
    assert code == 0
    names = [json.loads(line)["name"] for line in out.strip().splitlines()]
    assert "yang1-laplacian" in names and "ppw-poly" in names
    assert "kohn-yang-l1" not in names


def test_bound_inapplicable_exit_2(tmp_path, capsys):
    eigs = tmp_path / "e.csv"
    write_eigs(eigs, [1.0])
    code, _, err = run_cli(
        ["bound", "--ineq", "kohn-odd-l", "--eigs", str(eigs), "--n", "1", "--l", "4"],
        capsys,
    )
    assert code == 2
    assert "does not apply" in err


def test_bound_unknown_name_exit_2(tmp_path, capsys):
    eigs = tmp_path / "e.csv"
    write_eigs(eigs, [1.0])
    code, _, _ = run_cli(["bound", "--ineq", "bogus", "--eigs", str(eigs), "--n", "2"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# verify spectrum
# ---------------------------------------------------------------------------


def test_verify_spectrum_box_all_margins_ok(tmp_path, capsys):
    out = tmp_path / "box.csv"
    run_cli(["spectrum", "box", "--dims", "1,1", "--count", "12", "--out", str(out)], capsys)
    code, text, _ = run_cli(
        ["verify", "spectrum", "--eigs", str(out), "--n", "2", "--slack", "1e-10"], capsys
    )
    assert code == 0
    summary = json.loads(text.strip().splitlines()[-1])
    assert summary["violations"] == 0


def test_verify_spectrum_decreasing_exit_2(tmp_path, capsys):
    eigs = tmp_path / "bad.csv"
    write_eigs(eigs, [2.0, 1.0])
    code, _, err = run_cli(["verify", "spectrum", "--eigs", str(eigs), "--n", "2"], capsys)
    assert code == 2
    assert "nondecreasing" in err


def test_verify_spectrum_violation_exit_1(tmp_path, capsys):
    # lambda_2 far above every l=1 bound for this prefix
    eigs = tmp_path / "viol.csv"
    write_eigs(eigs, [1.0, 50.0])
    code, text, _ = run_cli(
        ["verify", "spectrum", "--eigs", str(eigs), "--n", "2", "--slack", "1e-10"], capsys
    )
    assert code == 1
    rows = [json.loads(line) for line in text.strip().splitlines()]
    assert any(r.get("violation") for r in rows if "name" in r)


# ---------------------------------------------------------------------------
# verify abstract
# ---------------------------------------------------------------------------


def test_verify_abstract_small_run(tmp_path, capsys):
    code, out, _ = run_cli(
        ["verify", "abstract", "--trials", "5", "--dim", "6", "--nops", "2",
         "--couple", "equal-power:2", "--seed", "7"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["failures"] == 0
    assert summary["checks"] == len(lines) - 1
    first = json.loads(lines[0])
    assert first["pass"] is True and "lhs" in first and "rhs" in first


def test_verify_abstract_multiple_couples(capsys):
    code, out, _ = run_cli(
        ["verify", "abstract", "--trials", "3", "--dim", "5", "--nops", "1",
         "--couple", "const-power:0", "--couple", "linear-power:1", "--seed", "1"],
        capsys,
    )
    assert code == 0
    descs = {
        json.loads(line)["couple"].split("@")[0] for line in out.strip().splitlines()[:-1]
    }
    assert descs == {"const-power:0", "linear-power:1"}


# ---------------------------------------------------------------------------
# couple check
# ---------------------------------------------------------------------------


def test_couple_check_pass(capsys):
    code, out, _ = run_cli(
        ["couple", "check", "--spec", "const-power:1@10", "--samples", "32", "--seed", "3"],
        capsys,
    )
    assert code == 0
    row = json.loads(out)
    assert row["passed"] is True
    assert row["differentiable_screen"]["passed"] is True


def test_couple_check_tabulated_fail_with_witness(tmp_path, capsys):
    table = tmp_path / "bad_couple.csv"
    xs = np.array([0.2, 0.5, 0.8])
    rows = [f"{x},{1.0 - x},1.0" for x in xs]  # f = lambda - x, g = 1: not admissible
    table.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(
        ["couple", "check", "--spec", f"tabulated:{table}@1", "--seed", "0"], capsys
    )
    assert code == 1
    row = json.loads(out)
    assert row["passed"] is False
    assert row["witness"] is not None


def test_couple_check_malformed_exit_2(capsys):
    code, _, _ = run_cli(["couple", "check", "--spec", "foo:@"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------


def test_config_file_mirrors_flags(tmp_path, capsys):
    eigs = tmp_path / "e.csv"
    write_eigs(eigs, [1.0, 2.0])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ineq": "yang1-laplacian", "eigs": str(eigs), "n": 2, "k": 2}))
    code, out_cfg, _ = run_cli(["--config", str(cfg), "bound"], capsys)
    assert code == 0
    code, out_flags, _ = run_cli(
        ["bound", "--ineq", "yang1-laplacian", "--eigs", str(eigs), "--n", "2", "--k", "2"],
        capsys,
    )
    assert out_cfg == out_flags


def test_explicit_flags_override_config(tmp_path, capsys):
    eigs = tmp_path / "e.csv"
    write_eigs(eigs, [1.0])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ineq": "yang1-laplacian", "eigs": str(eigs), "n": 2}))
    code, out, _ = run_cli(["--config", str(cfg), "bound", "--ineq", "ppw-laplacian"], capsys)
    assert code == 0
    assert json.loads(out)["name"] == "ppw-laplacian"


@pytest.mark.parametrize("key", ["worker", "grid", "kind"])
def test_config_rejects_keys_that_are_not_flags(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 2, "trials": 2}))
    code, out, err = run_cli(
        ["--config", str(cfg), "verify", "abstract", "--dim", "5", "--nops", "1"], capsys
    )
    assert code == 2
    assert out == "" and repr(key) in err


# ---------------------------------------------------------------------------
# determinism (subprocess level; the acceptance suite covers --workers)
# ---------------------------------------------------------------------------


def test_repeat_run_byte_identical(tmp_path):
    argv = [sys.executable, "-m", "specgap", "verify", "abstract", "--trials", "6",
            "--dim", "6", "--nops", "2", "--couple", "equal-power:2", "--seed", "11"]
    a = subprocess.run(argv, capture_output=True)
    b = subprocess.run(argv, capture_output=True)
    assert a.returncode == 0 and a.stdout == b.stdout
