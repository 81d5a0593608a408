"""Command line behaviour: formats, exit codes, config, determinism."""

import builtins
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from scipy.sparse.linalg import ArpackNoConvergence

from specgap import cli, couples, operators
from specgap.operators import read_spectrum_csv

PI2 = math.pi**2


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def perturb_eigh(monkeypatch):
    """Make np.linalg.eigh return eigenvalues off by 1e-6 of the largest one."""
    real_eigh = np.linalg.eigh

    def perturbed(M):
        w, V = real_eigh(M)
        return w + 1e-6 * abs(w[-1]), V

    monkeypatch.setattr(np.linalg, "eigh", perturbed)


def write_eigs(path, values, meta=""):
    lines = [meta] if meta else []
    lines += [format(float(v), ".17g") for v in values]
    path.write_text("\n".join(lines) + "\n")


def run_cli_limited(argv, limit_mb=768):
    """Run the CLI in a child process whose address space is capped at
    ``limit_mb`` after the package is imported, so a command that allocates
    without bound fails fast instead of exhausting the machine."""
    code = (
        "import resource, sys\n"
        "from specgap import cli\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit_mb} * 2**20, {limit_mb} * 2**20))\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120)


def assert_one_line_usage_error(code, out, err, fragment):
    assert code == 2, err[-500:]
    assert out == "" and err.startswith("specgap: ") and err.count("\n") == 1, err[-500:]
    assert fragment in err


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_box_unit_square(tmp_path, capsys):
    out = tmp_path / "box.csv"
    code, _, _ = run_cli(["spectrum", "box", "--dims", "1,1", "--count", "4", "--out", str(out)], capsys)
    assert code == 0
    values, meta = read_spectrum_csv(io.StringIO(out.read_text()))
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
    values, _ = read_spectrum_csv(io.StringIO(out.read_text()))
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
    _, meta = read_spectrum_csv(io.StringIO(out.read_text()))
    assert meta["spectrum-type"] == "navier-power"
    assert meta["l"] == "3"


def run_cli_or_argparse(argv, capsys):
    """run_cli, also for a command that argparse refuses (it raises SystemExit)."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, header",
    [
        (["box", "--dims", "1,1.3", "--count", "3"],
         "# generator: spectrum box\n# dims: 1,1.3\n# problem: euclidean-polyharmonic\n# n: 2\n# l: 1\n"),
        (["fd", "--problem", "laplacian", "--dims", "1,1.5", "--grid", "5,6", "--count", "3"],
         "# generator: spectrum fd\n# dims: 1,1.5\n# problem: euclidean-polyharmonic\n# n: 2\n# l: 1\n"
         "# grid: 5,6\n# stencil: dirichlet-laplacian\n"),
        (["fd", "--problem", "laplacian", "--dims", "2", "--grid", "7", "--power", "2", "--count", "3"],
         "# generator: spectrum fd\n# dims: 2\n# problem: euclidean-polyharmonic\n# n: 1\n# l: 2\n"
         "# grid: 7\n# stencil: dirichlet-laplacian\n# spectrum-type: navier-power\n"),
        (["fd", "--problem", "clamped", "--dims", "1,1", "--grid", "6", "--count", "3"],
         "# generator: spectrum fd\n# dims: 1,1\n# problem: euclidean-polyharmonic\n# n: 2\n# l: 2\n"
         "# grid: 6,6\n# stencil: clamped-plate\n"),
        (["fd", "--problem", "kohn", "--dims", "1,1,1", "--grid", "4,4,5", "--count", "3"],
         "# generator: spectrum fd\n# dims: 1,1,1\n# problem: heisenberg-kohn\n# n: 1\n# l: 1\n"
         "# grid: 4,4,5\n# stencil: kohn-heisenberg\n"),
    ],
    ids=["box", "laplacian", "laplacian-power-2", "clamped", "kohn"],
)  # fmt: skip
def test_spectrum_csv_header(capsys, argv, header):
    code, out, err = run_cli(["spectrum", *argv], capsys)
    assert code == 0, err
    assert out.startswith(header)
    values = out[len(header) :].splitlines()
    assert len(values) == 3 and not any(line.startswith("#") for line in values)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_spectrum_fd_unknown_problem_exit_2(tmp_path, capsys, source):
    argv = ["spectrum", "fd", "--dims", "1", "--grid", "5", "--count", "3"]
    if source == "flag":
        argv += ["--problem", "nope"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"problem": "nope"}))
        argv = ["--config", str(cfg), *argv]
    code, out, err = run_cli_or_argparse(argv, capsys)
    assert code == 2
    assert out == "" and "'nope'" in err


FD_46 = ["spectrum", "fd", "--problem", "laplacian", "--dims", "1,1", "--grid", "46,46"]


def test_spectrum_fd_above_dense_fallback_dim(capsys):
    # dim 2116 >= DENSE_FALLBACK_DIM: the Laplacian is written in closed
    # form whatever the eigensolver route would be
    code, first, _ = run_cli(FD_46 + ["--count", "30"], capsys)
    assert code == 0
    values, meta = read_spectrum_csv(io.StringIO(first))
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
    # parity blocks of 529 points and 5 pairs take the ARPACK route
    argv = ["spectrum", "fd", "--problem", "clamped", "--dims", "1,1", "--grid", "46,46", "--count", "5"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == "" and "did not converge" in err


def test_spectrum_fd_inaccurate_dense_pairs_exit_2(monkeypatch, capsys):
    real_eigh = np.linalg.eigh

    def perturbed(M):
        w, V = real_eigh(M)
        return w + 1e-6 * abs(w[-1]), V

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    # parity blocks of 16 points take the dense route
    argv = ["spectrum", "fd", "--problem", "clamped", "--dims", "1,1", "--grid", "8,8", "--count", "4"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == "" and "residual" in err


def test_spectrum_fd_full_spectrum_matches_stencil(capsys):
    argv = ["spectrum", "fd", "--problem", "laplacian", "--dims", "1", "--grid", "12", "--count", "12"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    values, _ = read_spectrum_csv(io.StringIO(out))
    h = 1.0 / 13
    exact = (4 / h**2) * np.sin(np.arange(1, 13) * np.pi * h / 2) ** 2
    np.testing.assert_allclose(values, exact, rtol=1e-12, atol=0)


def test_spectrum_fd_full_spectrum_inaccurate_pairs_exit_2(monkeypatch, capsys):
    perturb_eigh(monkeypatch)
    # 6 values of each 6-point parity block: their whole dense spectra
    argv = ["spectrum", "fd", "--problem", "clamped", "--dims", "1", "--grid", "12", "--count", "12"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == "" and "residual" in err


def test_spectrum_box_refuses_count_above_prefix_cap(capsys):
    # refused before the enumeration allocates ~10^10 floats
    argv = ["spectrum", "box", "--dims", "1,1", "--count", "10000000000"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == "" and err == "specgap: count must satisfy 1 <= count <= 100000, got 10000000000\n"


@pytest.mark.parametrize(
    "dims, grid, refusal",
    [("1,x", "8,8", "bad numeric list '1,x'"), ("1,1", "8,y", "bad integer list '8,y'")],
    ids=["dims", "grid"],
)
def test_spectrum_refuses_a_list_it_cannot_parse(capsys, dims, grid, refusal):
    argv = ["spectrum", "fd", "--problem", "laplacian", "--dims", dims, "--grid", grid, "--count", "3"]
    assert run_cli(argv, capsys) == (2, "", f"specgap: {refusal}\n")


@pytest.mark.parametrize("kind", ["box", "fd"])
@pytest.mark.parametrize("side", ["nan", "inf"])
def test_spectrum_refuses_box_sides_that_are_not_finite(kind, side):
    # box: the enumeration doubled its cube without end; fd: inf wrote a
    # degenerate spectrum with exit 0, nan failed later on a nan residual
    argv = ["spectrum", kind, "--dims", f"1,{side}", "--count", "3"]
    if kind == "fd":
        argv += ["--problem", "laplacian", "--grid", "8,8"]
    proc = run_cli_limited(argv)
    assert_one_line_usage_error(proc.returncode, proc.stdout, proc.stderr, "positive and finite")


@pytest.mark.parametrize(
    "dims, count",
    [(",".join(["1"] * 30), "1"), (",".join(["1"] * 10), "100000")],
    ids=["30-sides", "10-sides-count-1e5"],
)
def test_spectrum_box_refuses_enumeration_cube_above_cap(dims, count):
    # the cubes of 2^30 and 10^10 lattice points took 8 and 74.5 GiB
    proc = run_cli_limited(["spectrum", "box", "--dims", dims, "--count", count])
    assert_one_line_usage_error(proc.returncode, proc.stdout, proc.stderr, "above the cap of 4096^2")


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["fd", "--problem", "laplacian", "--dims", "1e-200,1", "--grid", "8,8", "--count", "4"], "outside the range"),
        (["fd", "--problem", "laplacian", "--dims", "1e200,1", "--grid", "8,8", "--count", "4"], "outside the range"),
        (["fd", "--problem", "laplacian", "--dims", "1e-155,1", "--grid", "8,8", "--count", "4"], "outside the range"),
        (["fd", "--problem", "clamped", "--dims", "1e-80,1", "--grid", "8,8", "--count", "4"], "outside the range"),
        (["fd", "--problem", "clamped", "--dims", "1e100,1", "--grid", "8,8", "--count", "4"], "outside the range"),
        (["fd", "--problem", "kohn", "--dims", "1e200,1,1", "--grid", "6,6,6", "--count", "4"], "outside the range"),
        (["box", "--dims", "1e200,1", "--count", "3"], "outside the range"),
        (["box", "--dims", "1e-200,1", "--count", "3"], "outside the range"),
        (
            ["fd", "--problem", "laplacian", "--dims", "1,1", "--grid", "8,8", "--count", "4", "--power", "400"],
            "raised to the power 400 leave the range",
        ),
        (
            ["fd", "--problem", "kohn", "--dims", "1,1,1", "--grid", "6,6,6", "--count", "216", "--power", "400"],
            "raised to the power 400 leave the range",
        ),
    ],
    ids=[
        "laplacian-tiny", "laplacian-huge", "laplacian-residual-nan", "clamped-tiny", "clamped-huge",
        "kohn-huge", "box-huge", "box-tiny", "laplacian-power", "kohn-power",
    ],  # fmt: skip
)
def test_spectrum_refuses_sides_and_powers_whose_spectrum_is_not_finite(argv, fragment):
    # these ended in ZeroDivisionError or OverflowError (exit 1), blamed the
    # enumeration cap, reported a nan residual, or printed a numpy warning
    proc = run_cli_limited(["spectrum"] + argv)
    assert_one_line_usage_error(proc.returncode, proc.stdout, proc.stderr, fragment)


def test_spectrum_fd_refuses_grid_above_point_cap():
    # kron used to allocate 22.3 GiB for this grid
    argv = ["spectrum", "fd", "--problem", "laplacian", "--dims", "1,1,1", "--grid", "1000,1000,1000", "--count", "5"]
    proc = run_cli_limited(argv)
    assert_one_line_usage_error(
        proc.returncode, proc.stdout, proc.stderr, "1000000000 interior points exceed the cap of 32768"
    )


def test_spectrum_fd_writes_every_copy_of_a_multiple_eigenvalue(capsys):
    # ARPACK returned two of the three copies of 134.17 and lambda_22 = 167.25
    # instead, each with a passing residual; the inertia count catches it
    argv = ["spectrum", "fd", "--problem", "laplacian", "--dims", "1,1,1", "--grid", "13,13,13", "--count", "21"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    values, _ = read_spectrum_csv(io.StringIO(out))
    h = 1.0 / 14
    axis = (4 / h**2) * np.sin(np.arange(1, 14) * np.pi * h / 2) ** 2
    exact = np.sort((axis[:, None, None] + axis[None, :, None] + axis[None, None, :]).ravel())[:21]
    assert np.max(np.abs(values / exact - 1.0)) <= 1e-10


def test_spectrum_fd_laplacian_runs_no_eigensolver_under_1_gib():
    # the same count of the Laplacian took the ARPACK route, and its Ritz
    # basis was refused; the closed form writes it
    argv = ["spectrum", "fd", "--problem", "laplacian", "--dims", "1,1", "--grid", "181,181", "--count", "8000"]
    proc = run_cli_limited(argv, limit_mb=1024)
    assert proc.returncode == 0, proc.stderr[-500:]
    values, meta = read_spectrum_csv(io.StringIO(proc.stdout))
    h = 1.0 / 182
    axis = (4 / h**2) * np.sin(np.arange(1, 182) * np.pi * h / 2) ** 2
    exact = np.sort((axis[:, None] + axis[None, :]).ravel())[:8000]
    np.testing.assert_allclose(values, exact, rtol=1e-13, atol=0)
    assert meta["grid"] == "181,181" and meta["stencil"] == "dirichlet-laplacian"


def test_spectrum_fd_laplacian_checks_only_the_modes_it_writes(capsys):
    # checking the residual of all 32768 sine modes took 33 s
    argv = ["spectrum", "fd", "--problem", "laplacian", "--dims", "1", "--grid", "32768", "--count", "100"]
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    elapsed = time.perf_counter() - start
    assert code == 0, err
    assert len(read_spectrum_csv(io.StringIO(out))[0]) == 100
    assert elapsed < 1.0


def test_spectrum_fd_laplacian_refuses_a_perturbed_mode(monkeypatch, capsys):
    real_modes = operators._sine_modes

    def perturbed(n):
        modes = real_modes(n)
        modes[0] *= 1.0 + 1e-6
        return modes

    monkeypatch.setattr(operators, "_sine_modes", perturbed)
    argv = ["spectrum", "fd", "--problem", "laplacian", "--dims", "1", "--grid", "12", "--count", "3"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == "" and "residual" in err


def test_spectrum_fd_refuses_ritz_basis_above_cap():
    # ARPACK's (32761, 16001) Ritz array for the 181^2 plate took 3.91 GiB;
    # its parity blocks (8100 to 8281 points) now meet the quarter-of-a-block
    # refusal of smallest_eigs instead (next test).
    # The two 16384-point blocks of this beam each need 4096 pairs.
    argv = ["spectrum", "fd", "--problem", "clamped", "--dims", "1", "--grid", "32768", "--count", "4096"]
    proc = run_cli_limited(argv, limit_mb=1024)
    assert_one_line_usage_error(
        proc.returncode, proc.stdout, proc.stderr, "Ritz basis of 8193 x 16384 floats for 4096 eigenpairs"
    )


def test_spectrum_fd_refuses_more_than_a_quarter_of_a_block_above_the_dense_cap(capsys):
    # the 8281-point even block of the 181^2 plate, above DENSE_DIM_CAP, is
    # built sparse and refused by smallest_eigs before any eigensolver runs
    argv = ["spectrum", "fd", "--problem", "clamped", "--dims", "1,1", "--grid", "181,181", "--count", "8000"]
    assert_one_line_usage_error(*run_cli(argv, capsys), "need 1 <= m <= dim/4 = 2070, got m = 8000")


def test_spectrum_fd_clamped_beam_at_the_point_cap_under_1_gib():
    # an n x n matrix of the 1-D stencil alone would take 8.6 GB; ARPACK's
    # shift at -1e-6 ||A||_inf, far below the beam's smallest eigenvalue,
    # left the whole 32768-point operator unfinished after 2 minutes
    argv = ["spectrum", "fd", "--problem", "clamped", "--dims", "1", "--grid", "32768", "--count", "5"]
    proc = run_cli_limited(argv, limit_mb=1024)
    assert proc.returncode == 0, proc.stderr[-500:]
    values, meta = read_spectrum_csv(io.StringIO(proc.stdout))
    assert len(values) == 5 and np.all(np.diff(values) > 0)
    assert meta["grid"] == "32768" and meta["stencil"] == "clamped-plate"


@pytest.mark.parametrize(
    "dims, grid, count", [("1,1.3,0.8", "9,8,7", "100"), ("1,1.2", "46,47", "6")], ids=["dense-blocks", "arpack-blocks"]
)
def test_spectrum_fd_clamped_reruns_are_byte_identical(capsys, dims, grid, count):
    argv = ["spectrum", "fd", "--problem", "clamped", "--dims", dims, "--grid", grid, "--count", count]
    first = run_cli(argv, capsys)
    assert first[0] == 0 and run_cli(argv, capsys) == first


def test_spectrum_fd_out_of_memory_in_building_exit_2():
    # scipy.sparse ran out of memory building a 32^3 operator and died with a
    # traceback.  The child maps scipy's shared libraries first and then
    # leaves itself 10 MB, so the cap bites in building a block, not in an
    # import.  The 32^3 blocks fit in 10 MB and then hung in ARPACK; the
    # dense 4096-point blocks of a 128^2 plate (4000 of 4096 values each) do
    # not.
    code = (
        "import resource, sys\n"
        "import scipy.sparse.linalg\n"
        "from specgap import cli\n"
        "size = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize() + 10 * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (size, size))\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = ["spectrum", "fd", "--problem", "clamped", "--dims", "1,1", "--grid", "128,128", "--count", "4000"]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr[-500:]
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == "specgap: out of memory in the clamped plate's parity blocks"


def test_spectrum_fd_out_of_memory_in_factorization_exit_2():
    # the shift-invert factorization of the whole 32^3 clamped plate does not
    # fit in 768 MB; SuperLU may print its own diagnostic before the line.
    # The CLI solves the plate's blocks instead (next test).
    code = (
        "import resource, sys\n"
        "from specgap.eigensolve import smallest_eigs\n"
        "from specgap.errors import ConvergenceError\n"
        "from specgap.operators import fd_clamped_plate\n"
        "resource.setrlimit(resource.RLIMIT_AS, (768 * 2**20, 768 * 2**20))\n"
        "try:\n"
        "    smallest_eigs(fd_clamped_plate((1.0, 1.0, 1.0), (32, 32, 32)), 5)\n"
        "except ConvergenceError as exc:\n"
        "    sys.exit(f'specgap: {exc}')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr[-500:]
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == "specgap: out of memory in ARPACK for 5 eigenpairs of dimension 32768"


def test_spectrum_fd_clamped_32_cubed_fits_in_768_mb():
    # eight parity blocks of 4096 points, each factored on its own
    argv = ["spectrum", "fd", "--problem", "clamped", "--dims", "1,1,1", "--grid", "32,32,32", "--count", "5"]
    proc = run_cli_limited(argv)
    assert proc.returncode == 0, proc.stderr[-500:]
    values, meta = read_spectrum_csv(io.StringIO(proc.stdout))
    assert len(values) == 5 and meta["grid"] == "32,32,32"


def test_spectrum_fd_out_of_memory_in_the_kohn_blocks_exit_2(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(operators, "_kohn_block", exhausted)
    argv = ["spectrum", "fd", "--problem", "kohn", "--dims", "1,1,1", "--grid", "12,12,12", "--count", "30"]
    code, out, err = run_cli(argv, capsys)
    assert_one_line_usage_error(code, out, err, "out of memory in the Kohn Laplacian's t-Fourier blocks")


@pytest.mark.parametrize("n", [5, 7, 9])
def test_spectrum_fd_kohn_all_odd_grid_exit_0(capsys, n):
    # the exact zero eigenvalue is written as its closed form, about 1e-31;
    # 9^3 was refused when a dense solve gave it as -1.1e-14
    grid = f"{n},{n},{n}"
    argv = ["spectrum", "fd", "--problem", "kohn", "--dims", "1,1,1", "--grid", grid, "--count", "3"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    values, meta = read_spectrum_csv(io.StringIO(out))
    assert meta["grid"] == grid and meta["stencil"] == "kohn-heisenberg"
    assert 0.0 < values[0] < 1e-12 * values[1]


def test_spectrum_fd_out_of_memory_importing_the_sparse_solvers_exit_2(monkeypatch, capsys):
    # under a tight address-space cap the loader fails to map scipy's shared
    # libraries and the import raises ImportError
    real_import = builtins.__import__

    def unmappable(name, *args, **kwargs):
        if name == "scipy.sparse.linalg":
            raise ImportError("libscipy_openblas.so: failed to map segment from shared object")
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", unmappable)
    # the 46^2 plate's parity blocks of 529 points take ARPACK for 20 pairs
    argv = ["spectrum", "fd", "--problem", "clamped", "--dims", "1,1", "--grid", "46,46", "--count", "20"]
    code, out, err = run_cli(argv, capsys)
    assert_one_line_usage_error(code, out, err, "out of memory in ARPACK for 20 eigenpairs of dimension 529")


@pytest.mark.parametrize(
    "source, flags",
    [
        ("flag", {"power": 3}),
        ("flag", {"grid": "5,5", "problem": "laplacian", "power": 2}),
        ("config", {"grid": "5,5", "problem": "clamped", "power": 1}),
    ],
    ids=["power", "all-flags", "all-config"],
)
def test_spectrum_box_refuses_fd_flags(tmp_path, capsys, source, flags):
    argv = ["spectrum", "box", "--dims", "1,1", "--count", "3"]
    if source == "flag":
        argv += [item for key, value in flags.items() for item in (f"--{key}", str(value))]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(flags))
        argv = ["--config", str(cfg), *argv]
    code, out, err = run_cli(argv, capsys)
    assert_one_line_usage_error(code, out, err, ", ".join(f"--{key}" for key in flags))


def test_spectrum_unwritable_out_exit_2(tmp_path, capsys):
    argv = ["spectrum", "box", "--dims", "1,1", "--count", "3", "--out", str(tmp_path / "missing" / "x.csv")]
    code, out, err = run_cli(argv, capsys)
    assert_one_line_usage_error(code, out, err, "cannot write")


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
    assert out == (
        '{"name":"yang1-laplacian","value":4.2247448713915894,"method":"quadratic","iterations":0,'
        '"residual":0,"valid":true}\n'
    )


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


def test_bound_keeps_the_problem_of_a_labelled_csv(tmp_path, capsys):
    # the CSV's label outranks the descriptor's problem, so a Euclidean entry
    # is refused on a Kohn spectrum instead of evaluated on it
    out = str(tmp_path / "k.csv")
    argv = ["spectrum", "fd", "--problem", "kohn", "--dims", "1,1,1", "--grid", "6,6,6", "--count", "10", "--out", out]
    assert run_cli(argv, capsys)[0] == 0
    code, stdout, err = run_cli(["bound", "--ineq", "ppw-laplacian", "--eigs", out, "--n", "1"], capsys)
    assert_one_line_usage_error(code, stdout, err, "ppw-laplacian does not apply to problem='heisenberg-kohn', l=1")


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


def test_eigs_file_not_utf8_exit_2(tmp_path, capsys):
    eigs = tmp_path / "bin.csv"
    eigs.write_bytes(b"\xff\xfe\x00bad\n")
    code, out, err = run_cli(["bound", "--ineq", "all", "--eigs", str(eigs), "--n", "2"], capsys)
    assert code == 2
    assert out == "" and err.startswith("specgap: cannot read eigenvalue file") and err.count("\n") == 1


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


def test_verify_spectrum_monotone_root_without_bracket_doubling(tmp_path, capsys):
    # at this n the monotone root lies within 1e-9 lambda_k of lambda_k, so
    # the solver bisects from its first bracket
    eigs = tmp_path / "s.csv"
    write_eigs(eigs, [1.0, 2.0, 3.0, 4.0])
    code, text, _ = run_cli(
        ["verify", "spectrum", "--eigs", str(eigs), "--n", "100000000000", "--l", "2",
         "--which", "hp-weak-clamped"],
        capsys,
    )
    assert code in (0, 1)
    rows = [json.loads(line) for line in text.strip().splitlines()]
    assert [r["k"] for r in rows[:-1]] == [1, 2, 3]
    assert rows[-1]["summary"] is True


ROW_KEYS = ["k", "candidate", "name", "margin", "bound", "valid", "note", "violation"]
# yang1-laplacian, wucao-poly and cim-yang-poly have no admissible bound at k = 4
K4_INVALID = [1.0, 1.368761715425752, 3.4280804238748326, 6.732655185893089, 8.319432152802452, 9.214800195499496]


def test_verify_spectrum_row_format(tmp_path, capsys):
    eigs = tmp_path / "k4.csv"
    write_eigs(eigs, K4_INVALID)
    slack = 0.3
    code, text, _ = run_cli(["verify", "spectrum", "--eigs", str(eigs), "--n", "2", "--l", "1",
                             "--slack", str(slack)], capsys)  # fmt: skip
    lines = text.splitlines()
    rows = {(r["k"], r["name"]): r for r in map(json.loads, lines[:-1])}
    assert len(rows) == len(lines) - 1 == 5 * 28
    assert all(list(r) == ROW_KEYS for r in rows.values())

    inapplicable = rows[1, "ppw-clamped"]
    assert inapplicable == {"k": 1, "candidate": K4_INVALID[1], "name": "ppw-clamped", "margin": None,
                            "bound": None, "valid": False, "note": "inapplicable: skipped", "violation": False}  # fmt: skip

    # the verify-only slack is measured in units of z^2: flagged in units of z,
    # it would be a violation here
    slack_row, z = rows[3, "cim-squared-poly"], K4_INVALID[3]
    assert -slack * z * z < slack_row["margin"] < -slack * z
    assert slack_row["bound"] is None and slack_row["valid"] is True
    assert slack_row["note"] == "inequality slack (no bound form)" and slack_row["violation"] is False

    broken, kept = rows[3, "yang1-laplacian"], rows[3, "ppw-laplacian"]
    assert broken["margin"] < -slack * z and broken["violation"] is True
    assert kept["margin"] > 0 and kept["violation"] is False
    for row in (broken, kept):
        assert row["margin"] == row["bound"] - z and row["valid"] is True and row["note"] == ""

    invalid = rows[4, "yang1-laplacian"]
    assert invalid["margin"] is None and invalid["valid"] is False and invalid["violation"] is False
    assert invalid["note"] == "no admissible bound value"

    summary = json.loads(lines[-1])
    assert summary["violations"] == sum(r["violation"] for r in rows.values()) > 0
    assert code == 1


def test_verify_spectrum_converts_one_prefix_length_at_a_time(tmp_path, capsys, monkeypatch):
    """The margin table becomes Python values one prefix length at a time:
    from the return of verify_margins to the end of the command, the traced
    peak stays below half of what the table's whole-table lists take."""
    import tracemalloc

    from specgap import bounds

    eigs = tmp_path / "box.csv"
    run_cli(["spectrum", "box", "--dims", "1,1.3", "--count", "1000", "--out", str(eigs)], capsys)
    real, seen = bounds.verify_margins, {}

    def verify_margins(*args, **kwargs):
        seen["table"] = real(*args, **kwargs)
        seen["base"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        return seen["table"]

    monkeypatch.setattr(bounds, "verify_margins", verify_margins)
    argv = ["verify", "spectrum", "--eigs", str(eigs), "--n", "2", "--l", "1", "--out", str(tmp_path / "rows")]
    tracemalloc.start()
    try:
        code, _, _ = run_cli(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1] - seen["base"]
        table = seen["table"]
        flagged = table.violations(1e-3)
        before = tracemalloc.get_traced_memory()[0]
        lists = [column.tolist() for column in (table.margin, table.bound, table.valid, flagged)]
        whole = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert code in (0, 1) and len(lists[0]) == 999
    assert peak < whole / 2, (peak, whole)


@pytest.mark.parametrize("slack", ["nan", "inf", "-1"])
def test_verify_spectrum_refuses_slack_that_switches_the_check_off(tmp_path, capsys, slack):
    eigs = tmp_path / "jump.csv"
    write_eigs(eigs, [1.0, 2.0, 3.0, 100.0])
    argv = ["verify", "spectrum", "--eigs", str(eigs), "--n", "2", "--which", "ppw-laplacian"]
    assert run_cli([*argv, "--slack", "0"], capsys)[0] == 1  # lambda_4 = 100 breaks the bound
    code, out, err = run_cli([*argv, f"--slack={slack}"], capsys)
    assert code == 2
    assert out == "" and err.startswith("specgap: --slack must be finite and >= 0")


@pytest.mark.parametrize("command", ["bound", "verify"])
def test_spectrum_metadata_l_not_an_integer_exit_2(tmp_path, capsys, command):
    eigs = tmp_path / "e.csv"
    write_eigs(eigs, [1.0, 2.0, 3.0], meta="# l: two")
    argv = ["--eigs", str(eigs), "--n", "2"]
    argv = ["bound", "--ineq", "all", *argv] if command == "bound" else ["verify", "spectrum", *argv]
    code, out, err = run_cli(argv, capsys)
    assert_one_line_usage_error(code, out, err, "'# l: two' is not an integer")


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


ABSTRACT_ROW_KEYS = ["trial", "couple", "k", "lhs", "rhs", "quad_coeff", "gap", "pass", "z", "slack"]


def test_verify_abstract_row_format(capsys):
    # each row reads the inequality at z = lambda_(k+1), the lambda its couple is bound at
    code, out, _ = run_cli(
        ["verify", "abstract", "--trials", "3", "--dim", "5", "--nops", "2",
         "--couple", "equal-power:2", "--couple", "neg-power:-1,1", "--seed", "4"],
        capsys,
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()[:-1]]
    assert rows
    for row in rows:
        assert list(row) == ABSTRACT_ROW_KEYS
        assert row["couple"].endswith("@" + format(row["z"], "g")), row


def _abstract_dict_line(trial, couple, rep) -> str:
    """A verify abstract row as json_line writes its dict, the trial, the
    couple's describe() and the report's fields in order, passed as "pass"
    and no identity_residual where there is none: the oracle of the row
    template."""
    row = {"trial": trial, "couple": couple.describe()}
    for key, value in vars(rep).items():
        if not (key == "identity_residual" and value is None):
            row["pass" if key == "passed" else key] = value
    return cli.json_line(row) + "\n"


def test_verify_abstract_rows_are_the_json_lines_of_their_dicts():
    # every row the worker returns, for couples whose parameters :g writes
    # as 0.5 and 1e-07, and reports with values that are not finite and a
    # failed check, in the keys of the TheoremReport fields
    from specgap.abstract import TheoremReport

    texts = ["const-power:0.5", "neg-power:-1e-7,1", "linear-power:0.5", "equal-power:2"]
    specs = [couples.parse_couple_spec(text) for text in texts]
    heads = cli._couple_heads(specs)
    keys = ["trial", "couple", *("pass" if f.name == "passed" else f.name for f in dataclasses.fields(TheoremReport))]
    rows = [row for t in range(4) for row in cli._abstract_trial_worker((t, 11, 6, 2, "dense-gaussian", heads, 1e-6))]
    assert len(rows) > 4 * len(texts)
    spec_of = {head: spec for spec, head in heads}
    for trial, couple_text, rep in rows:
        couple = spec_of[couple_text.rpartition("@")[0] + "@"].bind(rep.z)
        line = cli._abstract_row(trial, couple_text, rep)
        assert line == _abstract_dict_line(trial, couple, rep)
        # every field but identity_residual, which verify_theorem leaves None
        assert list(json.loads(line)) + ["identity_residual"] == keys
    couple = specs[1].bind(1e-7)
    text = json.dumps(couple.describe())
    assert text == '"neg-power:-1e-07,1@1e-07"'
    for values in ((math.inf, math.nan, -math.inf, 0.5, False), (1e308 * 10, 1e-320, 0.1, math.nan, True)):
        lhs, rhs, quad, gap, passed = values
        rep = TheoremReport(3, lhs, rhs, quad, gap, passed, 1e-7, lhs - rhs)
        line = cli._abstract_row(7, text, rep)
        assert line == _abstract_dict_line(7, couple, rep)
        assert "null" in line and f'"pass":{str(passed).lower()}' in line


def test_verify_abstract_refuses_a_couple_lambda(monkeypatch, capsys, tmp_path):
    # every row binds its couple at lambda_(k+1), so no @lambda can be honoured,
    # and no table holds lambda_1..lambda_k below lambda_(k+1) for two k
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("specgap.abstract.random_instance", no_trial)
    rows = tmp_path / "rows.jsonl"
    argv = ["verify", "abstract", "--trials", "2", "--dim", "5", "--nops", "1", "--out", str(rows)]
    cfg = tmp_path / "cfg.json"
    for refused in ("equal-power:2@1000", "tabulated:t.csv"):
        texts = ["neg-power:-1,1", refused]
        cfg.write_text(json.dumps({"couple": texts}))
        for source in ([*argv, "--couple", texts[0], "--couple", texts[1]], ["--config", str(cfg), *argv]):
            code, out, err = run_cli(source, capsys)
            assert_one_line_usage_error(code, out, err, repr(refused))
            assert not rows.exists()


def test_verify_abstract_refuses_an_unknown_ensemble(monkeypatch, capsys, tmp_path):
    # checked by the command, not by the parser, before the first trial and
    # before the --out file is opened
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("specgap.abstract.random_instance", no_trial)
    rows = tmp_path / "rows.jsonl"
    argv = ["verify", "abstract", "--trials", "2", "--dim", "5", "--nops", "1", "--out", str(rows)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ensemble": "wishart"}))
    for source in ([*argv, "--ensemble", "wishart"], ["--config", str(cfg), *argv]):
        code, out, err = run_cli(source, capsys)
        assert_one_line_usage_error(code, out, err, "unknown --ensemble 'wishart'")
        assert not rows.exists()


def test_verify_abstract_refuses_inaccurate_eigenpairs(monkeypatch, capsys):
    perturb_eigh(monkeypatch)
    code, out, err = run_cli(
        ["verify", "abstract", "--trials", "2", "--dim", "6", "--nops", "2", "--seed", "7"], capsys
    )
    assert code == 2
    assert out == "" and "residual" in err


def test_verify_abstract_parses_each_couple_once(monkeypatch, capsys):
    calls = []
    real_parse = couples.parse_couple_spec

    def counting_parse(text):
        calls.append(text)
        return real_parse(text)

    monkeypatch.setattr(couples, "parse_couple_spec", counting_parse)
    code, out, _ = run_cli(
        ["verify", "abstract", "--trials", "4", "--dim", "5", "--nops", "1",
         "--couple", "const-power:0", "--couple", "linear-power:1", "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["checks"] > 2
    assert calls == ["const-power:0", "linear-power:1"]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_verify_abstract_workers_below_one_exit_2(capsys, workers):
    code, out, err = run_cli(
        ["verify", "abstract", "--trials", "2", "--dim", "4", "--nops", "1", "--workers", workers],
        capsys,
    )
    assert code == 2
    assert out == "" and "--workers" in err


def test_verify_abstract_workers_capped_at_cpu_count(monkeypatch, capsys):
    pools = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records the pool size and maps
        in this process, so no worker process is started."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    # a huge --workers is capped, not refused: a pool of at most the CPU
    # count cannot exhaust the machine, and the bytes are those of one worker
    argv = ["verify", "abstract", "--trials", "3", "--dim", "4", "--nops", "1", "--seed", "2"]
    _, serial, _ = run_cli(argv + ["--workers", "1"], capsys)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    code, pooled, _ = run_cli(argv + ["--workers", "100000"], capsys)
    assert code == 0 and pooled == serial
    assert pools == ([cpus] if cpus > 1 else [])
    # the cap is the CPUs this process may use, not the machine's count; the
    # machine's count only where the platform cannot tell the first
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    for affinity in (True, False):
        if not affinity:
            monkeypatch.delattr(cli.os, "sched_getaffinity")
            monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        for workers in ("3", "100000"):
            pools.clear()
            code, pooled, _ = run_cli(argv + ["--workers", workers], capsys)
            assert code == 0
            assert pools == [2]
            assert pooled == serial


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "abstract", "--trials", "2", "--dim", "4", "--nops", "1", "--seed", "-1", "--workers", "1"],
        ["verify", "abstract", "--trials", "2", "--dim", "4", "--nops", "1", "--seed", "-1", "--workers", "2"],
        ["verify", "abstract", "--trials", "3", "--dim", "4", "--nops", "1", "--seed", "-2"],
        ["couple", "check", "--spec", "equal-power:2@10", "--seed", "-1"],
    ],
    ids=["abstract-workers-1", "abstract-workers-2", "abstract-seed-2", "couple-check"],
)
def test_a_negative_seed_exit_2(capsys, argv):
    # numpy's seeding refuses it with a ValueError, in a worker too
    seed = argv[argv.index("--seed") + 1]
    assert_one_line_usage_error(*run_cli(argv, capsys), f"--seed must be >= 0, got {seed}")


def test_verify_abstract_streams_trials_in_bounded_memory():
    # a cheap stub trial, 2*10^6 trials, 300 MB of address space: holding one
    # payload tuple and one row list per trial takes about 400 MB more than
    # importing the package does
    code = (
        "import resource, sys\n"
        "from specgap import cli\n"
        "cli._abstract_trial_worker = lambda payload: []\n"
        "resource.setrlimit(resource.RLIMIT_AS, (300 * 2**20, 300 * 2**20))\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = ["verify", "abstract", "--trials", "2000000", "--dim", "2", "--nops", "1"]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    summary = json.loads(proc.stdout)
    assert summary["trials"] == 2000000 and summary["checks"] == 0


def test_verify_abstract_refuses_dim_above_dense_cap(capsys):
    # refused before the 10^6 x 10^6 matrices of the instance are allocated
    argv = ["verify", "abstract", "--trials", "1", "--dim", "1000000", "--nops", "1"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == "" and err == "specgap: dimension 1000000 exceeds the dense cap 4096\n"


def test_verify_abstract_refuses_triple_above_entry_cap():
    # refused before the 10^8 operator pairs are allocated
    argv = ["verify", "abstract", "--trials", "1", "--dim", "8", "--nops", "100000000"]
    proc = run_cli_limited(argv)
    assert_one_line_usage_error(
        proc.returncode, proc.stdout, proc.stderr, "200000001 operators of dimension 8 exceed the cap"
    )


@pytest.mark.parametrize("min_gap", ["nan", "inf", "-1e-6"])
def test_verify_abstract_refuses_min_gap_that_switches_the_checks_off(capsys, min_gap):
    argv = ["verify", "abstract", "--trials", "2", "--dim", "4", "--nops", "1", f"--min-gap={min_gap}"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == "" and err.startswith("specgap: --min-gap must be finite and >= 0")


@pytest.mark.parametrize("trials", ["-5", "0"])
def test_verify_abstract_refuses_fewer_than_one_trial(capsys, trials):
    code, out, err = run_cli(["verify", "abstract", "--trials", trials, "--dim", "4", "--nops", "1"], capsys)
    assert code == 2
    assert out == "" and err == f"specgap: --trials must be at least 1, got {trials}\n"


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
    code, out, _ = run_cli(["couple", "check", "--spec", f"tabulated:{table}@1"], capsys)
    assert code == 1
    row = json.loads(out)
    assert row["passed"] is False
    assert row["witness"] is not None


def test_couple_check_tabulated_fail_row_format(tmp_path, capsys):
    table = tmp_path / "bad.csv"
    table.write_text("0.5,1,0.5\n1.5,3,1\n2.5,1,2\n")
    spec = f"tabulated:{table}@3"
    code, out, _ = run_cli(["couple", "check", "--spec", spec], capsys)
    assert code == 1
    assert out == (
        '{"spec":' + json.dumps(spec) + ',"lambda":3,"n_samples":3,"passed":false,"check":"pairwise",'
        '"worst":11,"witness":[1.5,2.5],"n_checked":3,"n_skipped":0,"g_nonincreasing":false}\n'
    )


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("flags", [{"samples": 500, "seed": 9}, {"samples": 1}, {"seed": 0}])
def test_couple_check_tabulated_refuses_sample_flags(tmp_path, capsys, source, flags):
    # a tabulated couple is checked on its table points: nothing is drawn
    table = tmp_path / "tab.csv"
    table.write_text("0.5,1,0.5\n1.5,3,1\n2.5,1,2\n")
    argv = ["couple", "check", "--spec", f"tabulated:{table}@3"]
    if source == "flag":
        argv += [item for key, value in flags.items() for item in (f"--{key}", str(value))]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(flags))
        argv = ["--config", str(cfg), *argv]
    code, out, err = run_cli(argv, capsys)
    assert_one_line_usage_error(code, out, err, "takes no " + ", ".join(f"--{key}" for key in flags))


@pytest.mark.parametrize("source", ["flag", "config"])
def test_couple_check_tabulated_needs_lambda(tmp_path, capsys, source):
    # a table's admissibility depends on lambda: no default is assumed
    table = tmp_path / "tab.csv"
    table.write_text("0.5,1,0.5\n0.7,0.9,0.4\n")
    argv = ["couple", "check", "--spec", f"tabulated:{table}"]
    if source == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spec": f"tabulated:{table}"}))
        argv = ["--config", str(cfg), "couple", "check"]
    code, out, err = run_cli(argv, capsys)
    assert_one_line_usage_error(code, out, err, "needs @lambda with a tabulated spec")


def test_couple_check_large_lambda_passes_without_warnings():
    # u**2 overflows where the screen's exact right side underflows to 0, and
    # g u where the pairwise f^2 / (g u) underflows to 0
    for spec in ("const-power:0@1e308", "const-power:1@1e200"):
        argv = ["-m", "specgap", "couple", "check", "--spec", spec, "--samples", "4"]
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["differentiable_screen"]["passed"] is True


@pytest.mark.parametrize(
    "spec, nulls",
    [("neg-power:-1,1@1e-170", (True, True)), ("linear-power:1@1e-200", (False, True)),
     ("const-power:5@1e-100", (False, False))],
)  # fmt: skip
def test_couple_check_passes_power_couples_at_a_tiny_lambda(spec, nulls):
    # checked in units of lambda, no step overflows or underflows; worst is
    # lambda^(2 ef - 2) and the screen's margin lambda^-2 times a value of
    # moderate size, written as null where that leaves the float range
    argv = ["-m", "specgap", "couple", "check", "--spec", spec, "--samples", "4"]
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc
    row = json.loads(proc.stdout)
    assert row["passed"] is True and row["differentiable_screen"]["passed"] is True
    assert (row["worst"] is None, row["differentiable_screen"]["worst_margin"] is None) == nulls


@pytest.mark.parametrize("rows", ["0.5,1,0.5\n", "0.5,1,0.5\n0.5,1,0.5\n"], ids=["one-row", "repeated-row"])
def test_couple_check_refuses_a_table_without_two_distinct_points(tmp_path, capsys, rows):
    table = tmp_path / "one.csv"
    table.write_text(rows)
    code, out, err = run_cli(["couple", "check", "--spec", f"tabulated:{table}@3"], capsys)
    assert code == 2 and out == "" and err == "specgap: need at least 2 distinct sample points\n"


@pytest.mark.parametrize(
    "f, g", [("nan", "1"), ("inf", "1"), ("inf", "inf")], ids=["f-nan", "f-inf", "f-and-g-inf"]
)
def test_couple_check_refuses_a_table_with_a_non_finite_value(tmp_path, f, g):
    # refused where the table is read, before any arithmetic can warn
    table = tmp_path / "t.csv"
    table.write_text(f"0.5,1,0.5\n0.2,{f},{g}\n0.7,0.5,0.25\n0.9,{f},1\n")
    argv = ["-m", "specgap", "couple", "check", "--spec", f"tabulated:{table}@1"]
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=120)
    want = f"specgap: tabulated f and g must be finite, got f = {f}, g = {float(g)} at x = 0.2\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", want)


def test_couple_check_refuses_rows_the_lookup_cannot_tell_apart(tmp_path, capsys):
    # x = 0.1 twice, and 0.3 and 0.3 (1 + 5e-13): the lookup reads the first
    # row of each, so a second with other values would be ignored
    table = tmp_path / "t.csv"
    cases = [
        ("0.1,1,1\n0.1,2,1\n0.3,0.8,0.4\n", "0.1"),
        ("0.1,1,1\n0.3,0.8,0.4\n0.30000000000015,0.8,0.5\n", "0.30000000000015"),
    ]
    for rows, x in cases:
        table.write_text(rows)
        code, out, err = run_cli(["couple", "check", "--spec", f"tabulated:{table}@1"], capsys)
        assert (code, out, err) == (2, "", f"specgap: tabulated x = {x} has two rows with different f, g\n")


def test_couple_check_takes_a_repeated_row_with_its_values(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("0.1,1,1\n0.1,1,1\n0.3,0.8,0.4\n")
    code, out, err = run_cli(["couple", "check", "--spec", f"tabulated:{table}@1"], capsys)
    assert (code, err) == (0, "")
    assert out == (
        f'{{"spec":"tabulated:{table}@1","lambda":1,"n_samples":3,"passed":true,"check":"pairwise",'
        '"worst":-9.1904761904761934,"witness":null,"n_checked":2,"n_skipped":1,"g_nonincreasing":true}\n'
    )


@pytest.mark.parametrize(
    "spec, refusal",
    [
        ("const-power:inf", "const-power needs one parameter alpha >= 0, got (inf,)"),
        ("linear-power:inf@3", "linear-power needs one parameter beta >= 1/2, got (inf,)"),
    ],
    ids=["const-power", "linear-power"],
)
def test_couple_check_refuses_a_non_finite_parameter(capsys, spec, refusal):
    # inf passes the one-sided range test, and was refused only later as a
    # couple that is not positive on the samples
    assert run_cli(["couple", "check", "--spec", spec], capsys) == (2, "", f"specgap: {refusal}\n")


def test_couple_check_malformed_exit_2(capsys):
    code, _, _ = run_cli(["couple", "check", "--spec", "foo:@"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "rows, refusal",
    [
        (None, "cannot read couple table"),
        ("0.5,one,0.5\n", "bad couple table"),
        ("0.5,1\n1.5,1\n", "needs rows x,f,g"),
    ],
    ids=["missing", "not-numeric", "two-columns"],
)
def test_couple_check_refuses_a_table_it_cannot_read(tmp_path, capsys, rows, refusal):
    table = tmp_path / "t.csv"
    if rows is not None:
        table.write_text(rows)
    assert_one_line_usage_error(*run_cli(["couple", "check", "--spec", f"tabulated:{table}@3"], capsys), refusal)


def test_couple_check_refuses_too_many_samples(capsys):
    # refused before the ~5 * 10^13 sample pairs are allocated
    argv = ["couple", "check", "--spec", "equal-power:2@5", "--samples", "10000000"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == "" and err == "specgap: 10000000 samples exceed the cap of 4096\n"
    argv = ["couple", "check", "--spec", "equal-power:2@5", "--samples", "1"]
    assert run_cli(argv, capsys) == (2, "", "specgap: need at least 2 samples\n")


@pytest.mark.parametrize(
    "spec, samples",
    [("equal-power:2@5", "256"), ("linear-power:0.5@5", "4096"), ("neg-power:-1,1@5", "4096")],
)
def test_couple_check_passes_admissible_boundary_couples(capsys, spec, samples):
    # close random samples: the raw difference quotients refused the first two
    code, out, _ = run_cli(["couple", "check", "--spec", spec, "--samples", samples], capsys)
    row = json.loads(out)
    assert code == 0 and row["passed"] is True, row


# ---------------------------------------------------------------------------
# every numeric flag at the edges of its type
# ---------------------------------------------------------------------------


def test_every_numeric_flag_ends_in_an_exit_code(tmp_path, capsys):
    # each numeric flag of each subcommand at -1, 0, NaN, +-inf and a value
    # that overflows a float, the other flags at a small valid value: every
    # run ends in exit 0, 1 or 2, or in argparse's exit 2, never in an
    # exception.  --workers takes only values that start no process, and no
    # value asks for large work.
    eigs = str(tmp_path / "box.csv")
    assert cli.main(["spectrum", "box", "--dims", "1,1.37", "--count", "12", "--out", eigs]) == 0
    commands = [
        (["spectrum", "box"], {"dims": "1,1", "count": "4"}),
        (["spectrum", "fd", "--problem", "laplacian"], {"dims": "1,1", "grid": "6,6", "power": "1", "count": "3"}),
        (["spectrum", "fd", "--problem", "clamped"], {"dims": "1,1", "grid": "6,6", "count": "3"}),
        (["spectrum", "fd", "--problem", "kohn"], {"dims": "1,1,1", "grid": "4,4,4", "power": "1", "count": "3"}),
        (["bound", "--ineq", "all", "--eigs", eigs], {"n": "2", "l": "1", "k": "4"}),
        (["verify", "abstract"],
         {"trials": "2", "dim": "4", "nops": "1", "seed": "3", "workers": "1", "min-gap": "1e-6"}),
        (["verify", "spectrum", "--eigs", eigs], {"n": "2", "l": "1", "slack": "1e-3"}),
        (["couple", "check", "--spec", "equal-power:2@10"], {"samples": "8", "seed": "0"}),
    ]  # fmt: skip
    runs = 0
    for words, flags in commands:
        for flag in flags:
            values = ("-1", "0") if flag == "workers" else ("-1", "0", "nan", "inf", "-inf", "1e400")
            for value in values:
                argv = words + [f"--{name}={value if name == flag else base}" for name, base in flags.items()]
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse refused the value
                    code = exc.code
                capsys.readouterr()
                assert code in (0, 1, 2), argv
                runs += 1
    assert runs == 158


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


@pytest.mark.parametrize("count", ["x", [3, 4]], ids=["text", "list"])
def test_config_values_are_checked_like_their_flags(tmp_path, capsys, count):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": count, "dims": "1,1"}))
    code, out, err = run_cli(["--config", str(cfg), "spectrum", "box"], capsys)
    assert code == 2
    assert out == "" and "config key 'count'" in err


def test_config_bad_value_is_one_line_without_usage(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": "x", "dims": "1,1"}))
    code, out, err = run_cli(["--config", str(cfg), "spectrum", "box"], capsys)
    assert code == 2
    assert out == "" and "usage:" not in err
    assert err == "specgap: config key 'count': argument --count: invalid int value: 'x'\n"
    cfg.write_text(json.dumps([{"count": 3}]))
    code, out, err = run_cli(["--config", str(cfg), "spectrum", "box", "--dims", "1"], capsys)
    assert (code, out, err) == (2, "", "specgap: config must be a JSON object mirroring the flags\n")


def test_config_not_utf8_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bin.csv"
    cfg.write_bytes(b"\xff\xfe\x00bad\n")
    code, out, err = run_cli(["--config", str(cfg), "spectrum", "box", "--dims", "1", "--count", "2"], capsys)
    assert code == 2
    assert out == "" and err.startswith("specgap: cannot load config") and err.count("\n") == 1


@pytest.mark.parametrize(
    "value,flags",
    [
        ("const-power:0", ["--couple", "const-power:0"]),
        (["const-power:0", "linear-power:1"], ["--couple", "const-power:0", "--couple", "linear-power:1"]),
    ],
    ids=["text", "list"],
)
def test_config_value_of_a_repeatable_flag(tmp_path, capsys, value, flags):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"couple": value, "trials": 2}))
    code, out_cfg, _ = run_cli(
        ["--config", str(cfg), "verify", "abstract", "--dim", "5", "--nops", "1"], capsys
    )
    assert code == 0
    _, out_flags, _ = run_cli(
        ["verify", "abstract", *flags, "--trials", "2", "--dim", "5", "--nops", "1"], capsys
    )
    assert out_cfg == out_flags


# ---------------------------------------------------------------------------
# determinism (subprocess level; the acceptance suite covers --workers)
# ---------------------------------------------------------------------------


def test_repeat_run_byte_identical(tmp_path):
    argv = [sys.executable, "-m", "specgap", "verify", "abstract", "--trials", "6",
            "--dim", "6", "--nops", "2", "--couple", "equal-power:2", "--seed", "11"]
    a = subprocess.run(argv, capture_output=True, timeout=120)
    b = subprocess.run(argv, capture_output=True, timeout=120)
    assert a.returncode == 0 and a.stdout == b.stdout


# ---------------------------------------------------------------------------
# idle BLAS workers (src/specgap/__main__.py sets OPENBLAS_THREAD_TIMEOUT)
# ---------------------------------------------------------------------------

BLAS_TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"
CLAMPED_30 = ["spectrum", "fd", "--problem", "clamped", "--dims", "1,1", "--grid", "30,30", "--count", "20"]
KOHN_12 = ["spectrum", "fd", "--problem", "kohn", "--dims", "1,1,1", "--grid", "12,12,12", "--count", "30"]


def _env_without_blas_timeout(**extra):
    """This process's environment with no OPENBLAS_THREAD_TIMEOUT of its own,
    so the child reads only the one under test."""
    env = {k: v for k, v in os.environ.items() if k != BLAS_TIMEOUT}
    env.update(extra)
    return env


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="an idle BLAS worker spins only on a second core")
def test_cli_process_leaves_no_idle_blas_worker_spinning(tmp_path):
    # with OpenBLAS's own timeout the clamped plate's process burns about 1.6 x its wall in CPU
    code = (
        "import resource, subprocess, sys, time\n"
        "start = time.perf_counter()\n"
        "proc = subprocess.run([sys.executable, '-m', 'specgap', *sys.argv[1:]], stdout=subprocess.DEVNULL)\n"
        "wall = time.perf_counter() - start\n"
        "usage = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
        "print(proc.returncode, wall, usage.ru_utime + usage.ru_stime)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, *CLAMPED_30], cwd=tmp_path, env=_env_without_blas_timeout(),
                         capture_output=True, text=True, check=True, timeout=120)  # fmt: skip
    returncode, wall, cpu = out.stdout.split()
    assert int(returncode) == 0
    assert float(cpu) <= 1.2 * float(wall) + 0.05, (cpu, wall)


@pytest.mark.parametrize("argv", [CLAMPED_30, KOHN_12], ids=["clamped-30", "kohn-12"])
def test_blas_timeout_changes_no_output_byte(tmp_path, argv):
    def run(env):
        return subprocess.run([sys.executable, "-m", "specgap", *argv], cwd=tmp_path, env=env, capture_output=True,
                              timeout=120)  # fmt: skip

    ours, openblas_own = run(_env_without_blas_timeout()), run(_env_without_blas_timeout(**{BLAS_TIMEOUT: "28"}))
    assert ours.returncode == 0 and ours.stderr == b"", ours.stderr[-500:]
    assert (ours.returncode, ours.stdout, ours.stderr) == (
        openblas_own.returncode, openblas_own.stdout, openblas_own.stderr
    )


@pytest.mark.parametrize(
    "module, caller, seen",
    [("specgap.__main__", "28", "28"), ("specgap.__main__", None, "4"), ("specgap.operators", None, None)],
    ids=["caller-wins", "cli-default", "library-untouched"],
)
def test_blas_timeout_is_a_default_of_the_cli_alone(tmp_path, module, caller, seen):
    env = _env_without_blas_timeout(**({BLAS_TIMEOUT: caller} if caller else {}))
    code = f"import os, {module}; print(os.environ.get({BLAS_TIMEOUT!r}))"
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
                         check=True, timeout=60)  # fmt: skip
    assert out.stdout == f"{seen}\n"


# ---------------------------------------------------------------------------
# the process entry (src/specgap/__main__.py flushes, then skips teardown)
# ---------------------------------------------------------------------------

BOX_4 = ["spectrum", "box", "--dims", "1,1", "--count", "4"]


def _specgap_process(argv, timeout=120, **kwargs):
    """``python -m specgap`` with buffered stdout (no PYTHONUNBUFFERED), so
    a stream left unflushed at exit loses bytes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "specgap", *argv], env=env, timeout=timeout, **kwargs)


def _in_process_out(argv, path) -> bytes:
    assert cli.main([*argv, "--out", str(path)]) == 0
    return path.read_bytes()


def test_cli_process_reports_a_closed_pipe_as_the_interpreter_does():
    # buffered, the flush fails and the interpreter reports it once, with exit
    # code 120 (unbuffered, the write itself would fail inside cli.main)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _specgap_process(BOX_4, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 120, proc.stderr
    assert b"BrokenPipeError" in proc.stderr and b"Traceback" not in proc.stderr, proc.stderr


def test_cli_process_with_stdout_closed_writes_its_out_file(tmp_path):
    out = tmp_path / "f.csv"
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m specgap "$@" >&-', sys.executable, *BOX_4, "--out", str(out)],
                          capture_output=True, timeout=120)  # fmt: skip
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert out.read_bytes() == _in_process_out(BOX_4, tmp_path / "in_process.csv")


def test_no_process_outlives_the_cli():
    # a pool worker left running holds the captured pipes open, so this times out
    proc = _specgap_process(["verify", "abstract", "--trials", "40", "--dim", "6", "--nops", "2", "--workers", "2",
                             "--seed", "3"], capture_output=True, timeout=60)  # fmt: skip
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(proc.stdout.splitlines()[-1])["trials"] == 40


@pytest.mark.parametrize(
    "argv",
    [
        CLAMPED_30,
        KOHN_12,
        ["bound", "--ineq", "all", "--eigs", "box.csv", "--n", "2"],
        ["verify", "spectrum", "--eigs", "box.csv", "--n", "2"],
        ["verify", "abstract", "--trials", "6", "--dim", "6", "--nops", "2", "--seed", "11"],
    ],
    ids=["fd-clamped-30", "fd-kohn-12", "bound", "verify-spectrum", "verify-abstract"],
)
def test_cli_process_writes_the_bytes_of_cli_main(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "box.csv").write_text("# n: 2\n" + "".join(f"{v}\n" for v in (2, 5, 5, 8, 10, 10, 13, 13, 17)))
    to_stdout = _specgap_process(argv, capture_output=True)
    to_file = _specgap_process([*argv, "--out", "f.out"], capture_output=True)
    assert (to_stdout.returncode, to_stdout.stderr, to_file.returncode, to_file.stderr) == (0, b"", 0, b"")
    assert to_file.stdout == b""
    assert to_stdout.stdout == (tmp_path / "f.out").read_bytes() == _in_process_out(argv, tmp_path / "in_process.out")


def test_cli_module_refuses_to_run_as_a_second_entry():
    # by the time `python -m specgap.cli` runs its module numpy has loaded, too
    # late for __main__.py's OPENBLAS_THREAD_TIMEOUT default
    proc = subprocess.run([sys.executable, "-m", "specgap.cli", "spectrum", "box", "--dims", "1", "--count", "2"],
                          capture_output=True, text=True, timeout=120)  # fmt: skip
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "specgap: run `python -m specgap` or the installed `specgap` script\n"


def test_json_line_refuses_a_value_it_cannot_serialize():
    with pytest.raises(TypeError, match="cannot serialize <class 'object'>"):
        cli.json_line({"x": object()})
