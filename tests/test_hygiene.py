"""Source hygiene of src/specgap, read with the stdlib ``ast`` module: no
unused import; no private module-level name that nothing in the package
refers to; no public module-level name that nothing in the package, the
demos or the benchmark refers to (the package root exports nothing); no
eigenvalue call of a ``linalg`` module outside ``eigensolve.py`` but the two
that return no eigenpairs to a caller; no call of ARPACK (``eigsh``) or
SuperLU (``splu``) outside ``eigensolve.py``; no module-level import of
scipy, which costs every command of the CLI its import time; and no import
of scipy in ``operators.py`` but the sparse build of its one assembler; and
no call of ``_validate_grid`` in ``operators.py`` but with a problem name,
so each problem's grid rules are read from its one row; in
``operators.py`` a ``dense`` parameter on ``_assemble`` alone, and every
call of ``_assemble`` but ``_block_smallest``'s passing ``dense=False``, so
one function decides how a block is stored; every producer of
``operators._FD`` takes its ||A||_inf from ``_abs_apply``, so no norm is
written by hand beside the terms it bounds; ``__main__.py`` sets its
OPENBLAS_THREAD_TIMEOUT default before it imports the package or numpy,
and the installed script runs it; ``os._exit`` is called once, in
``__main__.main`` after its flushes, and never by ``cli.main``; and in
``couples.py`` one points gate, the only reader of MAX_MEMBERSHIP_SAMPLES,
and one domain test, the only text of the (0, lambda) refusal.
References from tests do not count: a helper that only a test calls is dead
code.

Also run, each in a process of its own: ``spectrum fd --problem laplacian``,
and ``--problem clamped`` and ``--problem kohn`` below the dense/ARPACK
crossover, load no scipy module at all; and each command loads only the
modules it runs: ``spectrum fd`` none of ``bounds``, ``couples``,
``abstract``, ``numpy.ma`` or ``fractions``, ``bound`` and ``verify
spectrum`` no ``abstract``, and ``verify abstract --workers 1`` and ``couple
check`` no ``bounds`` or ``numpy.ma``; none of them loads the process pool
of ``verify abstract --workers`` above 1, and ``import specgap`` loads no
numpy."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from specgap.operators import _FD, FD_PROBLEMS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "specgap"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")
# a shift from eigvalsh whose eigenvectors are never used, and the roots of a
# companion matrix, which is not Hermitian
LINALG_EIG_SITES = {("abstract.py", "random_instance"), ("bounds.py", "_quartic_roots")}
# ARPACK and SuperLU: eigensolve wraps them with its residual check, inertia
# count and out-of-memory handling
SPARSE_SOLVERS = {"eigsh", "splu"}
# operators.py builds every matrix through one assembler, whose sparse build
# is the module's one import of scipy.sparse
OPERATORS_SPARSE_SITE = "_assemble"
# and the one function that picks each block's build and solver
OPERATORS_ROUTE_SITE = "_block_smallest"
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _loaded_names(node: ast.AST, skip: ast.AST = None) -> set:
    """Names read anywhere below ``node`` (bare names and attribute names),
    leaving out the subtree ``skip``."""
    found, stack = set(), [node]
    while stack:
        current = stack.pop()
        if current is skip:
            continue
        if isinstance(current, ast.Name) and not isinstance(current.ctx, ast.Store):
            found.add(current.id)
        elif isinstance(current, ast.Attribute):
            found.add(current.attr)
        elif isinstance(current, ast.ImportFrom):
            found.update(alias.name for alias in current.names)
        stack.extend(ast.iter_child_nodes(current))
    return found


def _imports_with_scope(tree: ast.Module):
    """(binding name, line, innermost enclosing scope) of every import."""
    stack = [(tree, tree)]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno, scope
        inner = node if isinstance(node, SCOPES) else scope
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))


def _module_definitions(tree: ast.Module):
    """(name, defining node) of each module-level name but dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                yield name, node


def _nodes_by_function(tree: ast.Module):
    """(node, innermost enclosing function or None) of every node."""
    stack = [(tree, None)]
    while stack:
        node, function = stack.pop()
        yield node, function
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        stack.extend((child, function) for child in ast.iter_child_nodes(node))


def _linalg_eig_calls(tree: ast.Module):
    """(line, innermost enclosing function) of each call of an eig* function
    reached through a ``linalg`` module."""
    for node, function in _nodes_by_function(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            owner_name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)
            if owner_name == "linalg" and node.func.attr.startswith("eig"):
                yield node.lineno, function


def _sparse_solver_calls(tree: ast.Module):
    """(line, name) of each call of a SPARSE_SOLVERS function, by bare or
    attribute name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in SPARSE_SOLVERS:
                yield node.lineno, name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    unused = [
        f"{path.name}:{line} imports {name} but never uses it"
        for name, line, scope in _imports_with_scope(tree)
        if name not in _loaded_names(scope)
    ]
    assert not unused, unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_module_name_is_referenced_in_the_package(path):
    trees = {p: _tree(p) for p in sorted(PACKAGE.glob("*.py"))}
    elsewhere = set().union(*(_loaded_names(t) for p, t in trees.items() if p != path))
    orphans = [
        f"{path.name}:{node.lineno} defines {name}, which nothing in src/specgap references"
        for name, node in _module_definitions(trees[path])
        if name.startswith("_")
        and name not in elsewhere
        and name not in _loaded_names(trees[path], skip=node)
    ]
    assert not orphans, orphans


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_module_name_is_exported_or_referenced(path):
    # the package root's imports are its exports
    users = [p for p in PACKAGE.glob("*.py") if p != path]
    users += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    elsewhere = set().union(*(_loaded_names(_tree(p)) for p in users))
    tree = _tree(path)
    orphans = [
        f"{path.name}:{node.lineno} defines {name}, which the package root does not export and "
        "nothing in src/specgap, demos/ or bench/ references"
        for name, node in _module_definitions(tree)
        if not name.startswith("_")
        and name not in elsewhere
        and name not in _loaded_names(tree, skip=node)
    ]
    assert not orphans, orphans


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "eigensolve.py"], ids=lambda p: p.name)
def test_eigenvalue_calls_go_through_eigensolve(path):
    tree = _tree(path)
    stray = [
        f"{path.name}:{line} calls a linalg eigenvalue function in {function}"
        for line, function in _linalg_eig_calls(tree)
        if (path.name, function) not in LINALG_EIG_SITES
    ]
    stray += [f"{path.name}:{line} calls {name}" for line, name in _sparse_solver_calls(tree)]
    assert not stray, stray


def _module_level_imports(tree: ast.Module):
    """(line, module name) of each import that runs when the module is
    imported: in the module body or in its if/try/with blocks, but not under
    ``if TYPE_CHECKING:``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module
        elif isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                stack.extend(node.body)
            stack.extend(node.orelse)
        elif isinstance(node, (ast.Try, ast.With)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                stack.extend(getattr(node, field, []))
        elif isinstance(node, ast.ExceptHandler):
            stack.extend(node.body)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    stray = [
        f"{path.name}:{line} imports {name} at module level"
        for line, name in _module_level_imports(_tree(path))
        if name == "scipy" or name.startswith("scipy.")
    ]
    assert not stray, stray


def _scipy_imports_by_function(tree: ast.Module):
    """(line, innermost enclosing function or None) of each import of scipy
    or a scipy submodule, leaving out ``if TYPE_CHECKING:`` blocks."""
    stack = [(tree, None)]
    while stack:
        node, function = stack.pop()
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            stack.extend((child, function) for child in node.orelse)
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            yield node.lineno, function
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        stack.extend((child, function) for child in ast.iter_child_nodes(node))


def test_operators_imports_scipy_only_in_its_assembler():
    sites = list(_scipy_imports_by_function(_tree(PACKAGE / "operators.py")))
    assert [function for _, function in sites] == [OPERATORS_SPARSE_SITE], sites


def test_operators_picks_a_build_only_in_block_smallest():
    """A block is handed to the solver as its Kronecker terms: in
    operators.py only ``_assemble`` takes a parameter named ``dense``, and
    every call of ``_assemble`` outside ``OPERATORS_ROUTE_SITE`` passes
    (terms, dense=False), so the dense/sparse choice is made in one place."""
    calls, stray = [], []
    for node, function in _nodes_by_function(_tree(PACKAGE / "operators.py")):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            name = getattr(node, "name", "lambda")
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if name != "_assemble" and any(param.arg == "dense" for param in params):
                stray.append(f"operators.py:{node.lineno} {name} takes a parameter named dense")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_assemble":
            calls.append(function)
            keywords = [(k.arg, k.value.value if isinstance(k.value, ast.Constant) else None) for k in node.keywords]
            if function != OPERATORS_ROUTE_SITE and not (len(node.args) == 1 and keywords == [("dense", False)]):
                stray.append(f"operators.py:{node.lineno} calls {ast.unparse(node)} in {function}")
    assert OPERATORS_ROUTE_SITE in calls and not stray, stray


def test_operators_validates_each_grid_by_its_problem_name():
    """The fewest points, stencil order and axes of a grid come from its
    problem's row of ``operators._FD``: every call of ``_validate_grid``
    passes (sides, grids, problem), the problem an FD_PROBLEMS name or the
    caller's ``problem``, and no keyword."""
    calls = [
        node
        for node in ast.walk(_tree(PACKAGE / "operators.py"))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_validate_grid"
    ]
    stray = [
        f"operators.py:{call.lineno} calls _validate_grid with {ast.unparse(call)}"
        for call in calls
        if call.keywords
        or len(call.args) != 3
        or not (
            (isinstance(call.args[2], ast.Constant) and call.args[2].value in FD_PROBLEMS)
            or (isinstance(call.args[2], ast.Name) and call.args[2].id == "problem")
        )
    ]
    assert calls and not stray, stray


def test_each_fd_producer_takes_its_norm_from_abs_apply():
    """A producer's ||A||_inf comes from the Kronecker terms its matrix is
    assembled from: every producer named in ``operators._FD`` calls
    ``_abs_apply``, so a stencil is never written a second time as a
    hand-derived row sum."""
    producers = {row.produce.__name__ for row in _FD.values()}
    calls_abs_apply = {
        node.name: any(
            isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_abs_apply" for call in ast.walk(node)
        )
        for node in ast.walk(_tree(PACKAGE / "operators.py"))
        if isinstance(node, ast.FunctionDef) and node.name in producers
    }
    assert len(producers) == len(FD_PROBLEMS), producers
    assert calls_abs_apply == dict.fromkeys(producers, True), calls_abs_apply


def _sets_blas_timeout(stmt: ast.stmt) -> bool:
    """Whether ``stmt`` is ``os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", ...)``."""
    call = stmt.value if isinstance(stmt, ast.Expr) else None
    return (
        isinstance(call, ast.Call)
        and ast.unparse(call.func) == "os.environ.setdefault"
        and bool(call.args)
        and isinstance(call.args[0], ast.Constant)
        and call.args[0].value == "OPENBLAS_THREAD_TIMEOUT"
    )


def _imports_package_or_numpy(stmt: ast.stmt) -> bool:
    if isinstance(stmt, ast.ImportFrom):
        return stmt.level > 0 or stmt.module.split(".")[0] in ("specgap", "numpy", "scipy")
    if isinstance(stmt, ast.Import):
        return any(alias.name.split(".")[0] in ("specgap", "numpy", "scipy") for alias in stmt.names)
    return False


def test_cli_sets_the_blas_timeout_before_numpy_loads():
    """OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, when numpy loads it: the
    CLI's default is set in ``__main__.py`` before the module imports ``.cli``
    (which imports numpy), and the installed script runs that module too."""
    body = _tree(PACKAGE / "__main__.py").body
    sets = [i for i, stmt in enumerate(body) if _sets_blas_timeout(stmt)]
    imports = [i for i, stmt in enumerate(body) if _imports_package_or_numpy(stmt)]
    assert len(sets) == 1 and imports and sets[0] < min(imports), (sets, imports)
    section = (ROOT / "pyproject.toml").read_text().split("[project.scripts]\n")[1].split("\n[")[0]
    assert section.split() == ["specgap", "=", '"specgap.__main__:main"'], section


def test_only_the_cli_entry_skips_teardown_and_only_after_flushing():
    """``os._exit`` skips the flush of every buffered stream: its one call in
    src/specgap is in ``__main__.main``, after that function's flushes, so
    ``cli.main`` still returns to library callers and the tracer."""
    exits, flushes = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node, function in _nodes_by_function(_tree(path)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "_exit":
                    exits.append((path.name, function, node.lineno))
                elif node.func.attr == "flush" and (path.name, function) == ("__main__.py", "main"):
                    flushes.append(node.lineno)
    assert [(name, function) for name, function, _ in exits] == [("__main__.py", "main")], exits
    assert flushes and max(flushes) < exits[0][2], (flushes, exits)


# couples.py: the gate every certificate reads its samples through, and the
# test of the (0, lambda) domain that the gate and evaluate_batch call
COUPLES_POINTS_GATE = "_points"
COUPLES_DOMAIN_TEST = "_check_domain"
DOMAIN_REFUSAL = "lie in (0, "


def test_couples_reads_its_cap_and_states_its_domain_once():
    """Only the points gate reads the sample cap, and only the domain test
    holds the text of the (0, lambda) refusal: a second reader of the cap or
    a second statement of the refusal fails here."""
    stray = []
    for node, function in _nodes_by_function(_tree(PACKAGE / "couples.py")):
        if isinstance(node, ast.Name) and node.id == "MAX_MEMBERSHIP_SAMPLES" and isinstance(node.ctx, ast.Load):
            if function != COUPLES_POINTS_GATE:
                stray.append(f"couples.py:{node.lineno} reads MAX_MEMBERSHIP_SAMPLES in {function}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and DOMAIN_REFUSAL in node.value:
            if function != COUPLES_DOMAIN_TEST:
                stray.append(f"couples.py:{node.lineno} states the (0, lambda) refusal in {function}")
    assert not stray, stray


def _loaded_modules(tmp_path, argv, watched) -> str:
    """The exit code of one CLI command and the modules it loads among
    ``watched`` and their submodules.  With no ``argv`` nothing runs but
    ``import specgap``, whose exit code reads 0."""
    code = (
        "import sys\n"
        "import specgap\n"
        "watched, argv = sys.argv[1].split(','), sys.argv[2:]\n"
        "if argv:\n"
        "    from specgap import cli\n"
        "code = cli.main(argv) if argv else 0\n"
        "print(code, sorted(m for m in sys.modules if any(m == w or m.startswith(w + '.') for w in watched)))\n"
    )
    argv = [*argv, "--out", str(tmp_path / "out.txt")] if argv else []
    proc = subprocess.run(
        [sys.executable, "-c", code, ",".join(watched), *argv], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    return proc.stdout or proc.stderr[-500:]


def _loaded_scipy_modules(tmp_path, argv) -> str:
    """The exit code and the scipy modules loaded by one CLI command."""
    return _loaded_modules(tmp_path, argv, ["scipy"])


def test_laplacian_spectrum_loads_no_scipy_module(tmp_path):
    argv = ["spectrum", "fd", "--problem", "laplacian", "--dims", "1,1.5", "--grid", "20,30", "--power", "2",
            "--count", "50"]  # fmt: skip
    assert _loaded_scipy_modules(tmp_path, argv) == "0 []\n"


def test_clamped_spectrum_below_the_crossover_loads_no_scipy_module(tmp_path):
    argv = ["spectrum", "fd", "--problem", "clamped", "--dims", "1,1", "--grid", "30,30", "--count", "20"]
    assert _loaded_scipy_modules(tmp_path, argv) == "0 []\n"


def test_kohn_spectrum_below_the_crossover_loads_no_scipy_module(tmp_path):
    argv = ["spectrum", "fd", "--problem", "kohn", "--dims", "1,1,1", "--grid", "12,12,12", "--count", "30"]
    assert _loaded_scipy_modules(tmp_path, argv) == "0 []\n"


# what each command may not load: the modules of the other commands, the
# process pool of verify abstract --workers > 1, np.unique's numpy.ma, and
# the exact arithmetic of the Kohn constants
SPECTRUM_FD_SKIPS = ["specgap.bounds", "specgap.couples", "specgap.abstract", "concurrent.futures.process",
                     "multiprocessing", "numpy.ma", "fractions"]  # fmt: skip


@pytest.mark.parametrize(
    "argv, skipped",
    [
        ([], ["numpy"]),
        (["spectrum", "fd", "--problem", "laplacian", "--dims", "1,1.5", "--grid", "20,30", "--power", "2",
          "--count", "50"], SPECTRUM_FD_SKIPS),
        (["spectrum", "fd", "--problem", "clamped", "--dims", "1,1", "--grid", "30,30", "--count", "20"],
         SPECTRUM_FD_SKIPS),
        (["spectrum", "fd", "--problem", "kohn", "--dims", "1,1,1", "--grid", "12,12,12", "--count", "30"],
         SPECTRUM_FD_SKIPS),
        (["bound", "--ineq", "all", "--eigs", "box.csv", "--n", "2"], ["specgap.abstract", "multiprocessing"]),
        (["verify", "spectrum", "--eigs", "box.csv", "--n", "2"], ["specgap.abstract", "multiprocessing"]),
        (["verify", "abstract", "--trials", "3", "--dim", "5", "--nops", "2", "--workers", "1"],
         ["specgap.bounds", "multiprocessing", "numpy.ma"]),
        (["couple", "check", "--spec", "equal-power:2@5"], ["specgap.bounds", "multiprocessing", "numpy.ma"]),
    ],
    ids=["import-specgap", "fd-laplacian", "fd-clamped", "fd-kohn", "bound", "verify-spectrum", "verify-abstract",
         "couple-check"],
)  # fmt: skip
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, skipped):
    (tmp_path / "box.csv").write_text("# n: 2\n" + "".join(f"{v}\n" for v in (2, 5, 5, 8, 10, 10, 13, 13, 17)))
    assert _loaded_modules(tmp_path, argv, skipped) == "0 []\n"
