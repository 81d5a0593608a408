"""Source hygiene of src/specgap, read with the stdlib ``ast`` module: no
unused import; no private module-level name that nothing in the package
refers to; no public module-level name that the package root does not export
and that nothing in the package, the demos or the benchmark refers to; no
eigenvalue call of a ``linalg`` module outside ``eigensolve.py`` but the two
that return no eigenpairs to a caller; no call of ARPACK (``eigsh``) or
SuperLU (``splu``) outside ``eigensolve.py``; and no module-level import of
scipy, which costs every command of the CLI its import time.  References from
tests do not count: a helper that only a test calls is dead code.  Also run:
``spectrum fd --problem laplacian``, and ``--problem clamped`` and
``--problem kohn`` below the dense/ARPACK crossover, load no scipy module at
all."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "specgap"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")
# a shift from eigvalsh whose eigenvectors are never used, and the roots of a
# companion matrix, which is not Hermitian
LINALG_EIG_SITES = {("abstract.py", "random_instance"), ("bounds.py", "_quartic_roots")}
# ARPACK and SuperLU: eigensolve wraps them with its residual check, inertia
# count and out-of-memory handling
SPARSE_SOLVERS = {"eigsh", "splu"}
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


def _linalg_eig_calls(tree: ast.Module):
    """(line, innermost enclosing function) of each call of an eig* function
    reached through a ``linalg`` module."""
    stack = [(tree, None)]
    while stack:
        node, function = stack.pop()
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value
            owner_name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)
            if owner_name == "linalg" and node.func.attr.startswith("eig"):
                yield node.lineno, function
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        stack.extend((child, function) for child in ast.iter_child_nodes(node))


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


def _loaded_scipy_modules(tmp_path, argv) -> str:
    """The exit code and the scipy modules loaded by one CLI command."""
    code = (
        "import sys\n"
        "from specgap import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    argv = [*argv, "--out", str(tmp_path / "spec.csv")]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=60)
    return proc.stdout or proc.stderr[-500:]


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
