"""Source hygiene of src/specgap, read with the stdlib ``ast`` module: no
unused import, and no private module-level name that nothing in the package
refers to.  References from tests do not count: a private helper that only a
test calls is dead code."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "specgap"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")
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


def _private_definitions(tree: ast.Module):
    """(name, defining node) of each private module-level name."""
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
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


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
        for name, node in _private_definitions(trees[path])
        if name not in elsewhere and name not in _loaded_names(trees[path], skip=node)
    ]
    assert not orphans, orphans
