"""Every name a package module imports is used in that module, and every
private name it defines at module level is read there."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "optrap"
# __init__ imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = _parse(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})"
                    for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports unused names: {unused}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_orphaned_private_name(path):
    # a _-prefixed module-level function, class or assignment that nothing
    # in its module reads is dead code (private names are not exported)
    tree = _parse(path)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            defined.update((name.id, node.lineno) for name in ast.walk(node)
                           if isinstance(name, ast.Name)
                           and isinstance(name.ctx, ast.Store))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    orphans = sorted(f"{name} (line {line})" for name, line in defined.items()
                     if name.startswith("_") and not name.startswith("__")
                     and name not in read)
    assert not orphans, f"{path.name} defines unread private names: {orphans}"
