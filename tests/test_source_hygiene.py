"""Every name a package module imports is used in that module, every
private name it defines at module level is read there, and every public
function or class it defines is read somewhere in the repository."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "optrap"
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


def _readers(path):
    # (name, owner) for each name one file reads as ast.Name or
    # ast.Attribute; owner is the module-level definition it sits in
    for node in _parse(path).body:
        owner = getattr(node, "name", None)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                yield sub.id, owner
            elif isinstance(sub, ast.Attribute):
                yield sub.attr, owner


def test_no_unreferenced_public_name():
    # a public module-level function or class that nothing in src/, tests/
    # or demos/ reads outside its own definition (an import alone does not
    # count) is dead code
    readers = {}
    for path in [*SRC.glob("*.py"), *(REPO / "tests").glob("*.py"),
                 *(REPO / "demos").glob("*.py")]:
        for name, owner in _readers(path):
            readers.setdefault(name, set()).add((path, owner))
    unread = sorted(f"{path.name}: {node.name} (line {node.lineno})"
                    for path in MODULES for node in _parse(path).body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef))
                    and not node.name.startswith("_")
                    and not readers.get(node.name, set()) - {(path, node.name)})
    assert not unread, f"public names nothing reads: {unread}"
