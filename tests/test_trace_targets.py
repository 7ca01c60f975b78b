"""The benchmark's traced entry points exist in the package.

``perfbench/tracing.py`` wraps ``optrap`` functions by dotted name and
reports a metric absent when its target is gone.  Renaming or deleting a
traced function should fail here, in the fast suite, not only in the
benchmark's own self-tests.  Some of its size functions read arguments
by position, so moving such a parameter would silently size the spans by
another argument; that fails here too.
"""

import ast
import importlib
import inspect
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# run_path compiles the source without importing perfbench or caching bytecode
TARGETS = runpy.run_path(str(TRACING))["TARGETS"]

# the parameter each size function expects at the position it reads
POSITIONAL = {
    "integrators.rk8_scalar_oscillator": {3: "nsteps"},
    "dynamics.integrate_full": {2: "t_end"},
    "dynamics.integrate_driven": {0: "spec"},
    "dynamics.TrajectoryRecord.to_csv_text": {0: "self"},
    "dipole_trap.dipole_force_at": {1: "position"},
    "dipole_trap.mean_force_at": {1: "position"},
    "model.intensity_gradient_at": {1: "position"},
    "mathieu_floquet.mathieu_monodromy": {0: "a", 1: "q"},
}


def _resolve(target):
    module, *path = target.split(".")
    owner = importlib.import_module(f"optrap.{module}")
    for name in path:
        owner = getattr(owner, name)
    return owner


def _positions_read():
    """target -> the argument positions its size function in tracing.py
    reads, as constant subscripts of its first parameter."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TARGETS"
                         for t in node.targets))
    reads = {}
    for key, size in zip(table.keys, table.values):
        if isinstance(size, ast.Name):
            size = functions[size.id]
        if not isinstance(size, (ast.Lambda, ast.FunctionDef)):
            continue
        args_name = size.args.args[0].arg
        positions = {node.slice.value for node in ast.walk(size)
                     if isinstance(node, ast.Subscript)
                     and getattr(node.value, "id", None) == args_name
                     and isinstance(node.slice, ast.Constant)}
        if positions:
            reads[key.value] = positions
    return reads


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_trace_target_resolves(target):
    assert callable(_resolve(target))


def test_positional_table_matches_tracing():
    assert _positions_read() == {target: set(names)
                                 for target, names in POSITIONAL.items()}


@pytest.mark.parametrize("target", sorted(POSITIONAL))
def test_size_arguments_keep_their_position(target):
    params = list(inspect.signature(_resolve(target)).parameters)
    for index, name in POSITIONAL[target].items():
        assert params[index] == name
