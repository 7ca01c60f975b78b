"""The benchmark's traced entry points exist in the package.

``perfbench/tracing.py`` wraps ``optrap`` functions by dotted name and
reports a metric absent when its target is gone.  Renaming or deleting a
traced function should fail here, in the fast suite, not only in the
benchmark's own self-tests.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
# run_path compiles the source without importing perfbench or caching bytecode
TARGETS = runpy.run_path(str(TRACING))["TARGETS"]


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_trace_target_resolves(target):
    module, *path = target.split(".")
    owner = importlib.import_module(f"optrap.{module}")
    for name in path:
        owner = getattr(owner, name)
    assert callable(owner)
