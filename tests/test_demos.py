"""Every narrative demo runs to completion against the current library."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    # the demos read demos/mg24.json relative to the working directory and
    # write their files (stability_demo.csv/.png) into it
    (tmp_path / "demos").mkdir()
    shutil.copy(REPO / "demos" / "mg24.json", tmp_path / "demos")
    env = dict(os.environ, MPLBACKEND="Agg",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(REPO / "src"),
                                 os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
