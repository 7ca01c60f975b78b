"""Every narrative demo, and the README quickstart, runs to completion
against the current library."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"
DEMOS = sorted((REPO / "demos").glob("*.py")) + [README]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    # the demos read demos/mg24.json relative to the working directory and
    # write their files (stability_demo.csv/.png) into it
    (tmp_path / "demos").mkdir()
    shutil.copy(REPO / "demos" / "mg24.json", tmp_path / "demos")
    if demo == README:   # its one ```python block, the library quickstart
        text = README.read_text(encoding="utf-8")
        demo = tmp_path / "quickstart.py"
        demo.write_text(text.split("```python\n")[1].split("```")[0],
                        encoding="utf-8")
    env = dict(os.environ, MPLBACKEND="Agg",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(REPO / "src"),
                                 os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
