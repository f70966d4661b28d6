"""Every narrative script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ofat

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(ofat.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env,
                          cwd=demo.parent, timeout=600)
    assert proc.returncode == 0, proc.stderr
