"""Every demo script runs to completion against the current package."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # src is on PYTHONPATH through conftest.py
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
