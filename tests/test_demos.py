import os
import subprocess
import sys
from pathlib import Path

import pytest

import clarkekit

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_script_runs(script, tmp_path):
    src = os.path.dirname(os.path.dirname(clarkekit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
    assert out.stdout
