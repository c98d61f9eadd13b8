"""Every script in demos/ runs to the end in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracou

SRC = str(Path(fracou.__file__).resolve().parents[1])
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stdout.strip()
