"""Smoke runs of the experiment scripts documented in the README, at tiny sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = [
    ("run_counterexample.py", ["--steps", "50"]),
    ("run_application.py", ["--particles", "300", "--steps", "20"]),
    ("run_pde_check.py", ["--particles", "300", "--steps", "20"]),
]


@pytest.mark.parametrize("script,flags", SCRIPTS, ids=[name for name, _ in SCRIPTS])
def test_script_runs(script, flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *flags],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
