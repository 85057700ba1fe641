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


def run_module(flags, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "theta_fbsde", *flags],
        capture_output=True, text=True, env=env, timeout=120, cwd=cwd,
    )


def test_module_runs_the_command_line(tmp_path):
    result = run_module(["counterexample", "--lambda", "2", "--gamma", "1", "--steps", "50"], tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("counterexample: ")
    assert list(tmp_path.iterdir()) == []


def test_module_rejects_an_unknown_flag(tmp_path):
    result = run_module(["counterexample", "--lambda", "2", "--gamma", "1", "--bogus"], tmp_path)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["error: unrecognized arguments: --bogus"]
