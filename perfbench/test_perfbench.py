"""Self-test of the benchmark: every workload at smoke size, untraced and traced.

Run from the repository root with ``python3 -m pytest perfbench``.  It takes
about half a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
import tracer  # noqa: E402


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_passes_its_gates_and_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert "warning" not in proc.stderr
    assert any(line.startswith("env ") for line in lines)
    assert any(line.startswith("metric error_rate = 0 ") for line in lines)
    assert sum(line.startswith("gate ") for line in lines) >= 4


def test_fails_without_result_outside_a_source_checkout():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("solve_csv", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_hook_target_warns_and_leaves_its_metrics_out(capsys):
    rec = tracer.Recorder()
    rec.install([("theta_fbsde.coupling", "no_such_function", "span", "sde.noise", None)])
    assert "no_such_function" in capsys.readouterr().err
    rec.enabled = True
    with rec.span("benchmark.workload"):
        pass
    metrics = rec.layer_metrics("benchmark.workload")
    assert "sde.noise_s" not in metrics and "trace.unattributed_s" in metrics


def test_self_times_add_up_to_the_root_span():
    rec = tracer.Recorder()
    rec.installed.update({"coupling.solve", "bsde.backward"})
    rec.enabled = True
    with rec.span("benchmark.workload"):
        with rec.span("theta_fbsde.picard_solve", "coupling.solve"):
            with rec.span("coupling.solve_backward", "bsde.backward"):
                sum(range(10_000))
            sum(range(10_000))
        sum(range(10_000))
    stats = rec._by_key()
    root_total = stats["benchmark.workload"][1]
    assert sum(entry[2] for entry in stats.values()) == pytest.approx(root_total, rel=1e-9)
    assert 0.0 < stats["coupling.solve"][2] < stats["coupling.solve"][1]
