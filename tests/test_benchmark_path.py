"""The benchmark's ``coupled_checks`` body, at smoke size, in the tier-1 suite.

``perfbench/run.py`` generates the config and ``perfbench/workloads.py`` holds
the workload; both are compiled from their files and never imported as
modules, so nothing is written next to them.  The run passes its gates and
draws noise twice: the translation check's base solve is served from the
solution the workload holds, and only the shifted solve draws again.
"""

import json
from pathlib import Path

from theta_fbsde import coupling

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str) -> dict:
    path = PERFBENCH / name
    namespace = {"__name__": f"perfbench_{path.stem}", "__file__": str(path)}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace


def test_coupled_checks_smoke_passes_its_gates_with_two_noise_draws(tmp_path, monkeypatch):
    config = _load("run.py")["make_config"]("coupled_checks", 5, smoke=True)
    config_path = tmp_path / "coupled_checks.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    draws = []
    original = coupling.brownian_increments

    def counting(*args):
        draws.append(args)
        return original(*args)

    monkeypatch.setattr(coupling, "brownian_increments", counting)
    workload = _load("workloads.py")["CoupledChecks"](config_path, out)
    workload.run()
    _, gates = workload.check()
    assert gates and all(gate["passed"] for gate in gates.values()), gates
    assert len(draws) == 2
    assert (out / "value_surface.csv").exists()
