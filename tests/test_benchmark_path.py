"""Every benchmark workload body, at smoke size, in the tier-1 suite.

``perfbench/run.py`` generates the config and ``perfbench/workloads.py`` holds
the workloads; both are compiled from their files and never imported as
modules, so nothing is written next to them.  Each run passes its gates,
which puts the state-free (``solve_csv``), law-dependent (``coupled_checks``)
and state-dependent (``quartic_grid``) paths of the engine under test.
``coupled_checks`` draws noise twice: the translation check's base solve is
served from the solution the workload holds, and the shifted solve's request
is served from the noise memo, so only one draw is made.  ``quartic_grid`` integrates 10 deterministic valuations: the
property suite and the counterexample ask for 18, and the repeats of one
spec, terminal value and step count are served from the valuation memo.
"""

import json
from pathlib import Path

import pytest

from theta_fbsde import coupling, properties, sde

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str) -> dict:
    path = PERFBENCH / name
    namespace = {"__name__": f"perfbench_{path.stem}", "__file__": str(path)}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace


@pytest.mark.parametrize("workload", ["solve_csv", "coupled_checks", "quartic_grid"])
def test_smoke_body_passes_its_gates(workload, tmp_path, monkeypatch):
    config = _load("run.py")["make_config"](workload, 5, smoke=True)
    config_path = tmp_path / f"{workload}.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    draws, real_draws, integrations = [], [], []

    def counting(calls, original):
        def counted(*args):
            calls.append(args)
            return original(*args)

        return counted

    monkeypatch.setattr(
        coupling, "brownian_increments", counting(draws, coupling.brownian_increments)
    )
    monkeypatch.setattr(sde, "_last_draw", None)
    monkeypatch.setattr(sde, "_draw_increments", counting(real_draws, sde._draw_increments))
    monkeypatch.setattr(
        properties,
        "solve_deterministic_ode",
        counting(integrations, properties.solve_deterministic_ode),
    )
    body = _load("workloads.py")["WORKLOADS"][workload](config_path, out)
    body.run()
    _, gates = body.check()
    assert gates and all(gate["passed"] for gate in gates.values()), gates
    if workload == "coupled_checks":
        assert len(draws) == 2
        assert len(real_draws) == 1
        assert (out / "value_surface.csv").exists()
    if workload == "quartic_grid":
        assert len(integrations) == 10
