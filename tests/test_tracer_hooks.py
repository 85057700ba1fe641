"""Every hook target of the benchmark tracer resolves in the package.

``perfbench/tracer.py`` patches functions by module and dotted attribute name.
A rename leaves a traced benchmark run with a warning and without the metrics
that hook feeds; this catches it in the tier-1 suite, without running the
benchmark.  The tracer source is compiled from its file and never imported as
a module, so nothing is patched and nothing is written next to it.
"""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_hooks() -> list[tuple[str, str]]:
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return sorted({(module, attr) for module, attr, *_ in namespace["HOOKS"]})


HOOK_TARGETS = _tracer_hooks()


def test_tracer_has_hooks():
    assert len(HOOK_TARGETS) >= 30


@pytest.mark.parametrize(
    "module_name, attr", HOOK_TARGETS, ids=[f"{m}:{a}" for m, a in HOOK_TARGETS]
)
def test_hook_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_hooked_stages_run_in_a_solve(monkeypatch):
    """A tiny README-problem solve still calls the hooked forward, fit and basis functions.

    Resolving is not enough: a refactor that stopped calling one of them (a
    fit that built its basis inline, say) would leave the traced layer
    reading 0 without a warning.  Each sweep that runs (a sweep whose controls
    repeat the last one's is counted but not run) makes one forward pass and
    one backward sweep of ``n_steps`` fits, and each fit builds one basis
    unless its state cloud is frozen (node 0, where every particle sits at x0).
    """
    import numpy as np

    from theta_fbsde import (
        AffineControlDrift, ConstantVolatility, LinearF0, LinearTerminal, ProblemSpec,
        QuadraticPenaltyDriver, TimeGrid, bsde, coupling, picard_solve, static_set,
    )

    forward, fit, basis = coupling.simulate_forward, bsde._node_regression, bsde.polynomial_basis
    sweep = coupling._sweep
    sweeps, forward_calls, fits, basis_calls = [], [], [], []

    def counted_sweep(*args, **kwargs):
        sweeps.append(1)
        return sweep(*args, **kwargs)

    def counted_forward(*args, **kwargs):
        forward_calls.append(1)
        return forward(*args, **kwargs)

    def counted_fit(x, targets, degree):
        before = len(basis_calls)
        result = fit(x, targets, degree)
        fits.append((bool(np.any(np.ptp(x, axis=0) > 0)), len(basis_calls) - before))
        return result

    def counted_basis(*args, **kwargs):
        basis_calls.append(1)
        return basis(*args, **kwargs)

    monkeypatch.setattr(coupling, "_sweep", counted_sweep)
    monkeypatch.setattr(coupling, "simulate_forward", counted_forward)
    monkeypatch.setattr(bsde, "_node_regression", counted_fit)
    monkeypatch.setattr(bsde, "polynomial_basis", counted_basis)
    spec = ProblemSpec(
        horizon=1.0,
        x0=np.array([1.0]),
        drift=AffineControlDrift(np.array([0.0]), np.array([[0.25]])),
        volatility=ConstantVolatility(np.array([[0.3]])),
        driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.6, f0=LinearF0(0.5)),
        terminal=LinearTerminal(np.array([1.0])),
        ambiguity=static_set([(-2.0, -1.0), (1.0, 2.0)]),
    )
    grid = TimeGrid(1.0, 6)
    _, report = picard_solve(spec, grid, 60, seed=2)
    assert report.iterations >= 2 and 1 <= len(sweeps) <= report.iterations
    assert len(forward_calls) == len(sweeps)
    assert len(fits) == len(sweeps) * grid.n_steps
    assert [moving for moving, _ in fits[:grid.n_steps]] == [True] * (grid.n_steps - 1) + [False]
    assert all(built == int(moving) for moving, built in fits)


def test_deterministic_valuation_reaches_the_hooked_argmax(monkeypatch):
    """One deterministic valuation makes one hooked ODE solve, and each of its
    driver evaluations makes one hooked ``optimizer.maximize_over`` call.

    The tracer counts ``optimizer.argmax_calls`` there; a refactor whose
    optimized driver bypassed ``maximize_over`` would leave that count
    reading 0 without a warning.
    """
    from theta_fbsde import (
        DeterministicSpec, QuarticDriver, TimeGrid, optimizer, properties, theta_expectation,
    )

    assert ("theta_fbsde.properties", "solve_deterministic_ode") in HOOK_TARGETS
    assert ("theta_fbsde.optimizer", "maximize_over") in HOOK_TARGETS
    solve, maximize = properties.solve_deterministic_ode, optimizer.maximize_over
    solves, argmax_per_evaluation, argmax_calls = [], [], []

    def counted_solve(g, *args):
        def counted_g(y):
            before = len(argmax_calls)
            value = g(y)
            argmax_per_evaluation.append(len(argmax_calls) - before)
            return value

        solves.append(1)
        return solve(counted_g, *args)

    def counted_maximize(*args, **kwargs):
        argmax_calls.append(1)
        return maximize(*args, **kwargs)

    monkeypatch.setattr(properties, "solve_deterministic_ode", counted_solve)
    monkeypatch.setattr(optimizer, "maximize_over", counted_maximize)
    driver = QuarticDriver(2.0, 1.0)
    spec = DeterministicSpec(driver, driver.interior_set(1.0), 1.0)
    grid = TimeGrid(1.0, 20)
    theta_expectation(spec, grid, xi=0.3)
    assert len(solves) == 1
    assert argmax_per_evaluation == [1] * (4 * grid.n_steps)


def test_properties_counterexample_reaches_the_hooked_ode_and_argmax(monkeypatch, tmp_path):
    """The ``properties`` counterexample suite reaches the hooked ODE solve and argmax.

    The tracer reads ``bsde.ode_calls`` and ``bsde.ode_s`` from
    ``properties.solve_deterministic_ode`` and ``optimizer.argmax_calls`` from
    ``optimizer.maximize_over``, both patched as module attributes.  A check
    that bound either one locally (or an optimized driver that did) would
    leave them reading 0.  Every scalar argmax call of the suite comes from a
    driver evaluation inside a hooked solve, one call each; the martingale
    check evaluates the driver with the batched kernel instead.
    """
    import json

    from theta_fbsde import cli, optimizer, properties

    solve, maximize = properties.solve_deterministic_ode, optimizer.maximize_over
    solves, argmax_per_evaluation, argmax_calls = [], [], []

    def counted_solve(g, *args):
        def counted_g(y):
            before = len(argmax_calls)
            value = g(y)
            argmax_per_evaluation.append(len(argmax_calls) - before)
            return value

        solves.append(1)
        return solve(counted_g, *args)

    def counted_maximize(*args, **kwargs):
        argmax_calls.append(1)
        return maximize(*args, **kwargs)

    monkeypatch.setattr(properties, "solve_deterministic_ode", counted_solve)
    monkeypatch.setattr(optimizer, "maximize_over", counted_maximize)
    config = tmp_path / "properties.json"
    config.write_text(json.dumps({"counterexample": {
        "lambda": 2.0, "gamma": 1.0, "c": 0.1, "T": 1.0, "steps": 20,
    }}))
    assert cli.main(["properties", "--config", str(config), "--out", str(tmp_path)]) == 0
    # 5 distinct valuations (E[c], E[-c] and E[0], then E[c] and E[0] at half
    # the steps) plus the dynamic consistency check's two composed segments
    assert len(solves) == 7
    assert argmax_per_evaluation and set(argmax_per_evaluation) == {1}
    assert len(argmax_calls) == len(argmax_per_evaluation)
