"""The forward and backward sweeps write every row in place, with the old bits.

``simulate_forward`` writes ``b dt``, then ``+ x``, then ``+ diffusion`` into
node i + 1 of its output, and ``solve_backward`` writes each node's targets
into one row-major block per sweep, divides the volatility row straight into
``Z[i]`` and forms ``value dt + cont`` in ``Y[i]``.  The reference loops below
keep the formulas the sweeps had before (``np.column_stack``,
``cont + value * dt``, ``x + b * dt + diffusion``, fresh arrays per node);
every reordered operation is one commutative IEEE operation, so the outputs
must agree bit for bit.
"""

from pathlib import Path

import numpy as np
import pytest

from theta_fbsde import (
    AffineControlDrift,
    CallableVolatility,
    ConstantVolatility,
    DivergenceError,
    EmpiricalMeasure,
    LinearTerminal,
    ProblemSpec,
    TimeGrid,
    brownian_increments,
    simulate_forward,
    solve_backward,
    static_set,
)
from theta_fbsde import bsde
from theta_fbsde.optimizer import DriverState

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


class ZReadingDriver:
    """F = 0.5 y - 0.1 |z|^2 + 0.2 a, poisoned with NaN at ``poison_time``."""

    def __init__(self, poison_time=None):
        self.poison_time = poison_time

    def value(self, state: DriverState, a):
        value = 0.5 * state.y - 0.1 * np.sum(state.z * state.z, axis=-1) + 0.2 * a
        if self.poison_time is not None and state.t == self.poison_time:
            value = value * np.nan
        return value


def make_spec(case, driver=None):
    if case == "1d":
        k, volatility = 1, ConstantVolatility(np.array([[0.3]]))
        c1 = np.array([[0.25]])
    elif case == "2d_callable":
        k = 2
        sigma = np.array([[0.3, 0.0], [0.1, 0.2]])
        volatility = CallableVolatility(
            fn=lambda t, x, a, mu: sigma * (1.0 + 0.1 * np.tanh(x))[:, :, None],
            noise_dim=2,
        )
        c1 = np.array([[0.25, 0.05], [0.05, 0.2]])
    else:
        # the third coordinate moves deterministically, so every node but
        # the first fits on two of three coordinates
        k = 3
        volatility = ConstantVolatility(np.array([[0.3, 0.0], [0.1, 0.2], [0.0, 0.0]]))
        c1 = np.diag([0.25, 0.2, 0.0])
    return ProblemSpec(
        horizon=1.0,
        x0=np.linspace(1.0, 0.5, k),
        drift=AffineControlDrift(np.full(k, 0.1), c1),
        volatility=volatility,
        driver=driver if driver is not None else ZReadingDriver(),
        terminal=LinearTerminal(np.ones(k)),
        ambiguity=static_set([(-2.0, -1.0), (1.0, 2.0)]),
    )


def inputs(spec, n_steps, n):
    grid = TimeGrid(spec.horizon, n_steps)
    increments = brownian_increments(4, n, grid.n_steps, spec.noise_dim, grid.dt)
    controls = np.random.default_rng(9).uniform(-1.0, 1.0, (grid.n_nodes, n))
    laws = [EmpiricalMeasure(np.zeros(n))] * grid.n_nodes
    return grid, controls, laws, increments


def reference_forward(spec, grid, controls, laws, increments):
    n = increments.shape[1]
    xs = np.empty((grid.n_nodes, n, spec.state_dim))
    x = np.tile(spec.x0, (n, 1))
    xs[0] = x
    times = grid.times
    for i in range(grid.n_steps):
        b = spec.drift(times[i], x, controls[i], laws[i])
        s = spec.volatility(times[i], x, controls[i], laws[i])
        if np.ndim(s) == 2:
            diffusion = np.dot(increments[i], np.asarray(s).T)
        else:
            diffusion = np.einsum("nkd,nd->nk", np.asarray(s), increments[i])
        x = x + np.asarray(b) * grid.dt + diffusion
        if not np.all(np.isfinite(x)):
            raise DivergenceError("state became non-finite", node=i + 1)
        xs[i + 1] = x
    return xs


def reference_backward(spec, grid, x_paths, controls, laws, increments):
    n_nodes, n = x_paths.shape[:2]
    d = spec.noise_dim
    times, dt = grid.times, grid.dt
    Y = np.empty((n_nodes, n))
    Z = np.zeros((n_nodes, n, d))
    Y[-1] = np.asarray(spec.terminal(x_paths[-1]), dtype=float)
    for i in range(grid.n_steps - 1, -1, -1):
        targets = np.column_stack([Y[i + 1]] + [Y[i + 1] * increments[i, :, j] for j in range(d)])
        fitted = bsde._node_regression(x_paths[i], targets, bsde.REGRESSION_DEGREE).values
        cont = fitted[:, 0]
        z = fitted[:, 1:] / dt
        state = DriverState(t=times[i], x=x_paths[i], y=cont, z=z, mu=laws[i])
        y_new = cont + np.asarray(spec.driver.value(state, controls[i]), dtype=float) * dt
        if not np.all(np.isfinite(y_new)):
            raise DivergenceError("value process became non-finite", node=i)
        Y[i] = y_new
        Z[i] = z
    Z[-1] = Z[-2]
    return Y, Z


CASES = [("1d", 400), ("2d_callable", 400), ("3d_one_frozen", 3000)]


@pytest.mark.parametrize("case, n", CASES, ids=[case for case, _ in CASES])
def test_sweeps_give_the_bits_of_the_out_of_place_loops(case, n):
    spec = make_spec(case)
    grid, controls, laws, increments = inputs(spec, 8, n)
    xs = simulate_forward(spec, grid, controls, laws, increments)
    assert xs.tobytes() == reference_forward(spec, grid, controls, laws, increments).tobytes()
    # every particle starts at x0: node 0 is fitted by the frozen branch,
    # whose column means read the targets block
    assert np.all(np.ptp(xs[0], axis=0) == 0.0)
    assert np.all(np.ptp(xs[1], axis=0)[: min(2, spec.state_dim)] > 0.0)
    ys, zs = solve_backward(spec, grid, xs, controls, laws, increments)
    ref_y, ref_z = reference_backward(spec, grid, xs, controls, laws, increments)
    assert ys.tobytes() == ref_y.tobytes()
    assert zs.tobytes() == ref_z.tobytes()


@pytest.mark.parametrize("case", ["1d", "2d_callable"])
def test_non_finite_rows_raise_at_the_same_node(case):
    spec = make_spec(case)
    grid, controls, laws, increments = inputs(spec, 8, 200)
    xs = simulate_forward(spec, grid, controls, laws, increments)
    poisoned = make_spec(case, driver=ZReadingDriver(poison_time=grid.times[5]))
    with pytest.raises(DivergenceError) as ours:
        solve_backward(poisoned, grid, xs, controls, laws, increments)
    with pytest.raises(DivergenceError) as reference:
        reference_backward(poisoned, grid, xs, controls, laws, increments)
    assert ours.value.node == reference.value.node == 5

    drift = spec.drift
    def blowing_up(t, x, a, mu):
        return drift(t, x, a, mu) * (np.inf if t >= 0.3 else 1.0)

    poisoned = ProblemSpec(
        spec.horizon, spec.x0, blowing_up, spec.volatility, spec.driver, spec.terminal,
        spec.ambiguity,
    )
    with pytest.raises(DivergenceError) as ours:
        simulate_forward(poisoned, grid, controls, laws, increments)
    with pytest.raises(DivergenceError) as reference:
        reference_forward(poisoned, grid, controls, laws, increments)
    assert ours.value.node == reference.value.node == 4


def test_returned_arrays_own_their_memory():
    # a later sweep reuses no returned row: X, Y and Z are fresh arrays, and
    # a second solve leaves the first one's bytes as they were
    spec = make_spec("2d_callable")
    grid, controls, laws, increments = inputs(spec, 6, 300)
    xs = simulate_forward(spec, grid, controls, laws, increments)
    ys, zs = solve_backward(spec, grid, xs, controls, laws, increments)
    for array in (xs, ys, zs):
        assert array.base is None and array.flags.owndata and array.flags.writeable
    kept = [array.tobytes() for array in (xs, ys, zs)]
    xs2 = simulate_forward(spec, grid, -controls, laws, increments)
    ys2, zs2 = solve_backward(spec, grid, xs2, -controls, laws, increments)
    assert [array.tobytes() for array in (xs, ys, zs)] == kept
    for first, second in ((xs, xs2), (ys, ys2), (zs, zs2)):
        assert not np.shares_memory(first, second)
        assert not np.array_equal(first, second)


def test_node_fit_keeps_the_arguments_the_tracer_reads(monkeypatch):
    # perfbench/tracer.py's _regression_work reads (x, targets, degree) from
    # the positional arguments of each _node_regression call
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    regression_work = namespace["_regression_work"]
    spec = make_spec("2d_callable")
    grid, controls, laws, increments = inputs(spec, 5, 300)
    xs = simulate_forward(spec, grid, controls, laws, increments)
    fit, calls = bsde._node_regression, []

    def recorded(*args, **kwargs):
        result = fit(*args, **kwargs)
        calls.append((len(args), sorted(kwargs), regression_work(args, result), args[0], args[2]))
        return result

    monkeypatch.setattr(bsde, "_node_regression", recorded)
    solve_backward(spec, grid, xs, controls, laws, increments)
    assert len(calls) == grid.n_steps
    for node, (n_args, keywords, work, x, degree) in zip(range(grid.n_steps - 1, -1, -1), calls):
        assert (n_args, keywords, degree) == (3, [], bsde.REGRESSION_DEGREE)
        assert np.shares_memory(x, xs[node]) and x.shape == xs[node].shape
        if node == 0:
            assert work == {}
        else:
            assert work["bsde.regression_rows"] == 300
            # two coordinates at degree 3 give 10 columns; 1 + d = 3 targets
            assert work["bsde.regression_flop"] == 8 * 300 * 10 * 10 + 2 * 300 * 10 * 3
