import numpy as np
import pytest

from theta_fbsde import (
    AffineControlDrift,
    ConstantVolatility,
    DivergenceError,
    EmpiricalMeasure,
    LinearTerminal,
    ProblemSpec,
    QuadraticPenaltyDriver,
    QuadraticTerminal,
    RegressionBasisError,
    TimeGrid,
    brownian_increments,
    simulate_forward,
    solve_backward,
    solve_deterministic_ode,
)


def zero_drift():
    return AffineControlDrift(np.array([0.0]), np.array([[0.0]]))


def zero_driver_spec(sigma, terminal, x0=1.0, horizon=1.0):
    """Driver with w0 inside a singleton set: optimized value identically zero."""
    return ProblemSpec(
        horizon=horizon,
        x0=np.array([x0]),
        drift=zero_drift(),
        volatility=ConstantVolatility(np.array([[sigma]])),
        driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.0),
        terminal=terminal,
        ambiguity=__import__("theta_fbsde").static_set([(0.0, 0.0)]),
    )


def solve_plain(spec, grid, n, seed):
    increments = brownian_increments(seed, n, grid.n_steps, spec.noise_dim, grid.dt)
    controls = np.zeros((grid.n_nodes, n))
    laws = [EmpiricalMeasure(np.zeros(n))] * grid.n_nodes
    xs = simulate_forward(spec, grid, controls, laws, increments)
    ys, zs = solve_backward(spec, grid, xs, controls, laws, increments)
    return xs, ys, zs, increments


class TestBackwardRegression:
    def test_martingale_initial_value(self):
        spec = zero_driver_spec(0.5, LinearTerminal(np.array([1.0])))
        grid = TimeGrid(1.0, 20)
        n = 4000
        xs, ys, zs, _ = solve_plain(spec, grid, n, seed=2)
        se = float(np.std(xs[-1, :, 0]) / np.sqrt(n))
        assert abs(float(np.mean(ys[0])) - 1.0) <= 3 * se

    def test_squared_normal_closed_form(self):
        spec = zero_driver_spec(1.0, QuadraticTerminal(), x0=0.0)
        grid = TimeGrid(1.0, 25)
        n = 6000
        _, ys, _, _ = solve_plain(spec, grid, n, seed=3)
        se = float(np.std(ys[-1]) / np.sqrt(n))
        assert abs(float(np.mean(ys[0])) - 1.0) <= 3 * se + 5e-3

    def test_volatility_regression_slope(self):
        # terminal x and unit noise: the volatility row is the constant one
        spec = zero_driver_spec(1.0, LinearTerminal(np.array([1.0])), x0=0.0)
        grid = TimeGrid(1.0, 10)
        n = 10_000
        _, _, zs, _ = solve_plain(spec, grid, n, seed=4)
        node_means = np.mean(zs[:, :, 0], axis=1)
        assert np.all(np.abs(node_means - 1.0) <= 5e-2)

    def test_terminal_consistency_exact(self):
        spec = zero_driver_spec(0.7, QuadraticTerminal(), x0=0.3)
        grid = TimeGrid(1.0, 12)
        xs, ys, _, _ = solve_plain(spec, grid, 500, seed=5)
        assert np.array_equal(ys[-1], np.sum(xs[-1] ** 2, axis=1))

    def test_zero_driver_stepwise_martingale(self):
        spec = zero_driver_spec(0.6, LinearTerminal(np.array([1.0])), x0=0.0)
        grid = TimeGrid(1.0, 20)
        n = 8000
        _, ys, _, _ = solve_plain(spec, grid, n, seed=6)
        increments = ys[1:] - ys[:-1]
        z = np.mean(increments, axis=1) / (np.std(increments, axis=1, ddof=1) / np.sqrt(n))
        assert np.mean(np.abs(z) <= 3.0) >= 0.95

    def test_rank_deficiency_raises(self):
        # three particles cannot fit the four columns of the cubic basis
        spec = zero_driver_spec(1.0, LinearTerminal(np.array([1.0])), x0=0.0)
        grid = TimeGrid(1.0, 3)
        n = 3
        increments = brownian_increments(1, n, grid.n_steps, 1, grid.dt)
        controls = np.zeros((grid.n_nodes, n))
        laws = [EmpiricalMeasure(np.zeros(n))] * grid.n_nodes
        xs = simulate_forward(spec, grid, controls, laws, increments)
        with pytest.raises(RegressionBasisError):
            solve_backward(spec, grid, xs, controls, laws, increments)

    def test_two_point_cloud_raises(self):
        # enough rows, but two distinct states span only two of the four columns
        spec = zero_driver_spec(1.0, LinearTerminal(np.array([1.0])), x0=0.0)
        grid = TimeGrid(1.0, 2)
        n = 50
        xs = np.tile(np.arange(n) % 2, (grid.n_nodes, 1))[:, :, None].astype(float)
        increments = brownian_increments(1, n, grid.n_steps, 1, grid.dt)
        controls = np.zeros((grid.n_nodes, n))
        laws = [EmpiricalMeasure(np.zeros(n))] * grid.n_nodes
        with pytest.raises(RegressionBasisError, match="condition number"):
            solve_backward(spec, grid, xs, controls, laws, increments)


class TestDeterministicIntegrator:
    def test_zero_terminal_stays_zero(self):
        def g(y):
            return y * y

        _, ys = solve_deterministic_ode(g, 0.0, 1.0, 100)
        assert np.all(ys == 0.0)

    def test_linear_driver_closed_form(self):
        lam0 = 0.7

        def g(y):
            return lam0 * y

        _, ys = solve_deterministic_ode(g, 0.5, 1.0, 200)
        # y' = -lam0 y backward from 0.5 gives y(0) = 0.5 e^{lam0}
        assert ys[0] == pytest.approx(0.5 * np.exp(lam0), rel=1e-9)

    def test_quadratic_driver_closed_form(self):
        def g(y):
            return y * y

        _, ys = solve_deterministic_ode(g, 0.1, 1.0, 500)
        assert ys[0] == pytest.approx(0.1 / 0.9, rel=1e-10)

    def test_fourth_order_convergence(self):
        def g(y):
            return y * y + 0.3 * np.sin(y)

        ref = solve_deterministic_ode(g, 0.2, 1.0, 4096)[1][0]
        errors = [abs(solve_deterministic_ode(g, 0.2, 1.0, n)[1][0] - ref) for n in (16, 32, 64)]
        r1 = errors[0] / errors[1]
        r2 = errors[1] / errors[2]
        assert 10.0 <= r1 <= 22.0
        assert 10.0 <= r2 <= 22.0

    def test_divergence_detected(self):
        def g(y):
            return y * y

        with pytest.raises(DivergenceError):
            solve_deterministic_ode(g, 2.0, 1.0, 100)
