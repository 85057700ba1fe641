import numpy as np
import pytest

from theta_fbsde import (
    AffineControlDrift,
    AffineTheta,
    AmbiguityMap,
    CallableDrift,
    ConstantVolatility,
    DriverState,
    EmpiricalMeasure,
    IntervalUnion,
    LinearF0,
    LinearTerminal,
    NoConvergenceError,
    NonContractionError,
    ProblemSpec,
    QuadraticPenaltyDriver,
    QuarticDriver,
    TimeGrid,
    UsageError,
    brownian_increments,
    fixed_point_residual,
    maximize_over,
    picard_solve,
    simulate_forward,
    solve_backward,
    static_set,
    y0_standard_error,
)


def application_spec(horizon=1.0, f0_slope=0.5):
    return ProblemSpec(
        horizon=horizon,
        x0=np.array([1.0]),
        drift=AffineControlDrift(np.array([0.0]), np.array([[0.25]])),
        volatility=ConstantVolatility(np.array([[0.3]])),
        driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.6, f0=LinearF0(f0_slope)),
        terminal=LinearTerminal(np.array([1.0])),
        ambiguity=static_set([(-2.0, -1.0), (1.0, 2.0)]),
    )


def feedback_spec(horizon=0.5):
    """Law-dependent set: the mean of the value process shifts the feasible set."""
    return ProblemSpec(
        horizon=horizon,
        x0=np.array([1.0]),
        drift=AffineControlDrift(np.array([0.0]), np.array([[0.25]])),
        volatility=ConstantVolatility(np.array([[0.3]])),
        driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.0, f0=LinearF0(0.5)),
        terminal=LinearTerminal(np.array([1.0])),
        ambiguity=AmbiguityMap(
            base=IntervalUnion(((0.5, 1.5),)),
            endpoint_shifts=(1.0, 1.0),
            theta_rule=AffineTheta(alpha=1.0, beta=0.0, lo=-0.25, hi=0.25),
        ),
    )


def closed_form_application_y0(horizon=1.0):
    # control 1, drift rate -(1+3)/4 = -1, optimized driver 0.5 y - 0.08
    ex_t = np.exp(-horizon)
    growth = np.exp(0.5 * horizon)
    return growth * ex_t - 0.16 * (growth - 1.0)


class TestPicardSolve:
    def test_decoupled_zero_driver_matches_plain_solve(self):
        spec = ProblemSpec(
            horizon=1.0,
            x0=np.array([1.0]),
            drift=AffineControlDrift(np.array([0.0]), np.array([[0.25]])),
            volatility=ConstantVolatility(np.array([[0.3]])),
            driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.0),
            terminal=LinearTerminal(np.array([1.0])),
            ambiguity=static_set([(0.0, 0.0)]),
        )
        grid = TimeGrid(1.0, 40)
        n = 1500
        sol, report = picard_solve(spec, grid, n, seed=3)
        assert report.converged
        assert report.iterations <= 2

        increments = brownian_increments(3, n, grid.n_steps, 1, grid.dt)
        controls = np.zeros((grid.n_nodes, n))
        laws = list(sol.measures)
        xs = simulate_forward(spec, grid, controls, laws, increments)
        ys, _ = solve_backward(spec, grid, xs, controls, laws, increments)
        assert sol.y0 == pytest.approx(float(np.mean(ys[0])), abs=1e-12)

    def test_application_converges_to_closed_form(self):
        spec = application_spec()
        grid = TimeGrid(1.0, 100)
        n = 4000
        sol, report = picard_solve(spec, grid, n, seed=0, tol=1e-6)
        assert report.converged
        assert report.final_delta < 1e-6
        se = y0_standard_error(spec, grid, sol)
        assert abs(sol.y0 - closed_form_application_y0()) <= 3 * se + 6e-3

    def test_controls_snap_to_nearest_regime(self):
        spec = application_spec()
        grid = TimeGrid(1.0, 20)
        sol, _ = picard_solve(spec, grid, 500, seed=1)
        assert np.all(sol.A == 1.0)

    def test_terminal_consistency_and_membership(self):
        spec = feedback_spec()
        grid = TimeGrid(0.5, 25)
        sol, report = picard_solve(spec, grid, 800, seed=2)
        assert report.converged
        assert np.array_equal(sol.Y[-1], sol.X[-1] @ np.array([1.0]))
        for i, mu in enumerate(sol.measures):
            uset = spec.ambiguity.realize(mu)
            assert all(uset.contains(a) for a in np.unique(sol.A[i]))

    def test_feedback_contraction_diagnostics(self):
        spec = feedback_spec()
        grid = TimeGrid(0.5, 25)
        sol, report = picard_solve(spec, grid, 800, seed=2, tol=1e-9)
        assert report.converged
        assert all(r < 1.0 for r in report.ratios[1:])
        residual = fixed_point_residual(spec, grid, sol, seed=2)
        assert residual < 2e-9

    def test_optimality_at_fixed_point(self):
        spec = feedback_spec()
        grid = TimeGrid(0.5, 25)
        sol, _ = picard_solve(spec, grid, 800, seed=2, tol=1e-9)
        rng = np.random.default_rng(0)
        nodes = rng.integers(0, grid.n_nodes, size=1000)
        particles = rng.integers(0, 800, size=1000)
        for i, p in zip(nodes, particles):
            uset = spec.ambiguity.realize(sol.measures[i])
            state = DriverState(
                t=sol.times[i], x=sol.X[i, p], y=sol.Y[i, p], z=sol.Z[i, p], mu=sol.measures[i]
            )
            res = maximize_over(uset, spec.driver, state)
            assert abs(res.a_star - sol.A[i, p]) <= 1e-10

    def test_seed_stability(self):
        spec = application_spec()
        grid = TimeGrid(1.0, 50)
        n = 4000
        sol_a, _ = picard_solve(spec, grid, n, seed=10)
        sol_b, _ = picard_solve(spec, grid, n, seed=11)
        se = np.hypot(
            y0_standard_error(spec, grid, sol_a), y0_standard_error(spec, grid, sol_b)
        )
        assert abs(sol_a.y0 - sol_b.y0) <= 3 * se

    def test_state_dependent_driver_controls(self):
        spec = ProblemSpec(
            horizon=0.5,
            x0=np.array([0.2]),
            drift=AffineControlDrift(np.array([0.0]), np.array([[0.0]])),
            volatility=ConstantVolatility(np.array([[0.5]])),
            driver=QuarticDriver(2.0, 1.0),
            terminal=LinearTerminal(np.array([1.0])),
            ambiguity=static_set([(-10.0, 10.0)]),
        )
        grid = TimeGrid(0.5, 10)
        sol, report = picard_solve(spec, grid, 200, seed=7)
        assert report.converged
        # controls vary particle by particle through the value anchor
        assert np.std(sol.A[0]) > 0.0 or np.std(sol.A[grid.n_steps // 2]) > 0.0

    def test_tie_events_counted_at_gap_midpoint(self):
        spec = ProblemSpec(
            horizon=0.5,
            x0=np.array([1.0]),
            drift=AffineControlDrift(np.array([0.0]), np.array([[0.0]])),
            volatility=ConstantVolatility(np.array([[0.4]])),
            driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.0),
            terminal=LinearTerminal(np.array([1.0])),
            ambiguity=static_set([(-2.0, -1.0), (1.0, 2.0)]),
        )
        grid = TimeGrid(0.5, 10)
        sol, report = picard_solve(spec, grid, 300, seed=1)
        assert report.tie_events > 0
        assert np.all(sol.A == -1.0)  # ties resolve toward the smaller regime

    def test_batched_controls_equal_scalar_argmax(self):
        spec = ProblemSpec(
            horizon=0.5,
            x0=np.array([0.2]),
            drift=AffineControlDrift(np.array([0.0]), np.array([[0.25]])),
            volatility=ConstantVolatility(np.array([[0.5]])),
            driver=QuarticDriver(2.0, 1.0),
            terminal=LinearTerminal(np.array([1.0])),
            ambiguity=static_set([(-2.0, -0.5), (0.5, 2.0)]),
        )
        grid = TimeGrid(0.5, 8)
        sol, report = picard_solve(spec, grid, 300, seed=7)
        assert report.converged
        expected = np.empty_like(sol.A)
        for i, mu in enumerate(sol.measures):
            uset = spec.ambiguity.realize(mu)
            for p in range(sol.n_particles):
                state = DriverState(
                    t=sol.times[i], x=sol.X[i, p], y=sol.Y[i, p], z=sol.Z[i, p], mu=mu
                )
                expected[i, p] = maximize_over(uset, spec.driver, state).a_star
        assert len(np.unique(sol.A)) > 100  # interior controls, not just clamped endpoints
        assert sol.A.tobytes() == expected.tobytes()


class TestPicardFailures:
    def test_non_contraction_error(self):
        amplifier = CallableDrift(
            fn=lambda t, x, a, mu: 3.0 * float(np.mean(mu.samples)) + 0.0 * x,
            lipschitz=3.0,
        )
        spec = ProblemSpec(
            horizon=4.0,
            x0=np.array([1.0]),
            drift=amplifier,
            volatility=ConstantVolatility(np.array([[0.1]])),
            driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.0),
            terminal=LinearTerminal(np.array([2.0])),
            ambiguity=static_set([(0.0, 0.0)]),
        )
        grid = TimeGrid(4.0, 40)
        with pytest.raises(NonContractionError) as err:
            picard_solve(spec, grid, 200, seed=0, max_iter=50)
        assert err.value.report is not None
        assert len(err.value.report.deltas) >= 4

    def test_iteration_budget_error_carries_report(self):
        spec = feedback_spec()
        grid = TimeGrid(0.5, 25)
        with pytest.raises(NoConvergenceError) as err:
            picard_solve(spec, grid, 400, seed=2, tol=1e-16, max_iter=2)
        assert err.value.report.iterations == 2

    def test_parameter_validation(self):
        spec = feedback_spec()
        grid = TimeGrid(0.5, 10)
        with pytest.raises(UsageError):
            picard_solve(spec, grid, 100, tol=-1.0)
        with pytest.raises(UsageError):
            picard_solve(spec, grid, 100, damping=0.0)
        with pytest.raises(UsageError):
            picard_solve(spec, grid, 100, max_iter=0)
        with pytest.raises(UsageError, match="tol"):
            picard_solve(spec, grid, 100, tol=float("nan"))
        with pytest.raises(UsageError, match="beta"):
            picard_solve(spec, grid, 100, beta=float("nan"))
        # a cubic regression basis in one state variable has four columns
        with pytest.raises(UsageError, match="at least 4 particles"):
            picard_solve(spec, grid, 3)
        with pytest.raises(UsageError, match="particles"):
            picard_solve(spec, grid, -5)
