import dataclasses
import gc
import itertools
import math
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest

from theta_fbsde import (
    AffineControlDrift,
    AmbiguityMap,
    CallableDrift,
    ConstantVolatility,
    DriverState,
    ConcavityError,
    EmpiricalMeasure,
    GenericDriver,
    IntervalUnion,
    LinearF0,
    LinearTerminal,
    NoConvergenceError,
    NonContractionError,
    ProblemSpec,
    QuadraticPenaltyDriver,
    QuarticDriver,
    TableF0,
    TimeGrid,
    UsageError,
    brownian_increments,
    check_translation_invariance,
    default_grid,
    flow_from_solution,
    maximize_batch,
    maximize_over,
    picard_solve,
    simulate_forward,
    solve_backward,
    solve_hjb,
    static_set,
    weighted_delta,
    y0_standard_error,
)
from theta_fbsde import coupling, uncertainty
from theta_fbsde.coupling import PicardReport, _anderson_step, _controls_stage, _node_laws


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
            alpha=1.0, beta=0.0, theta_bounds=(-0.25, 0.25),
        ),
    )


def quartic_spec():
    """State-dependent argmax: the quartic driver anchors the control to Y."""
    return ProblemSpec(
        horizon=0.5,
        x0=np.array([0.2]),
        drift=AffineControlDrift(np.array([0.0]), np.array([[0.25]])),
        volatility=ConstantVolatility(np.array([[0.5]])),
        driver=QuarticDriver(2.0, 1.0),
        terminal=LinearTerminal(np.array([1.0])),
        ambiguity=static_set([(-2.0, -0.5), (0.5, 2.0)]),
    )


def two_dim_spec():
    return ProblemSpec(
        horizon=0.5,
        x0=np.array([1.0, -0.5]),
        drift=AffineControlDrift(np.zeros(2), np.array([[0.25, 0.05], [0.05, 0.2]])),
        volatility=ConstantVolatility(np.array([[0.3, 0.0], [0.1, 0.2]])),
        driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.6, f0=LinearF0(0.5)),
        terminal=LinearTerminal(np.array([1.0, 0.5])),
        ambiguity=static_set([(-2.0, -1.0), (1.0, 2.0)]),
    )


def tie_spec():
    """Reference halfway between the regimes: every control is a tie."""
    return dataclasses.replace(application_spec(), driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.0))


def amplifier_spec():
    """Mean feedback in the drift strong enough that the sweeps never contract."""
    amplifier = CallableDrift(
        fn=lambda t, x, a, mu: 3.0 * float(np.mean(mu.samples)) + 0.0 * x,
        lipschitz=3.0,
    )
    return ProblemSpec(
        horizon=4.0,
        x0=np.array([1.0]),
        drift=amplifier,
        volatility=ConstantVolatility(np.array([[0.1]])),
        driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.0),
        terminal=LinearTerminal(np.array([2.0])),
        ambiguity=static_set([(0.0, 0.0)]),
    )


def law_shifted_spec():
    """The benchmark's law-dependent set: theta from the law's mean and spread moves every endpoint.

    Its argmax is state-free, and the plain loop contracts at a steady ratio
    of about 0.32, so it takes more than two sweeps.
    """
    return dataclasses.replace(
        application_spec(),
        ambiguity=AmbiguityMap(
            base=IntervalUnion(((-2.0, -1.0), (1.0, 2.0))),
            endpoint_shifts=(0.5, 0.5, 0.5, 0.5),
            alpha=1.0, beta=1.0, theta_bounds=(-0.5, 0.5),
        ),
    )


def reference_weighted_delta(dX, dY, dZ, beta, dt):
    x_part = float(np.max(np.mean(np.sum(dX * dX, axis=2), axis=1)))
    y_part = float(np.max(np.mean(dY * dY, axis=1)))
    z_part = float(np.sum(np.mean(np.sum(dZ[:-1] * dZ[:-1], axis=2), axis=1))) * dt
    return math.sqrt(x_part + beta * (y_part + z_part))


def reference_picard_solve(
    spec, grid, n_particles, seed=0, tol=1e-6, max_iter=50, beta=1.0, damping=1.0
):
    """The engine's sweep loop with an out-of-place damped update.

    Each sweep runs laws, controls, forward and then backward on the new
    paths; on convergence the sweep's undamped outputs are returned.  Returns
    (X, Y, Z, A, report), or raises the engine's errors with the report
    collected so far.
    """
    increments = brownian_increments(seed, n_particles, grid.n_steps, spec.noise_dim, grid.dt)
    # the constant start: x0 at every node, the terminal payoff at x0, zero volatility
    X = np.tile(spec.x0, (grid.n_nodes, n_particles, 1))
    Y = np.full((grid.n_nodes, n_particles), spec.terminal_at_start())
    Z = np.zeros((grid.n_nodes, n_particles, spec.noise_dim))
    report = PicardReport(beta=beta)
    for iteration in range(1, max_iter + 1):
        laws = _node_laws(Y)
        A, ties = _controls_stage(spec, grid, X, Y, Z, laws)
        report.tie_events += ties
        X_new = simulate_forward(spec, grid, A, laws, increments)
        Y_new, Z_new = solve_backward(spec, grid, X_new, A, laws, increments)
        dX, dY, dZ = X_new - X, Y_new - Y, Z_new - Z
        delta = damping * weighted_delta(dX, dY, dZ, beta, grid.dt)
        report.iterations = iteration
        report.deltas.append(delta)
        report.mixing.append(0.0)  # every step is plain
        if len(report.deltas) >= 2:
            prev = report.deltas[-2]
            report.ratios.append(delta / prev if prev > 0 else 0.0)
        if delta < tol:
            X, Y, Z = X_new, Y_new, Z_new
            report.converged = True
            break
        if not math.isfinite(delta) or (
            len(report.ratios) >= 3 and all(r >= 1.0 for r in report.ratios[-3:])
        ):
            raise NonContractionError("not contracting", report=report)
        X = X_new - (1.0 - damping) * dX
        Y = Y_new - (1.0 - damping) * dY
        Z = Z_new - (1.0 - damping) * dZ
    else:
        raise NoConvergenceError("budget exhausted", report=report)
    laws = _node_laws(Y)
    A, _ = _controls_stage(spec, grid, X, Y, Z, laws)
    return X, Y, Z, A, report


def anderson_reference_solve(spec, grid, n_particles, seed=0, tol=1e-6, max_iter=50, beta=1.0):
    """The undamped sweep loop with depth-1 Anderson mixing of Y, out of place.

    After sweep k with output f and residual r = f - u, the next Y is
    f - w with w = gamma (f - f_prev) = gamma (r - w_prev) and
    gamma = <r, r - r_prev> / |r - r_prev|^2; gamma is 0 on the first sweep,
    after a ratio of at least one, for r == r_prev and when not finite.
    Returns (X, Y, Z, A, report).
    """
    increments = brownian_increments(seed, n_particles, grid.n_steps, spec.noise_dim, grid.dt)
    X = np.tile(spec.x0, (grid.n_nodes, n_particles, 1))
    Y = np.full((grid.n_nodes, n_particles), spec.terminal_at_start())
    Z = np.zeros((grid.n_nodes, n_particles, spec.noise_dim))
    report = PicardReport(beta=beta)
    r_prev = w = None
    for iteration in range(1, max_iter + 1):
        laws = _node_laws(Y)
        A, ties = _controls_stage(spec, grid, X, Y, Z, laws)
        report.tie_events += ties
        X_new = simulate_forward(spec, grid, A, laws, increments)
        Y_new, Z_new = solve_backward(spec, grid, X_new, A, laws, increments)
        r = Y_new - Y
        delta = weighted_delta(X_new - X, r, Z_new - Z, beta, grid.dt)
        report.iterations = iteration
        report.deltas.append(delta)
        if len(report.deltas) >= 2:
            prev = report.deltas[-2]
            report.ratios.append(delta / prev if prev > 0 else 0.0)
        gamma = 0.0
        if delta < tol:
            report.mixing.append(gamma)
            X, Y, Z = X_new, Y_new, Z_new
            report.converged = True
            break
        if not math.isfinite(delta) or (
            len(report.ratios) >= 3 and all(q >= 1.0 for q in report.ratios[-3:])
        ):
            report.mixing.append(gamma)
            raise NonContractionError("not contracting", report=report)
        if r_prev is not None and report.ratios[-1] < 1.0:
            dr = r - r_prev
            den = float(np.einsum("ij,ij->", dr, dr))
            if den > 0.0:
                gamma = float(np.einsum("ij,ij->", r, dr)) / den
            if not math.isfinite(gamma):
                gamma = 0.0
        report.mixing.append(gamma)
        if gamma == 0.0:
            w = None
        else:
            w = gamma * (r if w is None else r - w)
        X, Y, Z = X_new, Y_new if w is None else Y_new - w, Z_new
        r_prev = r
    else:
        raise NoConvergenceError("budget exhausted", report=report)
    laws = _node_laws(Y)
    A, _ = _controls_stage(spec, grid, X, Y, Z, laws)
    return X, Y, Z, A, report


def jacobi_initial_state(spec, grid, n_particles, increments):
    """The engine's former start: terminal values along one frozen-control forward pass."""
    theta_lo, theta_hi = spec.ambiguity.theta_bounds
    base_set = spec.ambiguity.realize_at(0.5 * (theta_lo + theta_hi))
    if isinstance(spec.driver, QuadraticPenaltyDriver):
        a0 = base_set.project(spec.driver.w0)
    else:
        a0 = base_set.project(0.5 * (base_set.lower + base_set.upper))
    controls = np.full((grid.n_nodes, n_particles), a0)
    seed_law = EmpiricalMeasure(np.full(n_particles, spec.terminal_at_start()))
    X = simulate_forward(spec, grid, controls, [seed_law] * grid.n_nodes, increments)
    Y = np.tile(np.asarray(spec.terminal(X[-1]), dtype=float), (grid.n_nodes, 1))
    Z = np.zeros((grid.n_nodes, n_particles, spec.noise_dim))
    return X, Y, Z


def jacobi_reference_solve(
    spec, grid, n_particles, seed=0, tol=1e-6, max_iter=50, beta=1.0, damping=1.0
):
    """The engine's former loop: controls, backward on the previous paths, then forward.

    After convergence a consistency pass solves the backward equation once
    more on the final paths and recomputes laws and controls.  Returns
    (X, Y, Z, A, report).
    """
    increments = brownian_increments(seed, n_particles, grid.n_steps, spec.noise_dim, grid.dt)
    X, Y, Z = jacobi_initial_state(spec, grid, n_particles, increments)
    report = PicardReport(beta=beta)
    for iteration in range(1, max_iter + 1):
        laws = _node_laws(Y)
        A, ties = _controls_stage(spec, grid, X, Y, Z, laws)
        report.tie_events += ties
        Y_new, Z_new = solve_backward(spec, grid, X, A, laws, increments)
        X_new = simulate_forward(spec, grid, A, laws, increments)
        X_next = X + damping * (X_new - X)
        Y_next = Y + damping * (Y_new - Y)
        Z_next = Z + damping * (Z_new - Z)
        delta = reference_weighted_delta(X_next - X, Y_next - Y, Z_next - Z, beta, grid.dt)
        report.iterations = iteration
        report.deltas.append(delta)
        X, Y, Z = X_next, Y_next, Z_next
        if delta < tol:
            report.converged = True
            break
    else:
        raise NoConvergenceError("budget exhausted", report=report)
    laws = _node_laws(Y)
    A, _ = _controls_stage(spec, grid, X, Y, Z, laws)
    Y, Z = solve_backward(spec, grid, X, A, laws, increments)
    laws = _node_laws(Y)
    A, _ = _controls_stage(spec, grid, X, Y, Z, laws)
    return X, Y, Z, A, report


def sweep_residual(spec, grid, sol, seed, beta=1.0):
    """Weighted-norm change of one more sweep in the engine's order applied to a solution."""
    increments = brownian_increments(seed, sol.n_particles, grid.n_steps, spec.noise_dim, grid.dt)
    laws = _node_laws(sol.Y)
    A, _ = _controls_stage(spec, grid, sol.X, sol.Y, sol.Z, laws)
    X_new = simulate_forward(spec, grid, A, laws, increments)
    Y_new, Z_new = solve_backward(spec, grid, X_new, A, laws, increments)
    return weighted_delta(X_new - sol.X, Y_new - sol.Y, Z_new - sol.Z, beta, grid.dt)


def jacobi_residual(spec, grid, X, Y, Z, seed, beta=1.0):
    """Weighted-norm change of one sweep in the former order applied to a state."""
    increments = brownian_increments(seed, X.shape[1], grid.n_steps, spec.noise_dim, grid.dt)
    laws = _node_laws(Y)
    A, _ = _controls_stage(spec, grid, X, Y, Z, laws)
    Y_new, Z_new = solve_backward(spec, grid, X, A, laws, increments)
    X_new = simulate_forward(spec, grid, A, laws, increments)
    return reference_weighted_delta(X_new - X, Y_new - Y, Z_new - Z, beta, grid.dt)


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
        residual = sweep_residual(spec, grid, sol, seed=2)
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
        # every particle's control ties at every node of every sweep
        assert report.tie_events == 300 * grid.n_nodes * report.iterations
        assert np.all(sol.A == -1.0)  # ties resolve toward the smaller regime

    def test_batched_controls_equal_scalar_argmax(self):
        spec = quartic_spec()
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
        grid = TimeGrid(4.0, 40)
        with pytest.raises(NonContractionError) as err:
            picard_solve(amplifier_spec(), grid, 200, seed=0, max_iter=50)
        assert err.value.report is not None
        assert len(err.value.report.deltas) >= 4

    def test_iteration_budget_error_carries_report(self):
        spec = feedback_spec()
        grid = TimeGrid(0.5, 25)
        with pytest.raises(NoConvergenceError) as err:
            picard_solve(spec, grid, 400, seed=2, tol=1e-16, max_iter=1)
        assert err.value.report.iterations == 1

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


GOLDEN_PROBLEMS = {
    "readme": (application_spec, TimeGrid(1.0, 20), 400, 1),
    "law_dependent": (feedback_spec, TimeGrid(0.5, 25), 400, 2),
    "quartic": (quartic_spec, TimeGrid(0.5, 10), 200, 7),
    "two_dim": (two_dim_spec, TimeGrid(0.5, 10), 400, 5),
    "ties": (tie_spec, TimeGrid(1.0, 10), 300, 1),
}


class TestInPlaceUpdate:
    """The in-place damped update against the out-of-place reference loop."""

    @pytest.mark.parametrize("damping", [1.0, 0.5])
    @pytest.mark.parametrize("problem", sorted(GOLDEN_PROBLEMS))
    def test_bit_identical_to_reference_loop(self, problem, damping):
        make_spec, grid, n, seed = GOLDEN_PROBLEMS[problem]
        spec = make_spec()
        sol, report = picard_solve(spec, grid, n, seed=seed, tol=1e-9, damping=damping)
        X, Y, Z, A, expected = reference_picard_solve(
            spec, grid, n, seed=seed, tol=1e-9, damping=damping
        )
        for got, want in ((sol.X, X), (sol.Y, Y), (sol.Z, Z), (sol.A, A)):
            assert np.array_equal(got, want)
        assert report.iterations == expected.iterations >= 2
        assert report.deltas == expected.deltas
        assert report.ratios == expected.ratios
        assert report.tie_events == expected.tie_events
        assert (report.tie_events > 0) == (problem == "ties")
        assert report.converged and expected.converged

    @pytest.mark.parametrize(
        "make_spec, grid, n, kwargs, error",
        [
            (amplifier_spec, TimeGrid(4.0, 40), 200, {"max_iter": 50}, NonContractionError),
            (feedback_spec, TimeGrid(0.5, 25), 400, {"tol": 1e-16, "max_iter": 1},
             NoConvergenceError),
            (quartic_spec, TimeGrid(0.5, 10), 200, {"tol": 1e-16, "max_iter": 3, "damping": 0.5},
             NoConvergenceError),
        ],
        ids=["non_contraction", "no_convergence", "no_convergence_damped"],
    )
    def test_error_reports_match_reference_loop(self, make_spec, grid, n, kwargs, error):
        with pytest.raises(error) as got:
            picard_solve(make_spec(), grid, n, seed=0, **kwargs)
        with pytest.raises(error) as want:
            reference_picard_solve(make_spec(), grid, n, seed=0, **kwargs)
        assert got.value.report.to_dict() == want.value.report.to_dict()

    def test_returned_arrays_own_their_memory(self):
        spec = feedback_spec()
        grid = TimeGrid(0.5, 25)
        sol, _ = picard_solve(spec, grid, 400, seed=2, damping=0.5)
        arrays = {"X": sol.X, "Y": sol.Y, "Z": sol.Z, "A": sol.A}
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(arrays[a], arrays[b]), (a, b)
        for i, mu in enumerate(sol.measures):
            assert mu.samples.tobytes() == sol.Y[i].tobytes()
            assert not np.shares_memory(mu.samples, sol.Y)

    def test_same_seed_same_solution(self):
        # two spec objects, so the second call solves instead of recalling the first
        grid = TimeGrid(0.5, 10)
        sol_a, report_a = picard_solve(quartic_spec(), grid, 200, seed=7, damping=0.5)
        sol_b, report_b = picard_solve(quartic_spec(), grid, 200, seed=7, damping=0.5)
        assert sol_a is not sol_b
        for name in "XYZA":
            assert np.array_equal(getattr(sol_a, name), getattr(sol_b, name))
        assert report_a.to_dict() == report_b.to_dict()


STATE_FREE_PROBLEMS = {
    "law_shifted": (law_shifted_spec, TimeGrid(1.0, 25), 2000, 5),
    "law_dependent": (feedback_spec, TimeGrid(0.5, 25), 400, 2),
    "readme": (application_spec, TimeGrid(1.0, 20), 400, 1),
}


class TestAndersonMixing:
    """Depth-1 Anderson mixing of Y for state-free drivers at damping 1."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    @pytest.mark.parametrize("problem", sorted(STATE_FREE_PROBLEMS))
    def test_bit_identical_to_reference_loop(self, problem, tol):
        make_spec, grid, n, seed = STATE_FREE_PROBLEMS[problem]
        spec = make_spec()
        sol, report = picard_solve(spec, grid, n, seed=seed, tol=tol)
        X, Y, Z, A, expected = anderson_reference_solve(spec, grid, n, seed=seed, tol=tol)
        for got, want in ((sol.X, X), (sol.Y, Y), (sol.Z, Z), (sol.A, A)):
            assert np.array_equal(got, want)
        assert report.to_dict() == expected.to_dict()
        assert len(report.mixing) == report.iterations
        if problem == "law_shifted":
            assert report.iterations > 2
            assert sum(g != 0.0 for g in report.mixing) >= 2

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_y0_within_tol_of_plain_loop_in_fewer_sweeps(self, tol):
        make_spec, grid, n, _ = STATE_FREE_PROBLEMS["law_shifted"]
        for seed in (5, 11, 12345):
            sol, report = picard_solve(make_spec(), grid, n, seed=seed, tol=tol)
            _, Y, _, A, plain = reference_picard_solve(make_spec(), grid, n, seed=seed, tol=tol)
            assert report.converged and plain.converged
            assert abs(sol.y0 - float(np.mean(Y[0]))) <= tol
            # every control stays in its regime and moves by less than tol
            assert np.array_equal(np.sign(sol.A), np.sign(A))
            assert np.max(np.abs(sol.A - A)) <= tol
            assert report.iterations <= 0.6 * plain.iterations

    @pytest.mark.parametrize(
        "make_spec, grid, damping",
        [(law_shifted_spec, TimeGrid(1.0, 10), 0.5), (quartic_spec, TimeGrid(0.5, 10), 1.0)],
        ids=["damped", "state_dependent"],
    )
    def test_plain_steps_where_mixing_does_not_apply(self, make_spec, grid, damping):
        sol, report = picard_solve(make_spec(), grid, 300, seed=3, tol=1e-9, damping=damping)
        X, Y, Z, A, expected = reference_picard_solve(
            make_spec(), grid, 300, seed=3, tol=1e-9, damping=damping
        )
        for got, want in ((sol.X, X), (sol.Y, Y), (sol.Z, Z), (sol.A, A)):
            assert np.array_equal(got, want)
        assert report.to_dict() == expected.to_dict()
        assert report.iterations > 2
        assert report.mixing == [0.0] * report.iterations

    def test_state_free_controls_are_one_value_per_node(self):
        make_spec, grid, n, seed = STATE_FREE_PROBLEMS["law_shifted"]
        sol, _ = picard_solve(make_spec(), grid, n, seed=seed)
        assert sol.A.shape == (grid.n_nodes, n)
        assert sol.A.strides[1] == 0
        assert np.array_equal(sol.A, np.repeat(sol.A[:, :1], n, axis=1))
        assert len(np.unique(sol.A)) > 1  # the law moves the set, so the controls vary by node

    def test_safeguard_takes_the_plain_step(self):
        r = np.array([[1.0, -2.0], [0.5, 0.25]])
        cases = {
            "first sweep": (r, None, True),
            "ratio not below one": (r, r - 1.0, False),
            "zero denominator": (r, r.copy(), True),
            # the inner products overflow, so gamma is inf / inf
            "non-finite coefficient": (1e300 * r, -1e300 * r, True),
        }
        for name, (res, r_prev, contracting) in cases.items():
            f = np.array([[3.0, 1.0], [2.0, 4.0]])
            gamma, w = _anderson_step(f, res, r_prev, np.ones_like(r), contracting)
            assert (gamma, w) == (0.0, None), name
            assert np.array_equal(f, [[3.0, 1.0], [2.0, 4.0]]), name

    def test_mixed_step_matches_its_formula(self):
        rng = np.random.default_rng(4)
        f, r, r_prev, w_prev = rng.normal(size=(4, 6, 5))
        dr = r - r_prev
        gamma = float(np.einsum("ij,ij->", r, dr)) / float(np.einsum("ij,ij->", dr, dr))
        expected = f - gamma * (r - w_prev)
        got_gamma, w = _anderson_step(f, r, r_prev.copy(), w_prev.copy(), True)
        assert got_gamma == gamma != 0.0
        assert np.array_equal(w, gamma * (r - w_prev))
        assert np.array_equal(f, expected)


class TestSweepOrder:
    """Forward then backward reaches the fixed point of the former order."""

    @pytest.mark.parametrize("damping", [1.0, 0.5])
    @pytest.mark.parametrize("problem", sorted(GOLDEN_PROBLEMS))
    def test_same_fixed_point_as_former_order(self, problem, damping):
        make_spec, grid, n, seed = GOLDEN_PROBLEMS[problem]
        tol = 1e-9
        sol, report = picard_solve(make_spec(), grid, n, seed=seed, tol=tol, damping=damping)
        X, Y, Z, A, former = jacobi_reference_solve(
            make_spec(), grid, n, seed=seed, tol=tol, damping=damping
        )
        assert report.converged and former.converged
        for got, want in ((sol.X, X), (sol.Y, Y), (sol.Z, Z), (sol.A, A)):
            assert np.max(np.abs(got - want)) <= 100 * tol

    @pytest.mark.parametrize("problem", sorted(GOLDEN_PROBLEMS))
    def test_former_order_residual_no_larger(self, problem):
        make_spec, grid, n, seed = GOLDEN_PROBLEMS[problem]
        spec = make_spec()
        sol, _ = picard_solve(spec, grid, n, seed=seed)
        X, Y, Z, _, _ = jacobi_reference_solve(spec, grid, n, seed=seed)
        got = jacobi_residual(spec, grid, sol.X, sol.Y, sol.Z, seed)
        assert got <= jacobi_residual(spec, grid, X, Y, Z, seed)


class TestWeightedDelta:
    def test_hand_computed_value(self):
        # node means of |dX|^2: 5 and 1; of dY^2: 1 and 2; of |dZ|^2 on the
        # one stepped node: 1, times dt = 0.5
        dX = np.array([[[1.0, 0.0], [3.0, 0.0]], [[1.0, 1.0], [0.0, 0.0]]])
        dY = np.array([[1.0, 1.0], [0.0, 2.0]])
        dZ = np.array([[[1.0, 1.0], [0.0, 0.0]], [[9.0, 9.0], [9.0, 9.0]]])
        assert weighted_delta(dX, dY, dZ, beta=2.0, dt=0.5) == math.sqrt(5.0 + 2.0 * (2.0 + 0.5))
        assert weighted_delta(dX, dY, dZ, beta=1.0, dt=0.5) == math.sqrt(7.5)
        assert weighted_delta(0 * dX, 0 * dY, dZ, beta=1.0, dt=0.5) == math.sqrt(0.5)

    def test_matches_reference_on_random_steps(self):
        rng = np.random.default_rng(3)
        dX = rng.normal(size=(11, 300, 2))
        dY = rng.normal(size=(11, 300))
        dZ = rng.normal(size=(11, 300, 3))
        expected = reference_weighted_delta(dX, dY, dZ, 0.7, 0.1)
        assert weighted_delta(dX, dY, dZ, 0.7, 0.1) == pytest.approx(expected, rel=1e-13)

    def test_allocates_nothing_the_size_of_the_steps(self):
        dX = np.full((51, 20_000, 1), 0.5)
        dY = np.full((51, 20_000), 0.25)
        dZ = np.ones((51, 20_000, 1))
        tracemalloc.start()
        try:
            weighted_delta(dX, dY, dZ, 1.0, 0.02)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dY.nbytes / 20


@pytest.fixture
def noise_draws(monkeypatch):
    """Arguments of every noise draw the engine makes: one per solve."""
    calls = []
    original = coupling.brownian_increments

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(coupling, "brownian_increments", counting)
    return calls


MEMO_GRID = TimeGrid(1.0, 10)
MEMO_ARGS = {"seed": 1, "tol": 1e-6, "max_iter": 50, "beta": 1.0, "damping": 1.0}


class TestPicardReport:
    def test_dict_holds_exactly_the_fields(self):
        report = PicardReport(iterations=2, deltas=[0.5, 0.1], ratios=[0.2], tie_events=3)
        names = [f.name for f in dataclasses.fields(PicardReport)]
        assert list(report.to_dict()) == names
        copy = report.copy()
        assert copy == report and copy is not report
        copy.deltas.append(1.0)
        assert report.deltas == [0.5, 0.1]


class TestSolveMemo:
    """A same-arguments re-solve is served from the solution its caller holds."""

    def test_hit_returns_same_solution_and_independent_report(self, noise_draws):
        spec = application_spec()
        sol, report = picard_solve(spec, MEMO_GRID, 200, **MEMO_ARGS)
        again, report_again = picard_solve(spec, TimeGrid(1.0, 10), 200, **MEMO_ARGS)
        assert again is sol
        assert len(noise_draws) == 1
        expected = report.to_dict()
        assert expected["iterations"] >= 2
        assert report_again is not report
        assert report_again.to_dict() == expected
        # neither the first report nor a served one reaches the next hit
        report_again.deltas.append(1.0)
        report_again.ratios.append(1.0)
        report_again.iterations = 99
        report.deltas.clear()
        third, report_third = picard_solve(spec, MEMO_GRID, 200, **MEMO_ARGS)
        assert third is sol
        assert report_third.to_dict() == expected

    def test_returned_arrays_are_read_only(self):
        sol, _ = picard_solve(application_spec(), MEMO_GRID, 200, **MEMO_ARGS)
        for name in ("times", "X", "Y", "Z", "A"):
            arr = getattr(sol, name)
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                arr += 1.0

    @pytest.mark.parametrize(
        "change",
        [
            {"spec": "second"},
            {"spec": "copy"},
            {"grid": TimeGrid(1.0, 11)},
            {"n": 201},
            {"seed": 2},
            {"tol": 1e-7},
            {"max_iter": 49},
            {"beta": 2.0},
            {"damping": 0.5},
        ],
        ids=["second_spec", "copied_spec", "grid", "n", "seed", "tol", "max_iter", "beta", "damping"],
    )
    def test_each_key_component_misses(self, noise_draws, change):
        spec = application_spec()
        sol, _ = picard_solve(spec, MEMO_GRID, 200, **MEMO_ARGS)
        args = {"spec": spec, "grid": MEMO_GRID, "n": 200, **MEMO_ARGS, **change}
        if change.get("spec") == "second":
            args["spec"] = application_spec()  # built identically, another object
        elif change.get("spec") == "copy":
            args["spec"] = dataclasses.replace(spec)  # equal, sharing every component
        other, _ = picard_solve(args.pop("spec"), args.pop("grid"), args.pop("n"), **args)
        assert other is not sol
        assert len(noise_draws) == 2

    def test_dropped_solution_solves_again(self, noise_draws):
        spec = application_spec()
        sol, _ = picard_solve(spec, MEMO_GRID, 200, **MEMO_ARGS)
        y0 = sol.y0
        del sol
        gc.collect()
        again, _ = picard_solve(spec, MEMO_GRID, 200, **MEMO_ARGS)
        assert len(noise_draws) == 2
        assert again.y0 == y0

    def test_raising_solve_is_never_served(self, noise_draws):
        spec = feedback_spec()
        grid = TimeGrid(0.5, 25)
        held, _ = picard_solve(spec, grid, 400, seed=2)
        for _ in range(2):
            with pytest.raises(NoConvergenceError):
                picard_solve(spec, grid, 400, seed=2, tol=1e-16, max_iter=1)
        assert len(noise_draws) == 3
        # a failed solve leaves the last successful one in place
        again, _ = picard_solve(spec, grid, 400, seed=2)
        assert again is held
        assert len(noise_draws) == 3

    def test_each_spec_keeps_its_own_solve(self, noise_draws, monkeypatch):
        sweeps = []
        sweep = coupling._sweep

        def counting_sweep(*args):
            sweeps.append(1)
            return sweep(*args)

        monkeypatch.setattr(coupling, "_sweep", counting_sweep)
        spec_a, spec_b = application_spec(), application_spec(f0_slope=0.3)
        sol_a, _ = picard_solve(spec_a, MEMO_GRID, 200, **MEMO_ARGS)
        sol_b, _ = picard_solve(spec_b, MEMO_GRID, 200, **MEMO_ARGS)
        assert len(noise_draws) == 2
        n_sweeps = len(sweeps)
        again, _ = picard_solve(spec_a, MEMO_GRID, 200, **MEMO_ARGS)
        assert again is sol_a and again is not sol_b
        assert len(noise_draws) == 2 and len(sweeps) == n_sweeps

    def test_spec_and_solution_are_collected(self):
        spec = application_spec()
        sol, _ = picard_solve(spec, MEMO_GRID, 200, **MEMO_ARGS)
        spec_ref, sol_ref = weakref.ref(spec), weakref.ref(sol)
        del spec, sol
        gc.collect()
        assert spec_ref() is None and sol_ref() is None

    def test_spec_pickles_after_a_solve(self):
        spec = application_spec()
        before = pickle.dumps(spec)
        sol, _ = picard_solve(spec, MEMO_GRID, 200, **MEMO_ARGS)
        assert pickle.dumps(spec) == before  # the solve leaves nothing on the spec
        copy = pickle.loads(before)
        assert copy is not spec and copy.x0.tobytes() == spec.x0.tobytes()
        again, _ = picard_solve(copy, MEMO_GRID, 200, **MEMO_ARGS)
        assert again is not sol and again.Y.tobytes() == sol.Y.tobytes()

    def test_translation_check_reuses_the_held_solve(self, noise_draws):
        grid = TimeGrid(0.5, 25)
        fresh = check_translation_invariance(feedback_spec(), None, 0.1, grid, n_particles=400, seed=2)
        assert len(noise_draws) == 2
        spec = feedback_spec()
        held, _ = picard_solve(spec, grid, 400, seed=2)  # held: the solution stays alive
        defect = check_translation_invariance(spec, None, 0.1, grid, n_particles=400, seed=2)
        assert len(noise_draws) == 4  # the base solve is served, only the shifted one draws
        assert defect.hex() == fresh.hex()


def per_node_controls_stage(spec, grid, X, Y, Z, laws):
    """The state-dependent control stage as one ``maximize_batch`` call per node, out of place.

    Each node's set, law and time go to its own call, as the stage did before
    it stacked whole nodes into one call.
    """
    controls, ties = [], 0
    for i, t in enumerate(grid.times):
        uset = spec.ambiguity.realize(laws[i])
        state = DriverState(t=t, x=X[i], y=Y[i], z=Z[i], mu=laws[i])
        a, tie = maximize_batch(uset, spec.driver, state)
        controls.append(a)
        ties += int(np.count_nonzero(tie))
    return np.array(controls), ties


def newton_driver(driver):
    """The same objective without a closed form, so the argmax runs bracketed Newton."""
    return GenericDriver(
        value_fn=driver.value, d_da_fn=driver.d_da, d2_da2_fn=driver.d2_da2, kappa=driver.kappa
    )


def shifted_quartic_spec(driver=QuarticDriver(2.0, 1.0)):
    """State-dependent argmax on a law-dependent set whose endpoints move with every node's law."""
    return dataclasses.replace(
        quartic_spec(),
        driver=driver,
        ambiguity=AmbiguityMap(
            base=IntervalUnion(((-2.0, -0.5), (0.5, 2.0))),
            endpoint_shifts=(0.5, 0.5, 0.5, 0.5),
            alpha=1.0, beta=1.0, theta_bounds=(-0.5, 0.5),
        ),
    )


def pinched_spec(driver=QuarticDriver(2.0, 1.0)):
    """A middle interval that closes to the point 0 at theta = 1.

    theta = 1.515 * mean(Y) clipped to [0, 1], and the mean of Y falls from
    about 0.69 to 0.63 over the nodes of the README drift and volatility, so
    the interval is a point at the early nodes only.
    """
    return ProblemSpec(
        horizon=0.5,
        x0=np.array([1.0]),
        drift=AffineControlDrift(np.array([0.0]), np.array([[0.25]])),
        volatility=ConstantVolatility(np.array([[0.3]])),
        driver=driver,
        terminal=LinearTerminal(np.array([1.0])),
        ambiguity=AmbiguityMap(
            base=IntervalUnion(((-2.0, -1.0), (0.0, 0.4), (1.0, 2.0))),
            endpoint_shifts=(0.0, 0.0, 0.0, -0.4, 0.0, 0.0),
            alpha=1.515, beta=0.0, theta_bounds=(0.0, 1.0),
        ),
    )


STACKED_SPECS = {
    "quartic_static": quartic_spec,
    "quartic_shifted": shifted_quartic_spec,
    "generic_shifted": lambda: shifted_quartic_spec(newton_driver(QuarticDriver(2.0, 1.0))),
    "quartic_point": pinched_spec,
    "generic_point": lambda: pinched_spec(newton_driver(QuarticDriver(2.0, 1.0))),
    "quartic_static_point": lambda: dataclasses.replace(
        pinched_spec(), ambiguity=static_set([(-2.0, -0.5), (0.6, 0.6), (1.0, 2.0)])
    ),
}


def random_iterate(grid, n, seed):
    """An iterate whose Y holds exact zeros, where the anchored sets tie."""
    rng = np.random.default_rng(seed)
    X = 1.0 + 0.3 * rng.standard_normal((grid.n_nodes, n, 1))
    Y = 0.66 + 0.8 * rng.standard_normal((grid.n_nodes, n))
    Y[:, ::7] = 0.0
    Z = 0.2 * rng.standard_normal((grid.n_nodes, n, 1))
    return X, Y, Z


class TestStackedControlStage:
    """A state-dependent control stage maximizes whole nodes per call, with the per-node bits."""

    @pytest.mark.parametrize("name", sorted(STACKED_SPECS))
    @pytest.mark.parametrize("nodes_per_block", [3, 11])
    def test_controls_and_ties_equal_the_per_node_loop(self, name, nodes_per_block, monkeypatch):
        spec = STACKED_SPECS[name]()
        grid = TimeGrid(spec.horizon, 10)
        X, Y, Z = random_iterate(grid, 40, 8)
        laws = _node_laws(Y)
        monkeypatch.setattr(coupling, "_BLOCK_ELEMENTS", 40 * nodes_per_block)
        A, ties = _controls_stage(spec, grid, X, Y, Z, laws)
        A_ref, ties_ref = per_node_controls_stage(spec, grid, X, Y, Z, laws)
        assert A.tobytes() == A_ref.tobytes()
        assert ties == ties_ref
        if name == "quartic_static":
            assert ties > 0  # the gap is symmetric about y = 0

    @pytest.mark.parametrize("name", sorted(STACKED_SPECS))
    @pytest.mark.parametrize("block_elements", [2**16, 3 * 60])
    def test_solve_equals_the_per_node_loop(self, name, block_elements, monkeypatch):
        # 11 nodes at 60 particles: one block, or blocks of 3 + 3 + 3 + 2 nodes
        grid = TimeGrid(0.5, 10)
        with monkeypatch.context() as patch:
            patch.setattr(coupling, "_controls_stage", per_node_controls_stage)
            ref, ref_report = picard_solve(STACKED_SPECS[name](), grid, 60, seed=5)
        monkeypatch.setattr(coupling, "_BLOCK_ELEMENTS", block_elements)
        spec = STACKED_SPECS[name]()
        sol, report = picard_solve(spec, grid, 60, seed=5)
        assert sol is not ref
        for field in ("X", "Y", "Z", "A"):
            assert getattr(sol, field).tobytes() == getattr(ref, field).tobytes(), field
        assert report.to_dict() == ref_report.to_dict()
        if name == "quartic_static_point":
            assert np.any(sol.A == 0.6)
        elif name.endswith("_point"):
            # the middle interval is a point at some nodes and not at others
            points = {u.intervals[1][0] == u.intervals[1][1]
                      for u in map(spec.ambiguity.realize, sol.measures)}
            assert points == {True, False}

    def test_uneven_blocks_cover_every_node_once(self, monkeypatch):
        spec = shifted_quartic_spec()
        grid = TimeGrid(0.5, 10)
        X, Y, Z = random_iterate(grid, 40, 3)
        calls = []

        def recording_batch(usets, driver, state):
            calls.append((len(usets), state.t.ravel().tolist(), state.y.shape))
            return maximize_batch(usets, driver, state)

        monkeypatch.setattr(coupling, "maximize_batch", recording_batch)
        monkeypatch.setattr(coupling, "_BLOCK_ELEMENTS", 40 * 3 + 39)
        _controls_stage(spec, grid, X, Y, Z, _node_laws(Y))
        assert [size for size, _, _ in calls] == [3, 3, 3, 2]
        assert [shape for _, _, shape in calls] == [(3, 40)] * 3 + [(2, 40)]
        assert sum((t for _, t, _ in calls), []) == grid.times.tolist()

    @pytest.mark.parametrize("block_elements, nodes_per_block", [(2**16, 11), (120, 3), (40, 1)])
    def test_one_call_per_block_and_stage(self, block_elements, nodes_per_block, monkeypatch):
        grid = TimeGrid(0.5, 10)
        calls = []

        def counted_batch(*args):
            calls.append(1)
            return maximize_batch(*args)

        monkeypatch.setattr(coupling, "maximize_batch", counted_batch)
        monkeypatch.setattr(coupling, "_BLOCK_ELEMENTS", block_elements)
        _, report = picard_solve(quartic_spec(), grid, 40, seed=1)
        stages = report.iterations + 1  # one per sweep, one for the returned state
        assert len(calls) == stages * math.ceil(grid.n_nodes / nodes_per_block)

    def test_a_node_per_call_from_two_to_the_sixteen_particles(self, monkeypatch):
        grid = TimeGrid(0.5, 2)
        n = coupling._BLOCK_ELEMENTS
        X, Y, Z = random_iterate(grid, n, 4)
        shapes = []

        def recording_batch(usets, driver, state):
            shapes.append(state.y.shape)
            return maximize_batch(usets, driver, state)

        monkeypatch.setattr(coupling, "maximize_batch", recording_batch)
        _controls_stage(quartic_spec(), grid, X, Y, Z, _node_laws(Y))
        assert shapes == [(1, n)] * grid.n_nodes

    @pytest.mark.parametrize("driver", [QuarticDriver(2.0, 1.0), QuadraticPenaltyDriver(1.0, 0.6)],
                             ids=["state_dependent", "state_free"])
    @pytest.mark.parametrize("ambiguity", [
        static_set([(-2.0, -0.5), (0.5, 2.0)]),
        AmbiguityMap(
            IntervalUnion(((-2.0, -0.5), (0.5, 2.0))), (0.0, 0.5, -0.5, 0.0),
            theta_bounds=(0.4, 0.4),
        ),
        AmbiguityMap(
            IntervalUnion(((-2.0, -0.5), (0.5, 2.0))), (),
            alpha=1.0, beta=1.0, theta_bounds=(-0.5, 0.5),
        ),
        AmbiguityMap(
            IntervalUnion(((-2.0, -0.5), (0.5, 2.0))), (0.0, 0.5, -0.5, 0.0),
            alpha=1.0, beta=1.0, theta_bounds=(0.3, 0.3),
        ),
    ], ids=["unshifted", "shifted", "affine_unshifted", "affine_pinned"])
    def test_constant_theta_set_is_not_built_again(self, driver, ambiguity, monkeypatch):
        spec = dataclasses.replace(quartic_spec(), driver=driver, ambiguity=ambiguity)
        grid = TimeGrid(0.5, 10)
        X, Y, Z = random_iterate(grid, 40, 2)
        laws = _node_laws(Y)
        A_ref, ties_ref = per_node_controls_stage(spec, grid, X, Y, Z, laws)

        def built(self):
            raise AssertionError("an IntervalUnion was built")

        monkeypatch.setattr(IntervalUnion, "__post_init__", built)
        A, ties = _controls_stage(spec, grid, X, Y, Z, laws)
        assert A.tobytes() == A_ref.tobytes() and ties == ties_ref

    def test_concavity_error_names_one_node_and_particle(self):
        # concave for y <= 2, convex beyond: only node 4, particle 17 goes past 2
        driver = GenericDriver(
            value_fn=lambda s, a: -0.5 * np.where(s.y > 2.0, -1.0, 1.0) * (a - s.y) ** 2,
            d_da_fn=lambda s, a: -np.where(s.y > 2.0, -1.0, 1.0) * (a - s.y),
            d2_da2_fn=lambda s, a: -np.where(s.y > 2.0, -1.0, 1.0) + 0.0 * a,
            kappa=1.0,
        )
        spec = dataclasses.replace(quartic_spec(), driver=driver)
        grid = TimeGrid(0.5, 10)
        X, Y, Z = random_iterate(grid, 40, 6)
        np.clip(Y, -1.5, 1.5, out=Y)
        Y[4, 17] = 2.5
        laws = _node_laws(Y)
        with pytest.raises(ConcavityError) as err:
            _controls_stage(spec, grid, X, Y, Z, laws)
        with pytest.raises(ConcavityError) as ref_err:
            per_node_controls_stage(spec, grid, X, Y, Z, laws)
        point, a = err.value.witness
        ref_point, ref_a = ref_err.value.witness
        assert np.ndim(point.t) == 0 and point.t == grid.times[4] == ref_point.t
        assert point.y == Y[4, 17] == ref_point.y
        assert np.array_equal(point.x, X[4, 17]) and np.array_equal(ref_point.x, X[4, 17])
        assert np.array_equal(point.z, Z[4, 17]) and np.array_equal(ref_point.z, Z[4, 17])
        assert a == ref_a
        assert str(err.value) == str(ref_err.value)


def pinned_quartic_spec():
    """State-dependent argmax over a point set: every control is 0.5 in every sweep."""
    return dataclasses.replace(quartic_spec(), ambiguity=static_set([(0.5, 0.5)]))


def law_reading_spec():
    """The README problem with a drift that reads its law and adds nothing from it."""
    affine = AffineControlDrift(np.array([0.0]), np.array([[0.25]]))
    drift = CallableDrift(
        fn=lambda t, x, a, mu: affine(t, x, a, mu) + 0.0 * float(np.mean(mu.samples)),
        lipschitz=1.0,
    )
    return dataclasses.replace(application_spec(), drift=drift)


@pytest.fixture
def stage_calls(monkeypatch):
    """Calls of the engine's control stage, forward pass and backward sweep."""
    calls = {"stage": 0, "forward": 0, "backward": 0}
    for key, name in (("stage", "_controls_stage"), ("forward", "simulate_forward"),
                      ("backward", "solve_backward")):
        def counted(*args, _key=key, _fn=getattr(coupling, name)):
            calls[_key] += 1
            return _fn(*args)
        monkeypatch.setattr(coupling, name, counted)
    return calls


class TestRepeatedControls:
    """A sweep whose controls repeat the last sweep's is recorded, not run."""

    def test_readme_solve_runs_one_sweep(self, stage_calls):
        spec, grid = application_spec(), TimeGrid(1.0, 20)
        sol, report = picard_solve(spec, grid, 400, seed=1)
        assert stage_calls == {"stage": 2, "forward": 1, "backward": 1}
        assert report.iterations == 2 and report.deltas[1] == 0.0 and report.converged
        X, Y, Z, A, expected = anderson_reference_solve(spec, grid, 400, seed=1)
        for got, want in ((sol.X, X), (sol.Y, Y), (sol.Z, Z), (sol.A, A)):
            assert got.tobytes() == want.tobytes()
        assert report.to_dict() == expected.to_dict()
        for i, mu in enumerate(sol.measures):
            assert mu.samples.tobytes() == sol.Y[i].tobytes()

    def test_recorded_sweep_matches_a_run_one(self, stage_calls):
        # the law-reading drift adds an exact zero, so its run second sweep
        # computes what the skipped one records
        grid = TimeGrid(1.0, 20)
        sol, report = picard_solve(application_spec(), grid, 400, seed=1)
        run, run_report = picard_solve(law_reading_spec(), grid, 400, seed=1)
        assert stage_calls["forward"] == 1 + run_report.iterations == 3
        assert report.to_dict() == run_report.to_dict()
        for name in "XYZA":
            assert getattr(sol, name).tobytes() == getattr(run, name).tobytes()

    def test_no_skip_after_a_mixed_step(self, stage_calls):
        # theta clamps at lo from the second stage on, so the third stage
        # repeats the second's controls; the mixed step between them left an
        # iterate that is not the second sweep's output, so the sweep runs
        clamped = dataclasses.replace(application_spec(), ambiguity=AmbiguityMap(
            base=IntervalUnion(((-2.0, -1.0), (1.0, 2.0))), endpoint_shifts=(0.5, 0.5, 0.5, 0.5),
            alpha=1.0, beta=0.0, theta_bounds=(0.9, 2.0),
        ))
        grid = TimeGrid(1.0, 20)
        sol, report = picard_solve(clamped, grid, 400, seed=1)
        assert report.mixing[1] != 0.0 and report.deltas[2] > 0.0
        assert stage_calls["forward"] == report.iterations
        X, Y, Z, A, expected = anderson_reference_solve(clamped, grid, 400, seed=1)
        for got, want in ((sol.X, X), (sol.Y, Y), (sol.Z, Z), (sol.A, A)):
            assert got.tobytes() == want.tobytes()
        assert report.to_dict() == expected.to_dict()

    def test_state_dependent_repeat(self, stage_calls):
        spec, grid = pinned_quartic_spec(), TimeGrid(0.5, 10)
        sol, report = picard_solve(spec, grid, 200, seed=7)
        assert stage_calls == {"stage": 2, "forward": 1, "backward": 1}
        X, Y, Z, A, expected = reference_picard_solve(spec, grid, 200, seed=7)
        for got, want in ((sol.X, X), (sol.Y, Y), (sol.Z, Z), (sol.A, A)):
            assert got.tobytes() == want.tobytes()
        assert report.to_dict() == expected.to_dict()

    @pytest.mark.parametrize(
        "make_spec, kwargs",
        [(law_reading_spec, {}), (application_spec, {"damping": 0.5})],
        ids=["law_reading_drift", "damped"],
    )
    def test_never_skips(self, stage_calls, make_spec, kwargs):
        _, report = picard_solve(make_spec(), TimeGrid(1.0, 20), 400, seed=1, **kwargs)
        assert report.iterations >= 2
        assert stage_calls["forward"] == stage_calls["backward"] == report.iterations

    def test_signed_zero_controls_differ(self):
        assert coupling._same_bits(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert not coupling._same_bits(np.array([0.0, 1.0]), np.array([-0.0, 1.0]))
        assert not coupling._same_bits(np.zeros(2), np.zeros(3))


class _UnreadableLaw:
    """A law whose every attribute access raises."""

    def __getattribute__(self, name):
        raise AssertionError(f"the law was read: .{name}")


NO_LAW_STATE = DriverState(
    t=0.25, x=np.array([[0.5], [1.5]]), y=np.array([0.3, -0.7]), z=np.array([[0.1], [0.2]]),
    mu=_UnreadableLaw(),
)


class TestReadsLawContract:
    """Each built-in that declares ``reads_law = False`` runs with an unreadable law."""

    def test_drift_and_volatility(self):
        x, a = NO_LAW_STATE.x, np.array([0.5, -1.5])
        drift = AffineControlDrift(np.array([0.0]), np.array([[0.25]]))
        volatility = ConstantVolatility(np.array([[0.3]]))
        assert np.asarray(drift(0.25, x, a, _UnreadableLaw())).shape == (2, 1)
        assert np.asarray(volatility(0.25, x, a, _UnreadableLaw())).shape == (1, 1)

    @pytest.mark.parametrize(
        "driver",
        [
            QuadraticPenaltyDriver(kappa=1.0, w0=0.6, f0=LinearF0(0.5)),
            QuadraticPenaltyDriver(
                kappa=1.0, w0=0.6, f0=TableF0(np.array([-1.0, 1.0]), np.array([0.5, -0.5]))
            ),
            QuarticDriver(2.0, 1.0),
        ],
        ids=["quadratic_linear_f0", "quadratic_table_f0", "quartic"],
    )
    def test_driver_value(self, driver):
        value = driver.value(NO_LAW_STATE, np.array([0.5, -1.5]))
        assert np.all(np.isfinite(value)) and np.shape(value) == (2,)

    def test_declarations_are_the_checked_ones(self):
        import theta_fbsde

        declared = {
            name for name, obj in vars(theta_fbsde).items()
            if isinstance(obj, type) and getattr(obj, "reads_law", True) is False
        }
        assert declared == {
            "AffineControlDrift", "ConstantVolatility", "QuadraticPenaltyDriver", "QuarticDriver"
        }

    @pytest.mark.parametrize(
        "field, component",
        [
            ("drift", CallableDrift(fn=lambda t, x, a, mu: 0.0 * x, lipschitz=0.0)),
            ("driver", GenericDriver(
                value_fn=lambda s, a: -0.5 * a * a, d_da_fn=lambda s, a: -a,
                d2_da2_fn=lambda s, a: -1.0 + 0.0 * a, kappa=1.0,
            )),
        ],
        ids=["callable_drift", "generic_driver"],
    )
    def test_undeclared_component_reads_the_law(self, field, component):
        assert not coupling._reads_law(application_spec())
        assert coupling._reads_law(dataclasses.replace(application_spec(), **{field: component}))


class TestStaticSetsReadNoMoments:
    """A static set never reads a law's moments.

    So the order in which a law holds its samples cannot move the bits of a
    static-set solve or of its grid check.
    """

    @staticmethod
    def forbid_moments(monkeypatch):
        def unread(law):
            raise AssertionError("a law's moments were read")

        monkeypatch.setattr(uncertainty, "moments", unread)
        monkeypatch.setattr(EmpiricalMeasure, "_moments", property(unread))

    def test_readme_solve_and_its_grid_check(self, monkeypatch):
        self.forbid_moments(monkeypatch)
        spec, grid = application_spec(), TimeGrid(1.0, 20)
        sol, report = picard_solve(spec, grid, 400, seed=5)
        assert report.converged
        grid1d = default_grid(spec, nx=41)
        surface = solve_hjb(spec, grid1d, flow_from_solution(grid, sol))
        assert np.all(np.isfinite(surface))

    def test_pinned_theta_with_shifts_reads_none(self, monkeypatch):
        # equal theta bounds make a shifted, law-weighted map static
        self.forbid_moments(monkeypatch)
        pinned = AmbiguityMap(
            base=IntervalUnion(((-2.0, -1.0), (1.0, 2.0))), endpoint_shifts=(0.5, 0.5, 0.5, 0.5),
            alpha=1.0, beta=1.0, theta_bounds=(0.3, 0.3),
        )
        spec, grid = dataclasses.replace(application_spec(), ambiguity=pinned), TimeGrid(1.0, 20)
        sol, report = picard_solve(spec, grid, 400, seed=5)
        assert report.converged
        surface = solve_hjb(spec, default_grid(spec, nx=41), flow_from_solution(grid, sol))
        assert np.all(np.isfinite(surface))

    def test_a_law_dependent_solve_reads_them(self, monkeypatch):
        # the patch bites: the same solve on a law-dependent set fails
        self.forbid_moments(monkeypatch)
        with pytest.raises(AssertionError, match="moments were read"):
            picard_solve(feedback_spec(), TimeGrid(0.5, 10), 200, seed=5)
