"""Fixed-point engine coupling the control, backward, and forward stages.

Each sweep realizes the per-node feasible sets from the current law of the
value process, recomputes controls by pointwise maximization, solves the
backward equation along the previous forward paths, and finally re-simulates
the forward paths, always on the same noise.  Successive iterates are compared
in a weighted norm whose decay diagnoses contraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bsde import REGRESSION_DEGREE, solve_backward
from .errors import NoConvergenceError, NonContractionError, UsageError
from .measures import EmpiricalMeasure
from .optimizer import DriverState, QuadraticPenaltyDriver, maximize_batch, maximize_over
from .sde import ProblemSpec, SolutionPaths, TimeGrid, brownian_increments, simulate_forward


@dataclass
class PicardReport:
    """Iteration diagnostics of the fixed-point sweep."""

    iterations: int = 0
    deltas: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    beta: float = 1.0
    converged: bool = False
    tie_events: int = 0

    @property
    def final_delta(self) -> float:
        return self.deltas[-1] if self.deltas else math.inf

    def to_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "deltas": list(self.deltas),
            "ratios": list(self.ratios),
            "beta": self.beta,
            "converged": self.converged,
            "tie_events": self.tie_events,
        }


def weighted_delta(
    dX: np.ndarray, dY: np.ndarray, dZ: np.ndarray, beta: float, dt: float
) -> float:
    """Discrete weighted norm of an iterate difference.

    Max over nodes of the particle mean of |dX|^2, plus beta times the same
    for |dY|^2 and the time sum of mean |dZ|^2 dt over the stepped nodes.
    """
    x_part = float(np.max(np.mean(np.sum(dX * dX, axis=2), axis=1)))
    y_part = float(np.max(np.mean(dY * dY, axis=1)))
    z_part = float(np.sum(np.mean(np.sum(dZ[:-1] * dZ[:-1], axis=2), axis=1))) * dt
    return math.sqrt(x_part + beta * (y_part + z_part))


def _node_laws(Y: np.ndarray) -> list[EmpiricalMeasure]:
    return [EmpiricalMeasure(Y[i]) for i in range(Y.shape[0])]


def _controls_stage(
    spec: ProblemSpec,
    grid: TimeGrid,
    X: np.ndarray,
    Y: np.ndarray,
    Z: np.ndarray,
    laws: list[EmpiricalMeasure],
) -> tuple[np.ndarray, int]:
    """Pointwise argmax at every node and particle.

    Drivers whose argmax does not involve the state are solved once per node;
    otherwise each node's particles are solved in one batch.
    """
    A = np.empty(Y.shape)
    ties = 0
    state_free = getattr(spec.driver, "state_free_argmax", False)
    for i, t in enumerate(grid.times):
        uset = spec.ambiguity.realize(laws[i])
        if state_free:
            res = maximize_over(uset, spec.driver, DriverState(t=t, mu=laws[i]))
            A[i], tie = res.a_star, res.tie_flag
        else:
            state = DriverState(t=t, x=X[i], y=Y[i], z=Z[i], mu=laws[i])
            A[i], tie = maximize_batch(uset, spec.driver, state)
        ties += int(np.count_nonzero(tie))
    return A, ties


def _initial_state(
    spec: ProblemSpec, grid: TimeGrid, n_particles: int, increments: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Starting iterate: terminal values propagated along a frozen control.

    The control is frozen at the nearest feasible point to the quadratic
    reference (its projection) or at the middle of the set, the forward paths
    are simulated once, and the value guess is the terminal payoff held
    constant in time with zero volatility.
    """
    theta_lo, theta_hi = spec.ambiguity.theta_bounds
    base_set = spec.ambiguity.realize_at(0.5 * (theta_lo + theta_hi))
    if isinstance(spec.driver, QuadraticPenaltyDriver):
        a0 = base_set.project(spec.driver.w0)
    else:
        a0 = base_set.midpoint()
    controls = np.full((grid.n_nodes, 1), a0)
    seed_law = EmpiricalMeasure(np.full(n_particles, spec.terminal_at_start()))
    laws0 = [seed_law] * grid.n_nodes
    X = simulate_forward(spec, grid, controls, laws0, increments)
    terminal = np.asarray(spec.terminal(X[-1]), dtype=float)
    Y = np.tile(terminal, (grid.n_nodes, 1))
    Z = np.zeros((grid.n_nodes, n_particles, spec.noise_dim))
    return X, Y, Z


def picard_solve(
    spec: ProblemSpec,
    grid: TimeGrid,
    n_particles: int,
    seed: int = 0,
    tol: float = 1e-6,
    max_iter: int = 50,
    beta: float = 1.0,
    damping: float = 1.0,
) -> tuple[SolutionPaths, PicardReport]:
    """Iterate the three-stage sweep to a fixed point.

    Raises :class:`NonContractionError` when the weighted-norm ratios stay at
    or above one for three consecutive iterations (shorten the horizon or
    reduce the damping), and :class:`NoConvergenceError` when the iteration
    budget runs out; both carry the report collected so far.
    """
    if not tol > 0:
        raise UsageError("tol must be positive")
    if max_iter < 1:
        raise UsageError("max_iter must be at least 1")
    if not 0.0 < damping <= 1.0:
        raise UsageError("damping must lie in (0, 1]")
    if not beta > 0:
        raise UsageError("beta must be positive")
    basis_size = math.comb(spec.state_dim + REGRESSION_DEGREE, REGRESSION_DEGREE)
    if n_particles < basis_size:
        raise UsageError(
            f"need at least {basis_size} particles for the regression basis, got {n_particles}"
        )

    increments = brownian_increments(seed, n_particles, grid.n_steps, spec.noise_dim, grid.dt)
    X, Y, Z = _initial_state(spec, grid, n_particles, increments)
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
        delta = weighted_delta(X_next - X, Y_next - Y, Z_next - Z, beta, grid.dt)
        report.iterations = iteration
        report.deltas.append(delta)
        if len(report.deltas) >= 2:
            prev = report.deltas[-2]
            report.ratios.append(delta / prev if prev > 0 else 0.0)
        X, Y, Z = X_next, Y_next, Z_next

        if delta < tol:
            report.converged = True
            break
        diverged = not math.isfinite(delta)
        if diverged or (len(report.ratios) >= 3 and all(r >= 1.0 for r in report.ratios[-3:])):
            raise NonContractionError(
                "weighted-norm deltas stopped contracting; "
                "shorten the horizon or reduce the damping",
                report=report,
            )
    else:
        raise NoConvergenceError(
            f"no convergence within {max_iter} iterations (last delta {report.final_delta:.3e})",
            report=report,
        )

    # Consistency pass: align the terminal values with the final forward
    # paths, then recompute laws and controls from the exact returned state.
    laws = _node_laws(Y)
    A, _ = _controls_stage(spec, grid, X, Y, Z, laws)
    Y, Z = solve_backward(spec, grid, X, A, laws, increments)
    laws = _node_laws(Y)
    A, _ = _controls_stage(spec, grid, X, Y, Z, laws)
    sol = SolutionPaths(times=grid.times, X=X, Y=Y, Z=Z, A=A, measures=tuple(laws))
    return sol, report


def fixed_point_residual(
    spec: ProblemSpec,
    grid: TimeGrid,
    sol: SolutionPaths,
    seed: int,
    beta: float = 1.0,
) -> float:
    """Weighted-norm change of one extra sweep applied to a solution."""
    increments = brownian_increments(
        seed, sol.n_particles, grid.n_steps, spec.noise_dim, grid.dt
    )
    laws = list(sol.measures)
    A, _ = _controls_stage(spec, grid, sol.X, sol.Y, sol.Z, laws)
    Y_new, Z_new = solve_backward(spec, grid, sol.X, A, laws, increments)
    X_new = simulate_forward(spec, grid, A, laws, increments)
    return weighted_delta(X_new - sol.X, Y_new - sol.Y, Z_new - sol.Z, beta, grid.dt)
