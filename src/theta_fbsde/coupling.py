"""Fixed-point engine coupling the control, forward and backward stages.

Each sweep realizes the per-node feasible sets from the current law of the
value process, recomputes controls by pointwise maximization, simulates the
forward paths under them and then solves the backward equation along those
new paths, always on the same noise.  So the value and volatility of every
sweep are solved on the paths of the same sweep.  Successive iterates are
compared in a weighted norm whose decay diagnoses contraction.

The engine remembers its last successful solve (weakly, see
:func:`picard_solve`), so checks that re-solve the problem they were handed
on the same noise reuse the solution their caller still holds.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, replace

import numpy as np

from ._memo import LastEntry
from .bsde import REGRESSION_DEGREE, solve_backward
from .errors import NoConvergenceError, NonContractionError, UsageError
from .measures import EmpiricalMeasure
from .optimizer import DriverState, maximize_batch, maximize_over
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

    def copy(self) -> PicardReport:
        return replace(self, deltas=list(self.deltas), ratios=list(self.ratios))

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
    The squares are summed per node by ``einsum``, so no array of the
    iterates' size is allocated.
    """
    n = dY.shape[1]
    x_part = float(np.max(np.einsum("ink,ink->i", dX, dX))) / n
    y_part = float(np.max(np.einsum("in,in->i", dY, dY))) / n
    z_part = float(np.sum(np.einsum("ink,ink->i", dZ[:-1], dZ[:-1]))) / n * dt
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
    spec: ProblemSpec, grid: TimeGrid, n_particles: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Constant starting iterate: X = x0, Y = the terminal payoff at x0, Z = 0.

    The first sweep's own argmax picks the first controls from it.
    """
    X = np.tile(spec.x0, (grid.n_nodes, n_particles, 1))
    Y = np.full((grid.n_nodes, n_particles), spec.terminal_at_start())
    Z = np.zeros((grid.n_nodes, n_particles, spec.noise_dim))
    return X, Y, Z


def _sweep(
    spec: ProblemSpec,
    grid: TimeGrid,
    X: np.ndarray,
    Y: np.ndarray,
    Z: np.ndarray,
    increments: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One sweep from an iterate: laws, controls, forward paths, then backward.

    The backward solve runs on the forward paths just simulated.  Returns the
    new X, Y and Z and the number of tied controls.
    """
    laws = _node_laws(Y)
    A, ties = _controls_stage(spec, grid, X, Y, Z, laws)
    X_new = simulate_forward(spec, grid, A, laws, increments)
    Y_new, Z_new = solve_backward(spec, grid, X_new, A, laws, increments)
    return X_new, Y_new, Z_new, ties


# the last successful solve: its key and spec, a weak reference to its
# solution and a snapshot of its report
_last_solve = LastEntry()


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

    The returned arrays (``times``, ``X``, ``Y``, ``Z``, ``A``) are read-only.
    A call with the same ``spec`` object and equal remaining arguments as the
    last successful solve returns that solve's :class:`SolutionPaths` object,
    with a fresh copy of its report, as long as some caller still holds the
    solution.  The memo holds the problem and the solution by weak reference,
    so it keeps no solution alive; spec arrays are read-only and spec
    callables must be pure, so the same spec object always poses the same
    problem.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"tol must be a finite positive number, got {tol}")
    if max_iter < 1:
        raise UsageError("max_iter must be at least 1")
    if not 0.0 < damping <= 1.0:
        raise UsageError("damping must lie in (0, 1]")
    if not (math.isfinite(beta) and beta > 0):
        raise UsageError(f"beta must be a finite positive number, got {beta}")
    basis_size = math.comb(spec.state_dim + REGRESSION_DEGREE, REGRESSION_DEGREE)
    if n_particles < basis_size:
        raise UsageError(
            f"need at least {basis_size} particles for the regression basis, got {n_particles}"
        )

    key = (grid, n_particles, seed, tol, max_iter, beta, damping)
    held = _last_solve.get(key, owner=spec)
    if held is not None:
        sol_ref, held_report = held
        sol = sol_ref()
        if sol is not None:
            return sol, held_report.copy()

    increments = brownian_increments(seed, n_particles, grid.n_steps, spec.noise_dim, grid.dt)
    X, Y, Z = _initial_state(spec, grid, n_particles)
    report = PicardReport(beta=beta)

    for iteration in range(1, max_iter + 1):
        *new, ties = _sweep(spec, grid, X, Y, Z, increments)
        report.tie_events += ties
        # The old iterates are dead after the sweep (the laws hold sorted
        # copies), so they become the undamped steps.
        for step, nxt in zip((X, Y, Z), new):
            np.subtract(nxt, step, out=step)
        delta = damping * weighted_delta(X, Y, Z, beta, grid.dt)
        report.iterations = iteration
        report.deltas.append(delta)
        if len(report.deltas) >= 2:
            prev = report.deltas[-2]
            report.ratios.append(delta / prev if prev > 0 else 0.0)

        if delta < tol:
            # the sweep's undamped outputs: Y and Z are solved on the returned X
            X, Y, Z = new
            report.converged = True
            break
        diverged = not math.isfinite(delta)
        if diverged or (len(report.ratios) >= 3 and all(r >= 1.0 for r in report.ratios[-3:])):
            raise NonContractionError(
                "weighted-norm deltas stopped contracting; "
                "shorten the horizon or reduce the damping",
                report=report,
            )
        # the damped iterate nxt - (1 - damping) * step, in place; at damping 1
        # the new arrays pass through unchanged
        for step, nxt in zip((X, Y, Z), new):
            step *= 1.0 - damping
            nxt -= step
        X, Y, Z = new
    else:
        raise NoConvergenceError(
            f"no convergence within {max_iter} iterations (last delta {report.final_delta:.3e})",
            report=report,
        )

    # laws and controls of the returned state
    laws = _node_laws(Y)
    A, _ = _controls_stage(spec, grid, X, Y, Z, laws)
    times = grid.times
    for arr in (times, X, Y, Z, A):
        arr.flags.writeable = False
    sol = SolutionPaths(times=times, X=X, Y=Y, Z=Z, A=A, measures=tuple(laws))
    _last_solve.put(key, (weakref.ref(sol), report.copy()), owner=spec)
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
    X_new, Y_new, Z_new, _ = _sweep(spec, grid, sol.X, sol.Y, sol.Z, increments)
    return weighted_delta(X_new - sol.X, Y_new - sol.Y, Z_new - sol.Z, beta, grid.dt)
