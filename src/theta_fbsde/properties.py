"""The nonlinear expectation operator and checkers for its properties.

The operator maps a terminal payoff to the initial value of the backward
component.  The checkers exercise composition across intermediate times,
order preservation, the strict failure of sub-additivity, the translation
defect, and the martingale structure of the driver-corrected value process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bsde import REGRESSION_DEGREE, _node_regression, solve_deterministic_ode
from .coupling import picard_solve
from .errors import ParameterError, UsageError
from .optimizer import DriverState, QuarticDriver, driver_sup
from .sde import CallableTerminal, ConstantTerminal, ProblemSpec, SolutionPaths, TimeGrid
from .uncertainty import IntervalUnion


@dataclass(frozen=True)
class DeterministicSpec:
    """Reduction with no state process and no noise.

    The backward equation collapses to an ODE in the optimized driver, which
    is where the operator's defining properties can be checked exactly.
    """

    driver: object
    control_set: IntervalUnion
    horizon: float

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ParameterError(f"horizon must be positive, got {self.horizon}")


@dataclass(frozen=True, eq=False)
class DeterministicSolution:
    times: np.ndarray
    values: np.ndarray

    @property
    def y0(self) -> float:
        return float(self.values[0])


def optimized_driver_fn(spec: DeterministicSpec) -> Callable[[float], float]:
    """The optimized driver as a scalar function of the value variable."""

    def g(y: float) -> float:
        return driver_sup(spec.control_set, spec.driver, DriverState(y=y))

    return g


def theta_expectation(
    spec: DeterministicSpec | ProblemSpec,
    grid: TimeGrid,
    n_particles: int = 10_000,
    seed: int = 0,
    xi=None,
):
    """Value of the nonlinear expectation at time zero, with its solution.

    For a :class:`DeterministicSpec`, ``xi`` must be a number and the backward
    equation integrates as an ODE.  Otherwise the coupled system is solved
    with the particle engine; ``xi`` may replace the configured terminal map
    (a number means a constant payoff).
    """
    if isinstance(spec, DeterministicSpec):
        if xi is None or not np.isscalar(xi):
            raise UsageError("the deterministic reduction needs a numeric terminal value")
        if abs(grid.horizon - spec.horizon) > 1e-12 * max(1.0, spec.horizon):
            raise UsageError(
                f"grid horizon {grid.horizon} does not match the problem horizon {spec.horizon}"
            )
        times, ys = solve_deterministic_ode(
            optimized_driver_fn(spec), float(xi), spec.horizon, grid.n_steps
        )
        sol = DeterministicSolution(times, ys)
        return sol.y0, sol
    if xi is not None:
        terminal = ConstantTerminal(float(xi)) if np.isscalar(xi) else xi
        spec = replace(spec, terminal=terminal)
    sol, _report = picard_solve(spec, grid, n_particles, seed=seed)
    return sol.y0, sol


def check_dynamic_consistency(
    spec: DeterministicSpec | ProblemSpec,
    grid: TimeGrid,
    xi,
    t_split: float,
    *,
    n_particles: int = 10_000,
    seed: int = 0,
) -> float:
    """Discrepancy of valuing in one pass versus composing at ``t_split``.

    Deterministic reduction: the ODE flow is composed exactly, so the result
    is bounded by the integrator tolerance.  Stochastic case: the value at the
    split node is regressed onto the state and reused as a terminal map for a
    solve on the front segment; the same seed reuses the same noise prefix.
    """
    if not 0.0 < t_split < spec.horizon:
        raise UsageError("the split time must lie strictly inside the horizon")
    if isinstance(spec, DeterministicSpec):
        g = optimized_driver_fn(spec)
        _, direct = solve_deterministic_ode(g, float(xi), spec.horizon, grid.n_steps)
        n_tail = max(1, round(grid.n_steps * (spec.horizon - t_split) / spec.horizon))
        n_head = max(1, grid.n_steps - n_tail)
        _, tail = solve_deterministic_ode(g, float(xi), spec.horizon - t_split, n_tail)
        _, head = solve_deterministic_ode(g, float(tail[0]), t_split, n_head)
        return abs(float(head[0]) - float(direct[0]))

    y_direct, sol = theta_expectation(spec, grid, n_particles, seed=seed, xi=xi)
    node = round(t_split / grid.dt)
    node = min(max(node, 1), grid.n_steps - 1)
    t_node = grid.times[node]
    fitted = _node_regression(sol.X[node], sol.Y[node][:, None], REGRESSION_DEGREE)
    coeffs_x = sol.X[node]
    coeffs_y = fitted[:, 0]

    def terminal_fn(x, _x_nodes=coeffs_x, _y_nodes=coeffs_y):
        # nearest-neighbor lookup of the fitted values keeps the map cheap in 1-d
        if _x_nodes.shape[1] == 1:
            order = np.argsort(_x_nodes[:, 0])
            return np.interp(x[:, 0], _x_nodes[order, 0], _y_nodes[order])
        idx = np.argmin(
            np.sum((x[:, None, :] - _x_nodes[None, :, :]) ** 2, axis=2), axis=1
        )
        return _y_nodes[idx]

    sub_spec = replace(spec, horizon=float(t_node), terminal=CallableTerminal(terminal_fn))
    sub_grid = TimeGrid(float(t_node), node)
    y_composed, _ = theta_expectation(sub_spec, sub_grid, n_particles, seed=seed)
    return abs(y_composed - y_direct)


@dataclass(frozen=True)
class MonotonicityCheck:
    y_upper: float
    y_lower: float
    margin: float
    tolerance: float
    violated: bool


def check_monotonicity(
    spec: DeterministicSpec | ProblemSpec,
    grid: TimeGrid,
    xi_upper,
    xi_lower,
    *,
    n_particles: int = 10_000,
    seed: int = 0,
) -> MonotonicityCheck:
    """Order preservation for terminal data ordered by construction.

    Deterministic margins must be non-negative exactly; stochastic margins are
    judged against three combined standard errors of the two estimates.
    """
    if isinstance(spec, DeterministicSpec):
        if not float(xi_upper) >= float(xi_lower):
            raise UsageError("terminal values are not ordered")
        y1, _ = theta_expectation(spec, grid, xi=float(xi_upper))
        y2, _ = theta_expectation(spec, grid, xi=float(xi_lower))
        margin = y1 - y2
        return MonotonicityCheck(y1, y2, margin, 0.0, margin < 0.0)

    y1, sol1 = theta_expectation(spec, grid, n_particles, seed=seed, xi=xi_upper)
    y2, sol2 = theta_expectation(spec, grid, n_particles, seed=seed, xi=xi_lower)
    upper_vals = np.asarray(sol1.Y[-1])
    lower_vals = np.asarray(sol2.Y[-1])
    if np.any(upper_vals < lower_vals - 1e-12):
        raise UsageError("terminal payoffs are not ordered on the realized paths")
    tol = 3.0 * math.hypot(y0_standard_error(spec, grid, sol1), y0_standard_error(spec, grid, sol2))
    margin = y1 - y2
    return MonotonicityCheck(y1, y2, margin, tol, margin < -tol)


@dataclass(frozen=True)
class SubadditivityCheck:
    e_sum: float          # value of the summed payoff (zero)
    split_sum: float      # value of c plus value of -c
    gap: float
    violated: bool        # True when sub-additivity fails, the expected outcome


def check_subadditivity(
    spec: DeterministicSpec,
    c: float,
    grid: TimeGrid,
    *,
    guard: float = 0.5,
) -> SubadditivityCheck:
    """Strict sub-additivity failure on the quartic family.

    Valid only while both value paths stay inside the neighborhood where the
    optimized driver is convex; the guard aborts otherwise.
    """
    if not isinstance(spec.driver, QuarticDriver):
        raise UsageError("the sub-additivity construction uses the quartic family")
    e0, _ = theta_expectation(spec, grid, xi=0.0)
    ec, sol_c = theta_expectation(spec, grid, xi=float(c))
    emc, sol_mc = theta_expectation(spec, grid, xi=-float(c))
    worst = max(float(np.max(np.abs(sol_c.values))), float(np.max(np.abs(sol_mc.values))))
    if worst > guard:
        raise ParameterError(
            f"value path reached |y| = {worst:.3f} > {guard}; choose a smaller c"
        )
    split = ec + emc
    gap = split - e0
    return SubadditivityCheck(e_sum=e0, split_sum=split, gap=gap, violated=gap > 0.0)


def check_translation_invariance(
    spec: DeterministicSpec | ProblemSpec,
    xi,
    c: float,
    grid: TimeGrid,
    *,
    n_particles: int = 10_000,
    seed: int = 0,
) -> float:
    """Defect E[xi + c] - (E[xi] + c); zero iff the optimized driver ignores y."""
    if isinstance(spec, DeterministicSpec):
        y_shift, _ = theta_expectation(spec, grid, xi=float(xi) + c)
        y_base, _ = theta_expectation(spec, grid, xi=float(xi))
        return y_shift - (y_base + c)
    y_base, _ = theta_expectation(spec, grid, n_particles, seed=seed, xi=xi)
    base_terminal = spec.terminal

    def shifted(x, _phi=base_terminal, _c=c):
        return np.asarray(_phi(x), dtype=float) + _c

    y_shift, _ = theta_expectation(
        spec, grid, n_particles, seed=seed, xi=CallableTerminal(shifted)
    )
    return y_shift - (y_base + c)


# ---------------------------------------------------------------------------
# martingale structure


def driver_along_path(spec: ProblemSpec, grid: TimeGrid, sol: SolutionPaths) -> np.ndarray:
    """Driver values F_i at every node and particle of a solved system."""
    out = np.empty_like(sol.Y)
    for i in range(grid.n_nodes):
        state = DriverState(
            t=grid.times[i], x=sol.X[i], y=sol.Y[i], z=sol.Z[i], mu=sol.measures[i]
        )
        out[i] = np.asarray(spec.driver.value(state, sol.A[i]), dtype=float)
    return out


def y0_standard_error(spec: ProblemSpec, grid: TimeGrid, sol: SolutionPaths) -> float:
    """Monte Carlo standard error proxy from the pathwise estimator spread."""
    f_vals = driver_along_path(spec, grid, sol)
    pathwise = sol.Y[-1] + np.sum(f_vals[:-1], axis=0) * grid.dt
    return float(np.std(pathwise, ddof=1) / math.sqrt(sol.n_particles))


@dataclass(frozen=True, eq=False)
class MartingaleReport:
    max_abs_driver: float
    z_scores: np.ndarray | None = None       # stochastic: per-step increment z-scores
    within_three_fraction: float | None = None
    martingale_drift: float | None = None    # deterministic: max |M_t - M_0|


def martingale_diagnostics(
    spec: DeterministicSpec | ProblemSpec,
    grid: TimeGrid,
    sol: DeterministicSolution | SolutionPaths,
) -> MartingaleReport:
    """Drift diagnostics of the driver-corrected value process.

    Stochastic: per-step increments of M_i = Y_i + sum_{j<i} F_j dt should be
    centered; the report carries their z-scores.  Deterministic: the corrected
    path M_t = y_t + integral of the optimized driver is re-integrated jointly
    with the value ODE at fourth order and its constancy is reported.
    """
    if isinstance(spec, DeterministicSpec):
        if not isinstance(sol, DeterministicSolution):
            raise UsageError("deterministic diagnostics need a deterministic solution")
        g = optimized_driver_fn(spec)
        n_steps = sol.times.size - 1
        h = spec.horizon / n_steps
        y = float(sol.values[0])
        integral = 0.0
        max_driver = abs(g(y))
        drift = 0.0
        m0 = y
        for _ in range(n_steps):
            # forward RK4 on the pair (y' = -g, I' = g); M = y + I stays put
            k1y, k1i = -g(y), g(y)
            k2y, k2i = -g(y + 0.5 * h * k1y), g(y + 0.5 * h * k1y)
            k3y, k3i = -g(y + 0.5 * h * k2y), g(y + 0.5 * h * k2y)
            k4y, k4i = -g(y + h * k3y), g(y + h * k3y)
            y = y + (h / 6.0) * (k1y + 2 * k2y + 2 * k3y + k4y)
            integral = integral + (h / 6.0) * (k1i + 2 * k2i + 2 * k3i + k4i)
            max_driver = max(max_driver, abs(g(y)))
            drift = max(drift, abs(y + integral - m0))
        return MartingaleReport(max_abs_driver=max_driver, martingale_drift=drift)

    if not isinstance(sol, SolutionPaths):
        raise UsageError("stochastic diagnostics need solved particle paths")
    f_vals = driver_along_path(spec, grid, sol)
    max_driver = float(np.max(np.abs(f_vals[:-1]))) if grid.n_steps else 0.0
    increments = sol.Y[1:] - sol.Y[:-1] + f_vals[:-1] * grid.dt
    means = np.mean(increments, axis=1)
    stds = np.std(increments, axis=1, ddof=1)
    ses = stds / math.sqrt(sol.n_particles)
    z = np.where(ses > 0, means / np.where(ses > 0, ses, 1.0), 0.0)
    within = float(np.mean(np.abs(z) <= 3.0))
    return MartingaleReport(
        max_abs_driver=max_driver, z_scores=z, within_three_fraction=within
    )
