"""The nonlinear expectation operator and checkers for its properties.

The operator maps a terminal payoff to the initial value of the backward
component.  The checkers exercise composition across intermediate times,
order preservation, the strict failure of sub-additivity, the translation
defect, and the martingale structure of the driver-corrected value process.
"""

from __future__ import annotations

import math
import sys
import weakref
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .bsde import REGRESSION_DEGREE, _node_regression, _rk4_increment, solve_deterministic_ode
from .coupling import picard_solve
from .errors import ParameterError, UsageError
from .optimizer import DriverState, QuarticDriver, driver_sup, second_derivative_at_zero
from .sde import (
    CallableTerminal,
    ConstantTerminal,
    ProblemSpec,
    SolutionPaths,
    TimeGrid,
    check_horizon,
)
from .uncertainty import IntervalUnion


@dataclass(frozen=True)
class DeterministicSpec:
    """Reduction with no state process and no noise.

    The backward equation collapses to an ODE in the optimized driver, which
    is where the operator's defining properties can be checked exactly.  The
    spec object keeps its own valuations (see :func:`_deterministic_valuation`);
    they take no part in equality, hashing or the repr.
    """

    driver: object
    control_set: IntervalUnion
    horizon: float
    _valuations: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ParameterError(f"horizon must be positive, got {self.horizon}")


@dataclass(frozen=True, eq=False)
class DeterministicSolution:
    """Value path of the deterministic reduction; both arrays are read-only."""

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
    equation integrates as an ODE; the valuation is integrated once per spec
    object, terminal value and step count (see :func:`_deterministic_valuation`).
    Otherwise the coupled system is solved with the particle engine; ``xi``
    may replace the configured terminal map (a number means a constant payoff).
    """
    if isinstance(spec, DeterministicSpec):
        if xi is None or not np.isscalar(xi):
            raise UsageError("the deterministic reduction needs a numeric terminal value")
        check_horizon(grid, spec.horizon)
        sol = _deterministic_valuation(spec, float(xi), grid.n_steps)
        return sol.y0, sol
    if xi is not None:
        spec = _with_constant_terminal(spec, xi) if np.isscalar(xi) else replace(spec, terminal=xi)
    sol, _report = picard_solve(spec, grid, n_particles, seed=seed)
    return sol.y0, sol


# Per base spec object, the spec with each constant terminal value that
# theta_expectation derived from it, keyed by float.hex(xi), which tells -0.0
# from 0.0.  A repeated call then hands picard_solve the same spec object, so
# its per-spec memo can serve it.  Weakly keyed, like that memo: no base spec
# is kept alive.
_constant_terminal_specs = weakref.WeakKeyDictionary()


def _with_constant_terminal(spec: ProblemSpec, xi) -> ProblemSpec:
    derived = _constant_terminal_specs.setdefault(spec, {})
    key = float(xi).hex()
    if key not in derived:
        derived[key] = replace(spec, terminal=ConstantTerminal(float(xi)))
    return derived[key]


# Deterministic valuations kept per spec object; the property suite asks for
# 5 distinct ones, the counterexample for 3.  At 1000 steps an entry is 16 KB.
_VALUATIONS_KEPT = 8


def _deterministic_valuation(
    spec: DeterministicSpec, xi: float, n_steps: int
) -> DeterministicSolution:
    """The ODE solution of E[xi] on ``n_steps`` steps, integrated once.

    Solutions are kept on the spec object itself, so they live as long as it
    does and drivers are never hashed.  They are keyed by
    ``(xi.hex(), n_steps)``, which tells -0.0 from 0.0, up to
    ``_VALUATIONS_KEPT`` of them per spec, the oldest dropped first.  An equal
    but distinct spec object starts afresh.  The returned arrays are
    read-only, and a valuation that raises is not kept.
    """
    solutions = spec._valuations
    key = (xi.hex(), n_steps)
    sol = solutions.get(key)
    if sol is None:
        times, values = solve_deterministic_ode(
            optimized_driver_fn(spec), xi, spec.horizon, n_steps
        )
        times.flags.writeable = False
        values.flags.writeable = False
        sol = DeterministicSolution(times, values)
        if len(solutions) >= _VALUATIONS_KEPT:
            del solutions[next(iter(solutions))]
        solutions[key] = sol
    return sol


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
    The terminal map evaluates the fitted polynomial at the new states, so
    its cost and memory are linear in the particle count.
    """
    if not 0.0 < t_split < spec.horizon:
        raise UsageError("the split time must lie strictly inside the horizon")
    if isinstance(spec, DeterministicSpec):
        y_direct, _ = theta_expectation(spec, grid, xi=float(xi))
        g = optimized_driver_fn(spec)
        n_tail = max(1, round(grid.n_steps * (spec.horizon - t_split) / spec.horizon))
        n_head = max(1, grid.n_steps - n_tail)
        _, tail = solve_deterministic_ode(g, float(xi), spec.horizon - t_split, n_tail)
        _, head = solve_deterministic_ode(g, float(tail[0]), t_split, n_head)
        return abs(float(head[0]) - y_direct)

    y_direct, sol = theta_expectation(spec, grid, n_particles, seed=seed, xi=xi)
    node = round(t_split / grid.dt)
    node = min(max(node, 1), grid.n_steps - 1)
    t_node = grid.times[node]
    fit = _node_regression(sol.X[node], sol.Y[node][:, None], REGRESSION_DEGREE)

    def terminal_fn(x):
        return fit(x)[:, 0]

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


# Largest |y| the sub-additivity construction lets either value path reach.
_SUBADDITIVITY_GUARD = 0.5


def check_subadditivity(spec: DeterministicSpec, c: float, grid: TimeGrid) -> SubadditivityCheck:
    """Strict sub-additivity failure on the quartic family.

    Valid only while both value paths stay inside the neighborhood where the
    optimized driver is convex; a path that leaves |y| <= 0.5 aborts.
    """
    if not isinstance(spec.driver, QuarticDriver):
        raise UsageError("the sub-additivity construction uses the quartic family")
    e0, _ = theta_expectation(spec, grid, xi=0.0)
    ec, sol_c = theta_expectation(spec, grid, xi=float(c))
    emc, sol_mc = theta_expectation(spec, grid, xi=-float(c))
    worst = max(float(np.max(np.abs(sol_c.values))), float(np.max(np.abs(sol_mc.values))))
    if worst > _SUBADDITIVITY_GUARD:
        raise ParameterError(
            f"value path reached |y| = {worst:.3f} > {_SUBADDITIVITY_GUARD}; choose a smaller c"
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


def translation_defect_gate(
    spec: DeterministicSpec, c: float, grid: TimeGrid, defect: float, coarse_defect: float
) -> dict:
    """Scale-aware verdict on a quartic translation defect E[c] - (E[0] + c).

    Near zero the optimized driver is g''(0) y^2 / 2 with g''(0) from
    :func:`second_derivative_at_zero`, so the defect is g''(0) c^2 T / 2 to
    leading order in c.  ``defect`` is measured on ``grid`` and
    ``coarse_defect`` on half its steps.  The floor bounds the error of the
    RK4 defect by three terms:
    - truncation: the change between the two step counts, about 15 times
      the truncation error at the full count;
    - stepping: one rounding at the scale of |c| per step and two for the
      differences;
    - the driver: near zero the double-well term gamma/4 - gamma/4 (a^2-1)^2
      cancels to the optimized value, which therefore carries an absolute
      rounding error of about eps gamma/2; the floor counts eps gamma per
      unit of time.
    The check passes when the defect has the predicted sign, at least half
    the predicted size and clears the floor, so a c too small to resolve
    fails instead of passing vacuously.
    """
    expected = second_derivative_at_zero(spec.driver) * c * c * spec.horizon / 2.0
    eps = sys.float_info.epsilon
    stepping = (grid.n_steps + 2) * eps * (abs(c) + abs(defect))
    floor = abs(defect - coarse_defect) + stepping + spec.horizon * eps * spec.driver.gamma
    passed = _resolved(defect, expected, floor)
    return {"defect": defect, "expected": expected, "floor": floor, "passed": passed}


def subadditivity_gate(spec: DeterministicSpec, c: float, grid: TimeGrid, gap: float) -> dict:
    """Scale-aware verdict on a quartic sub-additivity gap E[c] + E[-c] - E[0].

    To leading order in c, E[c] and E[-c] are +c and -c plus
    g''(0) c^2 T / 2 each and E[0] = 0, so the gap is g''(0) c^2 T, with
    g''(0) from :func:`second_derivative_at_zero`.  ``gap`` is measured on
    ``grid``.  The floor bounds the rounding of the two RK4 solves at scale
    |c| (the terms of :func:`translation_defect_gate`, once per solve):
    - stepping: one rounding at the scale of |c| per step and two for the
      differences;
    - the driver: eps gamma per unit of time.
    It has no truncation term and needs no second solve: the RK4 truncation
    of the gap is negligible (at lambda = 2, gamma = 1, T = 1 the gaps at
    1000 and 500 steps agree to about 3e-19 at c = 1e-4, where the gap is
    2e-8).  The check passes when the gap has the predicted sign, at least
    half the predicted size and clears the floor; at lambda = 2, gamma = 1,
    T = 1 the floor is about 4.4e-16, so c above about 1.5e-8 is resolvable
    and a smaller c fails.
    """
    expected = second_derivative_at_zero(spec.driver) * c * c * spec.horizon
    eps = sys.float_info.epsilon
    stepping = 2.0 * (grid.n_steps + 2) * eps * (abs(c) + abs(gap))
    floor = stepping + 2.0 * spec.horizon * eps * spec.driver.gamma
    passed = _resolved(gap, expected, floor)
    return {"gap": gap, "expected": expected, "floor": floor, "passed": passed}


def _resolved(measured: float, expected: float, floor: float) -> bool:
    """The predicted sign, at least half the predicted size, and above the floor."""
    return (
        measured * expected > 0.0 and abs(measured) >= 0.5 * abs(expected) and abs(measured) > floor
    )


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
    centered; the report carries their z-scores.  Deterministic: along the
    given path, M_i - M_0 = y_i - y_0 + sum_{j<i} I_j, where I_j is the
    solver's own RK4 quadrature of the optimized driver over step j, taken
    from y_{j+1}; the largest |M_i - M_0| is reported, so a path that does
    not solve the value ODE shows its defect.
    """
    if isinstance(spec, DeterministicSpec):
        if not isinstance(sol, DeterministicSolution):
            raise UsageError("deterministic diagnostics need a deterministic solution")
        g = optimized_driver_fn(spec)
        n_steps = sol.times.size - 1
        h = spec.horizon / n_steps
        y0 = float(sol.values[0])
        max_driver = abs(g(y0))
        integral = 0.0
        drift = 0.0
        for y in sol.values[1:].tolist():
            g_y = g(y)
            max_driver = max(max_driver, abs(g_y))
            integral += _rk4_increment(g, y, h, g_y)
            drift = max(drift, abs(y - y0 + integral))
        return MartingaleReport(max_abs_driver=max_driver, martingale_drift=drift)

    if not isinstance(sol, SolutionPaths):
        raise UsageError("stochastic diagnostics need solved particle paths")
    f_vals = driver_along_path(spec, grid, sol)
    max_driver = float(np.max(np.abs(f_vals[:-1])))
    increments = sol.Y[1:] - sol.Y[:-1] + f_vals[:-1] * grid.dt
    means = np.mean(increments, axis=1)
    stds = np.std(increments, axis=1, ddof=1)
    ses = stds / math.sqrt(sol.n_particles)
    z = np.where(ses > 0, means / np.where(ses > 0, ses, 1.0), 0.0)
    within = float(np.mean(np.abs(z) <= 3.0))
    return MartingaleReport(
        max_abs_driver=max_driver, z_scores=z, within_three_fraction=within
    )
