"""Backward solve for the value and volatility processes.

Along given forward paths the conditional expectations are estimated by
least-squares regression on a polynomial basis of the state; the deterministic
reduction integrates an ODE with classical fourth-order steps.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, RegressionBasisError, UsageError
from .measures import EmpiricalMeasure
from .optimizer import DriverState
from .sde import ProblemSpec, TimeGrid

REGRESSION_DEGREE = 3
_CONDITION_LIMIT = 1e12
_DEGENERATE_SPREAD = 1e-13


def _monomial_exponents(k: int, degree: int) -> list[tuple[int, ...]]:
    exps = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(k), total):
            e = [0] * k
            for idx in combo:
                e[idx] += 1
            exps.append(tuple(e))
    return exps


def polynomial_basis(x: np.ndarray, degree: int) -> np.ndarray:
    """Monomials of the state components up to the given total degree."""
    n, k = x.shape
    cols = []
    for exps in _monomial_exponents(k, degree):
        col = np.ones(n)
        for j, e in enumerate(exps):
            if e:
                col = col * x[:, j] ** e
        cols.append(col)
    return np.column_stack(cols)


def _node_regression(x: np.ndarray, targets: np.ndarray, degree: int) -> np.ndarray:
    """Fitted conditional expectations of each target column given the state.

    The state is standardized per node and frozen coordinates are dropped, so
    a fully degenerate cloud reduces to plain means.  A condition number above
    1e12 on the design matrix aborts the sweep.
    """
    scale = max(1.0, float(np.max(np.abs(x))))
    spread = np.max(x, axis=0) - np.min(x, axis=0)
    active = spread > _DEGENERATE_SPREAD * scale
    if not np.any(active):
        means = np.mean(targets, axis=0)
        return np.broadcast_to(means, targets.shape).copy()
    xa = x[:, active]
    xs = (xa - np.mean(xa, axis=0)) / np.std(xa, axis=0)
    phi = polynomial_basis(xs, degree)
    singular = np.linalg.svd(phi, compute_uv=False)
    cond = singular[0] / singular[-1] if singular[-1] > 0 else math.inf
    if phi.shape[0] < phi.shape[1] or not math.isfinite(cond) or cond > _CONDITION_LIMIT:
        raise RegressionBasisError(
            f"regression basis condition number {cond:.3e} exceeds 1e12; use more particles"
        )
    coef, *_ = np.linalg.lstsq(phi, targets, rcond=None)
    return phi @ coef


def solve_backward(
    spec: ProblemSpec,
    grid: TimeGrid,
    x_paths: np.ndarray,
    controls: np.ndarray,
    laws: Sequence[EmpiricalMeasure],
    increments: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One backward sweep producing value and volatility paths.

    Stepping from node i+1 to i: the volatility row is the regression of
    Y_{i+1} dB_i on the state divided by dt, the continuation value is the
    regression of Y_{i+1}, and the driver is evaluated explicitly at the
    continuation value.  The terminal volatility row repeats the last
    estimated one; no fresh information arrives at the horizon.  The basis
    holds the monomials up to total degree ``REGRESSION_DEGREE``.
    """
    n_nodes = grid.n_nodes
    n = x_paths.shape[1]
    d = spec.noise_dim
    if x_paths.shape[0] != n_nodes:
        raise UsageError("forward paths must cover every grid node")
    if increments.shape != (grid.n_steps, n, d):
        raise UsageError("increments must match the forward paths that used them")
    controls = np.asarray(controls, dtype=float)
    if controls.ndim == 1:
        controls = controls[:, None]

    times = grid.times
    dt = grid.dt
    Y = np.empty((n_nodes, n))
    Z = np.zeros((n_nodes, n, d))
    Y[-1] = np.asarray(spec.terminal(x_paths[-1]), dtype=float)
    driver = spec.driver
    for i in range(grid.n_steps - 1, -1, -1):
        targets = np.column_stack([Y[i + 1]] + [Y[i + 1] * increments[i, :, j] for j in range(d)])
        fitted = _node_regression(x_paths[i], targets, REGRESSION_DEGREE)
        cont = fitted[:, 0]
        z = fitted[:, 1:] / dt
        a_i = controls[i] if controls.shape[1] == n else np.full(n, controls[i, 0])
        state = DriverState(t=times[i], x=x_paths[i], y=cont, z=z, mu=laws[i])
        y_new = cont + np.asarray(driver.value(state, a_i), dtype=float) * dt
        if not np.all(np.isfinite(y_new)):
            raise DivergenceError("value process became non-finite", node=i)
        Y[i] = y_new
        Z[i] = z
    Z[-1] = Z[-2] if grid.n_steps >= 1 else Z[-1]
    return Y, Z


def solve_deterministic_ode(
    optimized_driver: Callable[[float], float],
    terminal_value: float,
    horizon: float,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Backward value path of y' = -g(y) with y(horizon) given, classical RK4.

    Returns (times, values) on the uniform grid, values[0] being the value at
    time zero.
    """
    if n_steps < 1:
        raise UsageError("need at least one step")
    h = horizon / n_steps
    ys = np.empty(n_steps + 1)
    ys[-1] = float(terminal_value)
    y = float(terminal_value)
    for i in range(n_steps, 0, -1):
        k1 = optimized_driver(y)
        k2 = optimized_driver(y + 0.5 * h * k1)
        k3 = optimized_driver(y + 0.5 * h * k2)
        k4 = optimized_driver(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(y):
            raise DivergenceError("deterministic value path became non-finite", node=i - 1)
        ys[i - 1] = y
    times = np.linspace(0.0, horizon, n_steps + 1)
    return times, ys
