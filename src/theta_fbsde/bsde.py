"""Backward solve for the value and volatility processes.

Along given forward paths the conditional expectations are estimated by
least-squares regression on a polynomial basis of the state; the deterministic
reduction integrates an ODE with classical fourth-order steps.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, RegressionBasisError, UsageError
from .measures import EmpiricalMeasure, check_array_size
from .optimizer import DriverState
from .sde import ProblemSpec, TimeGrid, _node_controls

REGRESSION_DEGREE = 3
_CONDITION_LIMIT = 1e12
# Largest condition number fitted from the normal equations, whose rounding
# grows like eps * cond^2: eps * 64^2 is about 9e-13, inside the 1e-12 drift
# the outputs promise.  Worse-conditioned nodes take the reduced QR (eps * cond).
_MOMENT_FIT_COND = 64.0
_DEGENERATE_SPREAD = 1e-13
# Every moment product is summed over row blocks of at most _ONE_THREAD_GEMM
# multiply-adds, added in a fixed order.  One product over every row rounds
# differently at 1 and 2 OpenBLAS threads once it is split across threads;
# numpy's bundled OpenBLAS, at its default GEMM_MULTITHREAD_THRESHOLD of 4,
# runs a gemm of at most 65536 * 4 multiply-adds on one thread, so there the
# blocks give the same bits at any thread count.  Another BLAS, or an OpenBLAS
# built with another threshold, may split the blocks again.  The rule reads
# only the shape; a product within one block is the single product.
_ONE_THREAD_GEMM = 65536 * 4


@functools.lru_cache(maxsize=None)
def _monomial_parents(k: int, degree: int) -> tuple[tuple[int, int], ...]:
    """Recipe for the monomials up to the given total degree, graded order.

    Entry ``c`` of the result is ``(parent, j)``: column ``c + 1`` of the basis
    is column ``parent`` times coordinate ``j`` (column 0 is the constant).
    """
    index = {(): 0}
    recipe = []
    for total in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(k), total):
            recipe.append((index[combo[:-1]], combo[-1]))
            index[combo] = len(index)
    return tuple(recipe)


def polynomial_basis(x: np.ndarray, degree: int, out: np.ndarray | None = None) -> np.ndarray:
    """Monomials of the state components up to the given total degree.

    Each monomial is a lower-degree one times one coordinate, so the basis
    costs one product per column.  ``out``, an (n, p) array, receives the
    columns instead of a fresh column-major array and is returned.
    """
    n, k = x.shape
    recipe = _monomial_parents(k, degree)
    if out is None:
        out = np.empty((n, 1 + len(recipe)), order="F")
    out[:, 0] = 1.0
    for col, (parent, j) in enumerate(recipe, start=1):
        np.multiply(out[:, parent], x[:, j], out=out[:, col])
    return out


def _moment_product(phi: np.ndarray, design: np.ndarray) -> np.ndarray:
    """``phi.T @ design``, summed over row blocks in order of the rows."""
    n, p = phi.shape
    step = max(1, _ONE_THREAD_GEMM // (p * design.shape[1]))
    moments = phi[:step].T @ design[:step]
    for start in range(step, n, step):
        moments += phi[start:start + step].T @ design[start:start + step]
    return moments


@dataclass(frozen=True, eq=False)
class NodeFit:
    """Least-squares fit of target columns on the polynomial basis of the state.

    ``active`` marks the coordinates that vary at the node; they are
    standardized with ``mean`` and ``std`` before the basis is built.  With no
    active coordinate the basis is the constant and ``coef`` holds the means.
    ``values`` are the fitted values at the training states and ``cond`` the
    condition number of the design matrix, whichever way the fit was solved
    (from the eigenvalues of its moment matrix, or from the singular values of
    its QR factor).
    """

    active: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    degree: int
    coef: np.ndarray
    values: np.ndarray
    cond: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The fitted polynomial at new states ``x`` of shape (n, k)."""
        xs = (np.asarray(x, dtype=float)[:, self.active] - self.mean) / self.std
        return polynomial_basis(xs, self.degree) @ self.coef


def _node_regression(x: np.ndarray, targets: np.ndarray, degree: int) -> NodeFit:
    """Fitted conditional expectations of each target column given the state.

    The state is standardized per node and frozen coordinates are dropped, so
    a fully degenerate cloud reduces to plain means.  The fit is read from the
    p x p moment matrix ``G = Phi^T Phi`` of the design matrix ``Phi``: its
    eigenvalues give ``cond(Phi) = sqrt(lmax / lmin)``, and when that is at
    most ``_MOMENT_FIT_COND`` the coefficients solve ``G c = Phi^T T`` and the
    fitted values are ``Phi c``.  ``Phi`` and the targets ``T`` are written
    into one F-order block ``[Phi | T]``, so one product ``Phi^T [Phi | T]``
    gives both ``G`` and ``Phi^T T``.  Otherwise one reduced QR of ``Phi``
    gives the fitted values ``Q (Q^T T)``, the coefficients from
    ``R c = Q^T T`` and the condition number from the singular values of
    ``R``, which are those of ``Phi``.  Fewer rows than basis columns, a
    state whose mean square overflows or a condition number above 1e12
    aborts the sweep.  The result holds no view of ``targets``, which the
    backward sweep reuses at the next node.
    """
    # ndarray methods, not the np.* wrappers: at a few hundred particles the
    # wrappers' call overhead is a visible share of the fit.  With several
    # coordinates the column reductions read a column-major copy, far faster
    # than across C-order rows and, max and min being exact, the same bits.
    cols = x if x.shape[1] == 1 else np.asfortranarray(x)
    hi = cols.max(axis=0)
    lo = cols.min(axis=0)
    scale = max(1.0, float(hi.max()), float(-lo.min()))
    active = hi - lo > _DEGENERATE_SPREAD * scale
    if not np.any(active):
        means = np.mean(targets, axis=0)
        values = np.broadcast_to(means, targets.shape).copy()
        empty = np.empty(0)
        return NodeFit(active, empty, empty, degree, means[None, :], values, 1.0)
    n = x.shape[0]
    p = math.comb(int(np.count_nonzero(active)) + degree, degree)
    if n < p:
        raise RegressionBasisError(
            f"{n} particles cannot fit the {p} regression basis columns; use more particles"
        )
    xs = x[:, active]
    mean = xs.mean(axis=0)
    xs -= mean
    # the arithmetic of np.std, which would centre the state again
    std = np.sqrt((xs * xs).mean(axis=0))
    if not np.isfinite(std).all():
        raise RegressionBasisError(
            f"the state's mean square overflows (spread up to {float((hi - lo).max()):.3e}); "
            "the regression cannot standardize it"
        )
    xs /= std
    design = np.empty((n, p + targets.shape[1]), order="F")
    phi = polynomial_basis(xs, degree, out=design[:, :p])
    design[:, p:] = targets
    # phi^T phi alone would go to BLAS syrk, several times slower at these
    # shapes than this gemm, which also gives Phi^T T
    moments = _moment_product(phi, design)
    gram = moments[:, :p]
    eigen = np.linalg.eigvalsh(gram)
    if eigen[0] > 0:
        cond = math.sqrt(eigen[-1] / eigen[0])
        if cond <= _MOMENT_FIT_COND:
            coef = np.linalg.solve(gram, moments[:, p:])
            return NodeFit(active, mean, std, degree, coef, phi @ coef, cond)
    q, r = np.linalg.qr(phi)
    singular = np.linalg.svd(r, compute_uv=False)
    cond = singular[0] / singular[-1] if singular[-1] > 0 else math.inf
    if not cond <= _CONDITION_LIMIT:
        raise RegressionBasisError(
            f"regression basis condition number {cond:.3e} exceeds 1e12; use more particles"
        )
    projected = q.T @ targets
    coef = np.linalg.solve(r, projected)
    return NodeFit(active, mean, std, degree, coef, q @ projected, float(cond))


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
    holds the monomials up to total degree ``REGRESSION_DEGREE``.  ``controls``
    has shape (n_nodes, n), one control per node and particle.
    """
    n_nodes = grid.n_nodes
    n = x_paths.shape[1]
    d = spec.noise_dim
    if x_paths.shape[0] != n_nodes:
        raise UsageError("forward paths must cover every grid node")
    if increments.shape != (grid.n_steps, n, d):
        raise UsageError("increments must match the forward paths that used them")
    controls = _node_controls(controls, grid, n)

    times = grid.times
    dt = grid.dt
    Y = np.empty((n_nodes, n))
    Z = np.empty((n_nodes, n, d))
    Y[-1] = np.asarray(spec.terminal(x_paths[-1]), dtype=float)
    driver = spec.driver
    # one row-major block [Y_{i+1} | Y_{i+1} dB_i] serves every node; a
    # column-major one would change the bits of a frozen node's column means
    targets = np.empty((n, 1 + d))
    for i in range(grid.n_steps - 1, -1, -1):
        y_next = Y[i + 1]
        targets[:, 0] = y_next
        np.multiply(y_next[:, None], increments[i], out=targets[:, 1:])
        fitted = _node_regression(x_paths[i], targets, REGRESSION_DEGREE).values
        cont = fitted[:, 0]
        z = np.divide(fitted[:, 1:], dt, out=Z[i])
        state = DriverState(t=times[i], x=x_paths[i], y=cont, z=z, mu=laws[i])
        value = np.asarray(driver.value(state, controls[i]), dtype=float)
        y_new = np.multiply(value, dt, out=Y[i])
        y_new += cont
        if not np.all(np.isfinite(y_new)):
            raise DivergenceError("value process became non-finite", node=i)
        # the fitted values and the driver's value are freed here, not when
        # the next node rebinds the names, so the next fit does not run
        # beside them; the rows themselves are written into Y and Z
        del fitted, cont, state, value
    Z[-1] = Z[-2]
    return Y, Z


def _rk4_increment(g: Callable[[float], float], y: float, h: float, k1: float) -> float:
    """Classical RK4 change of y over one step h of y' = g(y), given k1 = g(y).

    Takes the first stage from the caller, so a caller that needs g at the
    new point anyway evaluates g four times per step.  A negative h steps
    the other way in time.  ``y`` and ``k1`` may be arrays of equal shape
    when ``g`` maps arrays element-wise; each element then gets the scalar
    step's bits.
    """
    k2 = g(y + 0.5 * h * k1)
    k3 = g(y + 0.5 * h * k2)
    k4 = g(y + h * k3)
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def solve_deterministic_ode(
    optimized_driver: Callable[[float], float],
    terminal_value: float,
    horizon: float,
    n_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Backward value path of y' = -g(y) with y(horizon) given, classical RK4.

    Returns (times, values) on the uniform grid, values[0] being the value at
    time zero.  A non-finite value, or an ``OverflowError`` from the driver
    (Python float powers raise one), raises :class:`DivergenceError` with the
    node being computed.

    ``optimized_driver`` must be a pure function of y: the same float, sign
    of zero included, always gives the same result.  Then the equation is
    autonomous and h is fixed, so a step that returns its input y bit for bit
    returns it at every later step too.  The integration stops there and
    every node still unfilled takes y, which is exact.  This catches an
    equilibrium (the zero payoff under a normalized driver) and a step whose
    increment rounds away.
    """
    if n_steps < 1:
        raise UsageError("need at least one step")
    check_array_size((n_steps + 1,), "the value path")
    h = horizon / n_steps
    ys = np.empty(n_steps + 1)
    ys[-1] = float(terminal_value)
    y = float(terminal_value)
    try:
        for i in range(n_steps, 0, -1):
            y_next = y + _rk4_increment(optimized_driver, y, h, optimized_driver(y))
            if not math.isfinite(y_next):
                raise DivergenceError("deterministic value path became non-finite", node=i - 1)
            # an ordinary step fails the == alone; the sign bits tell the
            # equal floats -0.0 and 0.0 apart
            if y_next == y and math.copysign(1.0, y_next) == math.copysign(1.0, y):
                ys[:i] = y
                break
            y = y_next
            ys[i - 1] = y
    except OverflowError as exc:
        raise DivergenceError(
            f"deterministic value path overflowed the driver near y = {y:.3e}", node=i - 1
        ) from exc
    times = np.linspace(0.0, horizon, n_steps + 1)
    return times, ys
