"""One-dimensional finite differences for the optimized terminal-value problem.

An explicit monotone scheme: at every node the control comes from the same
pointwise maximization of the driver that defines the coupled system, the
first derivative is upwinded by the sign of the drift at that control, and the
second derivative is centered.  The measure flow is frozen, typically from a
converged particle run, so no fixed point over laws is solved on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._atomic import atomic_write
from . import _csv
from ._csv import format_once, format_tables
from .errors import GridError, UsageError
from .measures import EmpiricalMeasure, check_array_size
from .optimizer import DriverState, maximize_batch, maximize_over
from .sde import (
    AffineControlDrift,
    ConstantVolatility,
    ProblemSpec,
    SolutionPaths,
    TimeGrid,
    check_solution_grid,
)

MeasureFlow = Callable[[float], EmpiricalMeasure]


@dataclass(frozen=True)
class Grid1D:
    """Space-time box for the explicit scheme."""

    x_min: float
    x_max: float
    nx: int
    nt: int

    def __post_init__(self):
        finite = math.isfinite(self.x_min) and math.isfinite(self.x_max)
        if not (finite and self.x_min < self.x_max):
            raise GridError(f"need finite x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.nx < 3:
            raise GridError("need at least three space nodes")
        if self.nt < 1:
            raise GridError("need at least one time step")
        check_array_size((self.nt + 1, self.nx), "the value surface", GridError)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    def dt(self, horizon: float) -> float:
        return horizon / self.nt

    @property
    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)


def flow_from_solution(grid: TimeGrid, sol: SolutionPaths) -> MeasureFlow:
    """Nearest-node lookup of the per-node value laws of a particle run.

    ``grid`` must be the one the run was solved on (UsageError otherwise).
    """
    check_solution_grid(grid, sol)

    def flow(t: float) -> EmpiricalMeasure:
        i = min(max(round(t / grid.dt), 0), grid.n_steps)
        return sol.measures[i]

    return flow


def _problem_pieces(spec: ProblemSpec):
    if spec.state_dim != 1 or spec.noise_dim != 1:
        raise UsageError("the grid solver covers one state and one noise dimension")
    if not isinstance(spec.volatility, ConstantVolatility):
        raise UsageError("the grid solver needs a constant volatility")
    if not isinstance(spec.drift, AffineControlDrift):
        raise UsageError("the grid solver needs the affine-in-control drift family")
    sigma = float(spec.volatility.matrix[0, 0])
    c0 = float(spec.drift.C0[0])
    c1 = float(spec.drift.C1[0, 0])
    return sigma, c0, c1


# The default grid keeps its diffusion and advection stability ratios below
# this, under check_stability's 0.5.
DEFAULT_GRID_CFL = 0.45


def default_grid(spec: ProblemSpec, *, nx: int = 201) -> Grid1D:
    """Grid centered on x0, spanning six noise standard deviations.

    The domain is widened to include the drift's stationary means at the
    extreme controls, and the step count is chosen so both the diffusion and
    the advection stability ratios stay below ``DEFAULT_GRID_CFL``.  Needs
    ``nx >= 3``; raises :class:`GridError` where the problem's scales
    overflow the step count.
    """
    if nx < 3:
        raise GridError("need at least three space nodes")
    check_array_size((nx,), "the space grid", GridError)
    sigma, c0, c1 = _problem_pieces(spec)
    x0 = float(spec.x0[0])
    half_width = max(6.0 * abs(sigma) * math.sqrt(spec.horizon), 1e-3)
    lo, hi = x0 - half_width, x0 + half_width
    w_lo, w_hi = spec.ambiguity.control_range()
    for w in (w_lo, w_hi):
        gain = c1 * (1.0 + 3.0 * w)
        if abs(gain) > 1e-12:
            mean = c0 / gain
            lo, hi = min(lo, mean - half_width / 2), max(hi, mean + half_width / 2)
    if nx % 2 == 0:
        nx += 1  # keep x0 representable near the center
    dx = (hi - lo) / (nx - 1)
    x_abs = max(abs(lo), abs(hi))
    b_max = abs(c0) + abs(c1) * max(abs(1 + 3 * w_lo), abs(1 + 3 * w_hi)) * x_abs
    # a sigma whose square underflows sets no diffusion limit, as sigma = 0
    dt_diff = DEFAULT_GRID_CFL * dx * dx / (sigma * sigma) if sigma * sigma != 0.0 else math.inf
    dt_adv = DEFAULT_GRID_CFL * dx / b_max if b_max > 0 else math.inf
    dt_cap = min(dt_diff, dt_adv, spec.horizon)
    steps = spec.horizon / dt_cap if dt_cap > 0 else math.inf
    if not math.isfinite(steps):
        raise GridError(
            f"the stability limits give no finite time step count (dt = {dt_cap}); "
            "the problem's scales overflow the grid arithmetic"
        )
    return Grid1D(lo, hi, nx, max(1, math.ceil(steps)))


def check_stability(spec: ProblemSpec, grid1d: Grid1D) -> None:
    """Raise :class:`GridError` unless the explicit scheme's ``sigma^2 dt / dx^2 <= 0.5``.

    The ratio needs only the problem and the grid, so callers can check it
    before any other work.
    """
    sigma = _problem_pieces(spec)[0]
    ratio = sigma * sigma * grid1d.dt(spec.horizon) / (grid1d.dx * grid1d.dx)
    if ratio > 0.5 + 1e-12:
        raise GridError(
            f"stability ratio sigma^2 dt / dx^2 = {ratio:.4f} exceeds 0.5; refine time"
        )


def check_contains_x0(spec: ProblemSpec, grid1d: Grid1D) -> None:
    """Raise :class:`GridError` unless ``x0`` lies in ``[x_min, x_max]``.

    The grid value at (0, x0) is read by interpolation, which would clamp a
    point outside the box to the nearest edge instead of failing.
    """
    x0 = float(spec.x0[0])
    if not grid1d.x_min <= x0 <= grid1d.x_max:
        raise GridError(f"x0 = {x0} lies outside the grid box [{grid1d.x_min}, {grid1d.x_max}]")


def solve_hjb(spec: ProblemSpec, grid1d: Grid1D, measure_flow: MeasureFlow) -> np.ndarray:
    """Explicit backward sweep of the optimized terminal-value problem.

    At every node the control comes from the pointwise argmax of the coupled
    system, one batched call per time layer; the drift at that control picks
    the upwind direction of the advection term.  ``measure_flow`` maps a time
    to the value law the set is realized from (:func:`flow_from_solution`
    builds it from a particle run).  Returns the value surface as an
    (nt + 1, nx) array, row 0 at time zero.  The boundary
    second derivative is extrapolated to zero and the missing one-sided slopes
    are extrapolated as constants.
    """
    check_stability(spec, grid1d)
    sigma, c0, c1 = _problem_pieces(spec)
    dt = grid1d.dt(spec.horizon)
    dx = grid1d.dx

    xs = grid1d.xs
    drift_const = c0 - c1 * xs
    drift_slope = -3.0 * c1 * xs
    surface = np.empty((grid1d.nt + 1, grid1d.nx))
    v = np.asarray(spec.terminal(xs[:, None]), dtype=float)
    surface[-1] = v
    state_free = getattr(spec.driver, "state_free_argmax", False)
    mu = uset = None
    for layer in range(grid1d.nt - 1, -1, -1):
        t_data = (layer + 1) * dt
        law = measure_flow(t_data)
        # a particle flow hands every layer between two of its nodes the
        # same law object, so the set is realized once per law
        if uset is None or law is not mu:
            mu = law
            uset = spec.ambiguity.realize(mu)
        d_plus = np.empty_like(v)
        d_minus = np.empty_like(v)
        slope = (v[1:] - v[:-1]) / dx
        d_plus[:-1] = slope
        d_minus[1:] = slope
        # constant extrapolation beyond the box keeps the update monotone when
        # the drift points out of the domain
        d_plus[-1] = 0.0
        d_minus[0] = 0.0
        d2 = np.zeros_like(v)
        d2[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (dx * dx)
        diffusion = 0.5 * sigma * sigma * d2
        z = 0.5 * (d_plus + d_minus) * sigma
        state = DriverState(t=t_data, x=xs[:, None], y=v, z=z[:, None], mu=mu)
        if state_free:
            res = maximize_over(uset, spec.driver, DriverState(t=t_data, mu=mu))
            controls = np.full_like(v, res.a_star)
        else:
            controls, _ = maximize_batch(uset, spec.driver, state)
        optimized = np.asarray(spec.driver.value(state, controls), dtype=float)
        drift = drift_const + drift_slope * controls
        advection = np.maximum(drift, 0.0) * d_plus + np.minimum(drift, 0.0) * d_minus
        v = v + dt * (advection + diffusion + optimized)
        if not np.all(np.isfinite(v)):
            raise GridError(f"value surface became non-finite at layer {layer}")
        surface[layer] = v
    return surface


def write_surface_csv(path, grid1d: Grid1D, horizon: float, surface: np.ndarray) -> None:
    """Dump the value surface as CSV rows (t, x, v), t = layer * dt.

    Every number is printed as ``'%.17g' % x`` prints it.  Only v is printed
    cell by cell, by the vectorized formatter of ``_csv.format_tables``, a run
    of whole layers per block; x is printed once per file and each layer's t
    once per layer, and their text is copied.  ``surface`` must be
    ``(grid1d.nt + 1, grid1d.nx)``, one row per time layer, or UsageError is
    raised before anything is written.  The file is written atomically; a
    cell that is not a real number raises TypeError and leaves the previous
    file in place.
    """
    surface = np.asarray(surface)
    n_layers, nx = grid1d.nt + 1, grid1d.nx
    if surface.shape != (n_layers, nx):
        raise UsageError(f"surface of shape {surface.shape} does not match the grid's {(n_layers, nx)}")
    times = format_once(np.arange(n_layers) * grid1d.dt(horizon))
    step = max(1, _csv._BLOCK_ROWS // nx)  # layers per block
    xs = np.tile(format_once(grid1d.xs), (step, 1))

    def blocks():
        for i in range(0, n_layers, step):
            v = surface[i:i + step].reshape(-1)
            yield np.repeat(times[i:i + step], nx, axis=0), xs[:v.size], v

    with atomic_write(path) as fh:
        fh.write(b"t,x,v\n")
        fh.writelines(format_tables(blocks()))


@dataclass(frozen=True, eq=False)
class FeynmanKacReport:
    v0: float
    y0: float
    gap: float
    relative_gap: float
    surface: np.ndarray

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in ("v0", "y0", "gap", "relative_gap")}


def feynman_kac_check(
    spec: ProblemSpec, grid1d: Grid1D, fbsde_grid: TimeGrid, sol: SolutionPaths
) -> FeynmanKacReport:
    """Gap between the grid value at (0, x0) and the particle value.

    The measure flow fed to the grid solver is the one generated by the
    particle run, so both sides describe the same frozen law.  Raises
    :class:`GridError` when ``x0`` lies outside the grid box.
    """
    check_contains_x0(spec, grid1d)
    flow = flow_from_solution(fbsde_grid, sol)
    surface = solve_hjb(spec, grid1d, flow)
    v0 = float(np.interp(float(spec.x0[0]), grid1d.xs, surface[0]))
    y0 = sol.y0
    gap = abs(v0 - y0)
    return FeynmanKacReport(v0, y0, gap, gap / max(abs(y0), 1e-12), surface)
