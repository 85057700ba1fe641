"""Forward particle simulation of the controlled state equation.

The state follows an Euler scheme driven by Gaussian increments from
counter-based per-particle streams, so any particle batching, and runs over
nested horizons, see bit-identical noise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._atomic import atomic_write
from ._csv import format_once, format_tables, rows_once_if_repeated
from .errors import ConfigurationError, DivergenceError, UsageError
from .measures import EmpiricalMeasure, check_array_size, frozen_copy
from .uncertainty import AmbiguityMap


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``n_steps`` steps on [0, horizon]."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        if self.n_steps < 1:
            raise ConfigurationError(f"need at least one step, got {self.n_steps}")
        check_array_size((self.n_steps + 1,), "the time grid", ConfigurationError)

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_nodes)


# ---------------------------------------------------------------------------
# coefficient descriptors
#
# Array fields are copied at construction and made read-only, so a spec never
# changes after it is built (the fixed-point engine relies on that).


@dataclass(frozen=True, eq=False)
class AffineControlDrift:
    """b(t, x, w) = C0 - C1 (1 + 3 w) x with C1 symmetric."""

    C0: np.ndarray
    C1: np.ndarray

    reads_law = False

    def __post_init__(self):
        c0 = frozen_copy(self.C0, ndmin=1)
        c1 = frozen_copy(self.C1, ndmin=2)
        if c0.ndim != 1 or c1.shape != (c0.size, c0.size):
            raise ConfigurationError("C0 must be a vector and C1 a matching square matrix")
        if not (np.all(np.isfinite(c0)) and np.all(np.isfinite(c1))):
            raise ConfigurationError("drift coefficients must be finite")
        if not np.allclose(c1, c1.T, atol=1e-12):
            raise ConfigurationError("C1 must be symmetric")
        object.__setattr__(self, "C0", c0)
        object.__setattr__(self, "C1", c1)

    def __call__(self, t, x, a, mu):
        mult = 1.0 + 3.0 * np.asarray(a, dtype=float)
        # np.dot, not @: see simulate_forward
        return self.C0 - mult[..., None] * np.dot(x, self.C1)


@dataclass(frozen=True)
class CallableDrift:
    """Generic drift (t, x, a, mu) -> (n, k) with a declared Lipschitz bound."""

    fn: Callable
    lipschitz: float

    def __post_init__(self):
        if not math.isfinite(self.lipschitz):
            raise ConfigurationError("a finite Lipschitz bound must be declared for generic drift")

    def __call__(self, t, x, a, mu):
        return self.fn(t, x, a, mu)


@dataclass(frozen=True, eq=False)
class ConstantVolatility:
    """sigma(t, x, a, mu) = fixed (k, d) matrix."""

    matrix: np.ndarray

    reads_law = False

    def __post_init__(self):
        m = frozen_copy(self.matrix, ndmin=2)
        if not np.all(np.isfinite(m)):
            raise ConfigurationError("volatility matrix must be finite")
        object.__setattr__(self, "matrix", m)

    @property
    def noise_dim(self) -> int:
        return int(self.matrix.shape[1])

    def __call__(self, t, x, a, mu):
        return self.matrix


@dataclass(frozen=True)
class CallableVolatility:
    """Generic volatility (t, x, a, mu) -> (n, k, d) with a declared bound."""

    fn: Callable
    lipschitz: float
    noise_dim: int

    def __post_init__(self):
        if not math.isfinite(self.lipschitz):
            raise ConfigurationError("a finite Lipschitz bound must be declared for generic volatility")
        if isinstance(self.noise_dim, bool) or not isinstance(self.noise_dim, numbers.Integral):
            raise ConfigurationError(f"noise dimension must be an integer, got {self.noise_dim!r}")
        if self.noise_dim < 1:
            raise ConfigurationError("noise dimension must be at least 1")

    def __call__(self, t, x, a, mu):
        return self.fn(t, x, a, mu)


@dataclass(frozen=True, eq=False)
class LinearTerminal:
    """phi(x) = coeffs . x"""

    coeffs: np.ndarray

    def __post_init__(self):
        c = frozen_copy(self.coeffs, ndmin=1)
        if not np.all(np.isfinite(c)):
            raise ConfigurationError("terminal coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def lipschitz(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __call__(self, x):
        # np.dot, not @: see simulate_forward
        return np.dot(x, self.coeffs)


@dataclass(frozen=True)
class QuadraticTerminal:
    """phi(x) = |x|^2 (locally Lipschitz; fine on bounded clouds)."""

    def __call__(self, x):
        return np.sum(x * x, axis=-1)


@dataclass(frozen=True)
class CallableTerminal:
    fn: Callable

    def __call__(self, x):
        return self.fn(x)


@dataclass(frozen=True)
class ConstantTerminal:
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ConfigurationError(f"constant terminal value must be finite, got {self.value}")

    def __call__(self, x):
        return np.full(x.shape[:-1], float(self.value))


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Coefficient bundle of the coupled system; compared and hashed by identity."""

    horizon: float
    x0: np.ndarray
    drift: AffineControlDrift | CallableDrift
    volatility: ConstantVolatility | CallableVolatility
    driver: object
    terminal: object
    ambiguity: AmbiguityMap

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        x0 = frozen_copy(self.x0, ndmin=1)
        if x0.ndim != 1 or not np.all(np.isfinite(x0)):
            raise ConfigurationError("x0 must be a finite vector")
        object.__setattr__(self, "x0", x0)
        if isinstance(self.volatility, ConstantVolatility):
            shape = self.volatility.matrix.shape
            if len(shape) != 2 or shape[0] != x0.size or shape[1] < 1:
                raise ConfigurationError(
                    f"volatility matrix sigma must be (state_dim, d) = ({x0.size}, d) with d >= 1,"
                    f" got shape {shape}"
                )
        if isinstance(self.drift, AffineControlDrift) and self.drift.C0.size != x0.size:
            raise ConfigurationError("drift dimension does not match x0")
        if isinstance(self.terminal, LinearTerminal) and self.terminal.coeffs.size != x0.size:
            raise ConfigurationError(
                f"terminal coeffs have {self.terminal.coeffs.size} entries, x0 has {x0.size}"
            )

    @property
    def state_dim(self) -> int:
        return int(self.x0.size)

    @property
    def noise_dim(self) -> int:
        return int(self.volatility.noise_dim)

    def terminal_at_start(self) -> float:
        return float(np.asarray(self.terminal(self.x0[None, :])).ravel()[0])


# ---------------------------------------------------------------------------
# noise and forward integration


# (key, array) of the last noise draw, which solves of a new spec object on
# the same seed and grid (a shifted terminal, the convex hull) ask for again
_last_draw: tuple | None = None


def brownian_increments(
    seed: int, n_particles: int, n_steps: int, noise_dim: int, dt: float
) -> np.ndarray:
    """Increments of shape (n_steps, n_particles, noise_dim), scaled by sqrt(dt).

    Particle ``p`` draws from a Philox stream keyed by (seed, p) in step-major
    order, so any prefix of the horizon and any particle batching reproduce the
    same numbers.  The returned array is read-only: the last draw is kept and
    returned again for the same ``(seed, n_particles, n_steps, noise_dim, dt)``.
    """
    if not 0 <= int(seed) < 2**64:
        raise UsageError(f"seed must be an unsigned 64-bit integer, got {seed}")
    global _last_draw
    key = (seed, n_particles, n_steps, noise_dim, dt)
    if _last_draw is None or _last_draw[0] != key:
        out = _draw_increments(seed, n_particles, n_steps, noise_dim, dt)
        out.flags.writeable = False
        _last_draw = (key, out)
    return _last_draw[1]


def _draw_increments(
    seed: int, n_particles: int, n_steps: int, noise_dim: int, dt: float
) -> np.ndarray:
    """A fresh draw of :func:`brownian_increments`."""
    out = np.empty((n_steps, n_particles, noise_dim))
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    gen = np.random.Generator(bits)
    # a new Philox(key=(seed, p)) starts at a zero counter with an empty
    # buffer; resetting one bit generator to that state per particle draws
    # the same bits without building a generator per particle
    fresh = bits.state
    for p in range(n_particles):
        fresh["state"]["key"][1] = p
        bits.state = fresh
        out[:, p, :] = gen.standard_normal((n_steps, noise_dim))
    out *= math.sqrt(dt)
    return out


def _node_controls(controls, grid: TimeGrid, n: int) -> np.ndarray:
    """``controls`` as a float array, checked to hold one control per node and particle."""
    controls = np.asarray(controls, dtype=float)
    if controls.shape != (grid.n_nodes, n):
        raise UsageError(
            f"controls must be (n_nodes, n) = ({grid.n_nodes}, {n}), got {controls.shape}"
        )
    return controls


def check_horizon(grid: TimeGrid, horizon: float) -> None:
    """UsageError unless ``grid`` spans the problem ``horizon`` (to 1e-12 relative)."""
    if abs(grid.horizon - horizon) > 1e-12 * max(1.0, horizon):
        raise UsageError(f"grid horizon {grid.horizon} does not match the problem horizon {horizon}")


def simulate_forward(
    spec: ProblemSpec,
    grid: TimeGrid,
    controls: np.ndarray,
    laws: Sequence[EmpiricalMeasure | None],
    increments: np.ndarray,
) -> np.ndarray:
    """Euler paths of the state under given controls and measure flow.

    ``increments`` has shape (n_steps, n, noise_dim) and is already scaled by
    sqrt(dt), as :func:`brownian_increments` draws it; ``controls`` has shape
    (n_nodes, n), and its terminal row is unused.  Returns an (n_nodes, n, k)
    array.  The drift and the volatility are handed node i of that array as
    ``x`` and must not write into it.
    """
    check_horizon(grid, spec.horizon)
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 3 or increments.shape[::2] != (grid.n_steps, spec.noise_dim):
        raise UsageError(
            f"noise increments must be (n_steps, n, noise_dim) = ({grid.n_steps}, n,"
            f" {spec.noise_dim}), got {increments.shape}"
        )
    n = increments.shape[1]
    controls = _node_controls(controls, grid, n)

    k = spec.state_dim
    xs = np.empty((grid.n_nodes, n, k))
    xs[0] = spec.x0
    times = grid.times
    for i in range(grid.n_steps):
        x, x_next = xs[i], xs[i + 1]
        b = spec.drift(times[i], x, controls[i], laws[i])
        s = spec.volatility(times[i], x, controls[i], laws[i])
        if np.ndim(s) == 2:
            # np.dot, not @: numpy's matmul skips BLAS when the contracted
            # axis has length 1 (k = d = 1) and runs about 9x slower at 1e4
            # rows; np.dot gives the same bits
            diffusion = np.dot(increments[i], np.asarray(s).T)
        else:
            diffusion = np.einsum("nkd,nd->nk", np.asarray(s), increments[i])
        # b dt, then + x, then + diffusion: the bits of x + b dt + diffusion,
        # written in node i + 1 without a fresh array
        np.multiply(np.asarray(b), grid.dt, out=x_next)
        x_next += x
        x_next += diffusion
        if not np.all(np.isfinite(x_next)):
            raise DivergenceError("state became non-finite", node=i + 1)
    return xs


# ---------------------------------------------------------------------------
# assembled solutions


@dataclass(frozen=True, eq=False)
class SolutionPaths:
    """Node-by-particle arrays of the solution plus per-node value laws."""

    times: np.ndarray              # (n_nodes,)
    X: np.ndarray                  # (n_nodes, n, k)
    Y: np.ndarray                  # (n_nodes, n)
    Z: np.ndarray                  # (n_nodes, n, d)
    A: np.ndarray                  # (n_nodes, n)
    measures: tuple[EmpiricalMeasure, ...]

    def __post_init__(self):
        n_nodes, n, _ = self.X.shape
        if self.Y.shape != (n_nodes, n) or self.A.shape != (n_nodes, n):
            raise ConfigurationError("Y and A must be (n_nodes, n) arrays")
        if self.Z.shape[:2] != (n_nodes, n):
            raise ConfigurationError("Z must be an (n_nodes, n, d) array")
        if self.times.shape != (n_nodes,) or len(self.measures) != n_nodes:
            raise ConfigurationError("times and measures must cover every node")

    @property
    def n_particles(self) -> int:
        return int(self.X.shape[1])

    @property
    def y0(self) -> float:
        return float(np.mean(self.Y[0]))


def write_paths_csv(path, sol: SolutionPaths) -> None:
    """Dump paths as CSV with columns t, particle, X_1..X_k, Y, Z_1..Z_d, A.

    Every number is printed as ``'%.17g' % x`` prints it (the particle index
    as the integer it is), so identical runs produce byte-identical files.
    Only X, Y and Z, and A where it varies across particles, are printed cell
    by cell, by the vectorized formatter of ``_csv.format_tables``, one block
    per node.  Text that repeats is printed once and copied: the particle
    column once per file, each node's t once per node, and a node's A once
    when every particle holds the same bits (a state-free driver's control).
    The file is written atomically; a cell that is not a real number raises
    TypeError and leaves the previous file in place.
    """
    k = sol.X.shape[2]
    d = sol.Z.shape[2]
    header = (
        ["t", "particle"]
        + [f"X_{j + 1}" for j in range(k)]
        + ["Y"]
        + [f"Z_{j + 1}" for j in range(d)]
        + ["A"]
    )
    particle = format_once(np.arange(sol.n_particles, dtype=float))
    times = format_once(sol.times)
    nodes = (
        (times[i:i + 1], particle, np.column_stack([sol.X[i], sol.Y[i], sol.Z[i]]), a)
        for i, a in enumerate(rows_once_if_repeated(sol.A))
    )
    with atomic_write(path) as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(format_tables(nodes))
