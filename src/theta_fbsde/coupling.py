"""Fixed-point engine coupling the control, forward and backward stages.

Each sweep realizes the per-node feasible sets from the current law of the
value process, recomputes controls by pointwise maximization, simulates the
forward paths under them and then solves the backward equation along those
new paths, always on the same noise.  So the value and volatility of every
sweep are solved on the paths of the same sweep.  Successive iterates are
compared in a weighted norm whose decay diagnoses contraction.  When a sweep
reads its iterate only through the laws of the value process, the value
iterate is Anderson-mixed (depth 1) between sweeps.

When no component reads the law (the ``reads_law`` flag, see
:func:`_reads_law`), a sweep reads its iterate only through its controls.  A
sweep whose controls repeat the last sweep's bit for bit would then return
the current iterate bit for bit, so it is recorded with delta 0.0 and not
run.

Each spec object remembers its own last successful solve (weakly, see
:func:`picard_solve`), so checks that re-solve the problem they were handed
on the same noise reuse the solution their caller still holds.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import asdict, dataclass, field

import numpy as np

from .bsde import REGRESSION_DEGREE, solve_backward
from .errors import NoConvergenceError, NonContractionError, UsageError
from .measures import EmpiricalMeasure, check_array_size
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
    # per sweep: the Anderson coefficient of the step that followed it, 0.0
    # for a plain step or none
    mixing: list[float] = field(default_factory=list)

    @property
    def final_delta(self) -> float:
        return self.deltas[-1] if self.deltas else math.inf

    def copy(self) -> PicardReport:
        return PicardReport(**self.to_dict())

    def to_dict(self) -> dict:
        return asdict(self)


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


def _state_free(spec: ProblemSpec) -> bool:
    """Whether the driver's argmax reads the law but not the particle's state."""
    return getattr(spec.driver, "state_free_argmax", False)


def _reads_law(spec: ProblemSpec) -> bool:
    """Whether the drift, the volatility or the driver's value may read the law.

    A component declares ``reads_law = False`` to promise that it ignores its
    ``mu``; one without the attribute counts as reading it.  Terminal maps
    take no law, and the set's dependence on the law is seen in the controls.
    """
    return any(getattr(c, "reads_law", True) for c in (spec.drift, spec.volatility, spec.driver))


# A state-dependent control stage maximizes as many whole nodes per
# maximize_batch call as fit in this many elements: one call per stage at the
# sizes numpy's call overhead dominates, one node per call from 2**16
# particles on, so temporaries stay bounded.
_BLOCK_ELEMENTS = 2**16


def _controls_stage(
    spec: ProblemSpec,
    grid: TimeGrid,
    X: np.ndarray,
    Y: np.ndarray,
    Z: np.ndarray,
    laws: list[EmpiricalMeasure],
) -> tuple[np.ndarray, int]:
    """Pointwise argmax at every node and particle.

    Each node's set is realized from its own law.  Drivers whose argmax does
    not involve the state are solved once per node, and their controls are
    returned as a read-only view of one value per node broadcast over the
    particles.  Otherwise each block of whole nodes, as many as fit in
    ``_BLOCK_ELEMENTS`` particles, is solved in one :func:`maximize_batch`
    call: one set per node, times as a ``(b, 1)`` column, the block's rows of
    ``X``, ``Y`` and ``Z`` and no law (``mu=None``).  The tie count is of tied
    controls, so a tied state-free node counts once per particle.
    """
    ties = 0
    if _state_free(spec):
        A = np.empty(grid.n_nodes)
        for i, t in enumerate(grid.times):
            uset = spec.ambiguity.realize(laws[i])
            res = maximize_over(uset, spec.driver, DriverState(t=t, mu=laws[i]))
            A[i] = res.a_star
            ties += Y.shape[1] if res.tie_flag else 0
        return np.broadcast_to(A[:, None], Y.shape), ties
    A = np.empty(Y.shape)
    times = grid.times[:, None]
    nodes = max(1, _BLOCK_ELEMENTS // Y.shape[1])
    for i in range(0, grid.n_nodes, nodes):
        block = slice(i, i + nodes)
        usets = [spec.ambiguity.realize(law) for law in laws[block]]
        state = DriverState(t=times[block], x=X[block], y=Y[block], z=Z[block])
        A[block], tie = maximize_batch(usets, spec.driver, state)
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
    A: np.ndarray,
    laws: list[EmpiricalMeasure],
    increments: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forward paths under a control stage's controls and laws, then backward on them.

    Returns the new X, Y and Z.
    """
    X_new = simulate_forward(spec, grid, A, laws, increments)
    Y_new, Z_new = solve_backward(spec, grid, X_new, A, laws, increments)
    return X_new, Y_new, Z_new


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float64 arrays hold the same bytes, so ``-0.0`` differs from ``0.0``."""
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def _anderson_step(
    f: np.ndarray, r: np.ndarray, r_prev: np.ndarray | None, w: np.ndarray | None, contracting: bool
) -> tuple[float, np.ndarray | None]:
    """Depth-1 Anderson update of a sweep's output ``f`` into the next iterate, in place.

    ``r`` is the sweep's residual ``f - u``, ``r_prev`` the last sweep's (its
    buffer is overwritten) and ``w`` the last correction ``f_prev - u``, or
    None when that was zero.  The coefficient
    ``gamma = <r, r - r_prev> / |r - r_prev|^2`` makes ``f - gamma (f - f_prev)``
    the next iterate, where ``f - f_prev = r - w``.  The step is plain
    (``gamma = 0``) on the first sweep, when the last ratio was not below one,
    when ``r == r_prev`` or when ``gamma`` is not finite.  Returns ``gamma`` and
    the new correction.
    """
    gamma = 0.0
    if r_prev is not None and contracting:
        dr = np.subtract(r, r_prev, out=r_prev)
        # einsum, not vdot: OpenBLAS splits a long dot product across its
        # threads, so vdot's bits follow the thread count
        den = float(np.einsum("ij,ij->", dr, dr))
        if den > 0.0:
            gamma = float(np.einsum("ij,ij->", r, dr)) / den
    if gamma == 0.0 or not math.isfinite(gamma):
        return 0.0, None
    if w is None:
        w = gamma * r
    else:
        np.subtract(r, w, out=w)
        w *= gamma
    f -= w
    return gamma, w


# per spec object, its last successful solve: the key, a weak reference to
# the solution and a snapshot of the report
_held = weakref.WeakKeyDictionary()


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

    Each sweep runs its control stage first.  When no component reads the law,
    ``damping`` is 1, the last step was plain (``mixing[-1] == 0.0``) and the
    stage's controls equal the last stage's byte for byte, the forward and
    backward passes are not run: the sweep is recorded as the loop would
    record it (delta 0.0, ratio 0.0, mixing 0.0 and the stage's ties), and the
    current iterate is returned with that stage's laws and controls.

    The returned arrays (``times``, ``X``, ``Y``, ``Z``, ``A``) are read-only.
    A call with equal remaining arguments as the last successful solve of the
    same ``spec`` object returns that solve's :class:`SolutionPaths` object,
    with a fresh copy of its report, as long as some caller still holds the
    solution.  Each spec object keeps its own last solve, so solving another
    spec in between does not drop it.  The memo holds the spec and the
    solution by weak reference, so it keeps neither alive; spec arrays are
    read-only and spec callables must be pure, so the same spec object always
    poses the same problem.
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
    k = max(spec.state_dim, spec.noise_dim)
    check_array_size((grid.n_nodes, n_particles, k), "the particles' paths")

    key = (grid, n_particles, seed, tol, max_iter, beta, damping)
    held_key, sol_ref, held_report = _held.get(spec, (None, None, None))
    if held_key == key and (sol := sol_ref()) is not None:
        return sol, held_report.copy()

    increments = brownian_increments(seed, n_particles, grid.n_steps, spec.noise_dim, grid.dt)
    X, Y, Z = _initial_state(spec, grid, n_particles)
    report = PicardReport(beta=beta)
    state_free = _state_free(spec)
    # A state-free sweep reads its iterate only through the laws of Y, so Y
    # alone is the map's input and is mixed; r_prev and w are the last
    # residual and correction of Y.
    mix = damping == 1.0 and state_free
    r_prev = w = None
    # Without a law-reading component an undamped sweep reads its iterate only
    # through its controls.  After a plain step the iterate is the last sweep's
    # output, so a stage that repeats that sweep's controls (last, one value
    # per node when state-free) would return it again and is not run.
    skip = damping == 1.0 and not _reads_law(spec)
    last = None
    repeat = False

    for iteration in range(1, max_iter + 1):
        laws = _node_laws(Y)
        A, ties = _controls_stage(spec, grid, X, Y, Z, laws)
        report.tie_events += ties
        if skip:
            controls = A[:, 0] if state_free else A
            repeat = last is not None and report.mixing[-1] == 0.0 and _same_bits(controls, last)
            last = controls
        if repeat:
            delta = 0.0  # what the sweep's zero differences would give
        else:
            new = _sweep(spec, grid, A, laws, increments)
            laws = A = None
            # The old iterates are dead after the sweep (each law owns a copy
            # of its samples), so they become the undamped steps.
            for step, nxt in zip((X, Y, Z), new):
                np.subtract(nxt, step, out=step)
            delta = damping * weighted_delta(X, Y, Z, beta, grid.dt)
        report.iterations = iteration
        report.deltas.append(delta)
        report.mixing.append(0.0)
        if len(report.deltas) >= 2:
            prev = report.deltas[-2]
            report.ratios.append(delta / prev if prev > 0 else 0.0)

        if delta < tol:
            if not repeat:
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
        if mix:
            contracting = bool(report.ratios) and report.ratios[-1] < 1.0
            report.mixing[-1], w = _anderson_step(new[1], Y, r_prev, w, contracting)
            r_prev = Y
        else:
            # the damped iterate nxt - (1 - damping) * step, in place; at
            # damping 1 the new arrays pass through unchanged
            for step, nxt in zip((X, Y, Z), new):
                step *= 1.0 - damping
                nxt -= step
        X, Y, Z = new
    else:
        raise NoConvergenceError(
            f"no convergence within {max_iter} iterations (last delta {report.final_delta:.3e})",
            report=report,
        )

    if not repeat:
        # laws and controls of the returned state; a repeated stage's are its own
        laws = _node_laws(Y)
        A, _ = _controls_stage(spec, grid, X, Y, Z, laws)
    times = grid.times
    for arr in (times, X, Y, Z, A):
        arr.flags.writeable = False
    sol = SolutionPaths(times=times, X=X, Y=Y, Z=Z, A=A, measures=tuple(laws))
    _held[spec] = (key, weakref.ref(sol), report.copy())
    return sol, report
