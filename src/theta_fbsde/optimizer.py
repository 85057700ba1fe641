"""Pointwise strongly concave maximization over an interval union.

Under the declared concavity modulus the control derivative of the objective
is strictly decreasing, so each interval holds at most one stationary point.
A driver that knows its unconstrained maximizer in closed form exposes it as
``stationary_control(state)``; the maximizer on an interval is then that point
clipped to the interval.  Both built-in families do: ``w0`` for the
quadratic penalty, and for the quartic the one real root of its stationarity
cubic (hyperbolic cubic formula plus one Newton step, within
``2 * _DERIV_TOL / (lam - gamma)`` of the bracketed Newton root).  Any other
driver, :class:`GenericDriver` among them, runs one Newton iteration bracketed
by bisection, with endpoint derivative signs deciding clamping before any
iteration starts; it checks the second derivative's sign at every step.  A
point interval is its endpoint either way: the clip returns it, and Newton
starts there and never checks it.  The scalar and the batched argmax share that
iteration (the scalar one at shape ``()``) and one comparison and tie rule for
the per-interval candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConcavityError, ParameterError, UsageError
from .measures import frozen_copy
from .uncertainty import IntervalUnion


class DriverState(NamedTuple):
    """Evaluation point of a driver; array-valued fields broadcast."""

    t: float = 0.0
    x: object = None
    y: object = 0.0
    z: object = None
    mu: object = None


# ---------------------------------------------------------------------------
# f0 term of the quadratic-penalty family


@dataclass(frozen=True)
class LinearF0:
    """f0(y) = slope * y."""

    slope: float

    def __post_init__(self):
        if not math.isfinite(self.slope):
            raise ParameterError(f"slope must be finite, got {self.slope}")

    @property
    def lipschitz(self) -> float:
        return abs(self.slope)

    def __call__(self, y):
        return self.slope * y


@dataclass(frozen=True, eq=False)
class TableF0:
    """Piecewise-linear interpolation of tabulated values, clamped outside.

    Clamped extrapolation keeps the map globally Lipschitz with constant equal
    to the steepest table slope.  Both tables are stored as read-only copies.
    """

    ys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ys = frozen_copy(self.ys)
        vals = frozen_copy(self.values)
        if ys.ndim != 1 or ys.size < 2 or vals.shape != ys.shape:
            raise ParameterError("table needs matching 1-d arrays with at least two knots")
        if not (np.all(np.isfinite(ys)) and np.all(np.isfinite(vals))):
            raise ParameterError("table knots and values must be finite")
        if not np.all(np.diff(ys) > 0):
            raise ParameterError("table knots must be strictly increasing")
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "values", vals)

    @property
    def lipschitz(self) -> float:
        return float(np.max(np.abs(np.diff(self.values) / np.diff(self.ys))))

    def __call__(self, y):
        return np.interp(y, self.ys, self.values)


# ---------------------------------------------------------------------------
# driver families


@dataclass(frozen=True)
class QuadraticPenaltyDriver:
    """F = f0(y) - kappa/2 (a - w0)^2.

    The control enters only through the penalty, so the argmax over any
    feasible set is the projection of ``w0`` and does not depend on the state.
    """

    kappa: float
    w0: float
    f0: LinearF0 | TableF0 = LinearF0(0.0)

    state_free_argmax = True
    reads_law = False

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ParameterError(f"kappa must be finite and positive, got {self.kappa}")
        if not math.isfinite(self.w0):
            raise ParameterError(f"w0 must be finite, got {self.w0}")

    def value(self, state: DriverState, a):
        return self.f0(state.y) - 0.5 * self.kappa * (a - self.w0) ** 2

    def d_da(self, state: DriverState, a):
        return -self.kappa * (a - self.w0)

    def d2_da2(self, state: DriverState, a):
        return -self.kappa + 0.0 * a

    def stationary_control(self, state: DriverState):
        """Unconstrained maximizer: ``w0`` at every state."""
        return self.w0


@dataclass(frozen=True)
class QuarticDriver:
    """F = gamma/4 - gamma/4 (a^2 - 1)^2 - lam/2 (a - y)^2 with lam > gamma > 0.

    A double-well term plus a quadratic anchor to the value variable.  The
    control Hessian is -gamma (3 a^2 - 1) - lam <= -(lam - gamma), so the
    family is uniformly strongly concave even though its optimized value turns
    locally convex in y.
    """

    lam: float
    gamma: float

    reads_law = False

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > self.gamma > 0.0):
            raise ParameterError(
                f"need finite lam > gamma > 0, got lam={self.lam}, gamma={self.gamma}"
            )

    @property
    def kappa(self) -> float:
        return self.lam - self.gamma

    def value(self, state: DriverState, a):
        w = a * a - 1.0
        return 0.25 * self.gamma - 0.25 * self.gamma * w * w - 0.5 * self.lam * (a - state.y) ** 2

    def d_da(self, state: DriverState, a):
        return -self.gamma * a * (a * a - 1.0) - self.lam * (a - state.y)

    def d2_da2(self, state: DriverState, a):
        return -self.gamma * (3.0 * a * a - 1.0) - self.lam

    def stationary_control(self, state: DriverState):
        """Unconstrained maximizer: the real root of gamma a^3 + (lam - gamma) a = lam y.

        With p = (lam - gamma) / gamma > 0 the cubic has one real root,
        2 sqrt(p/3) sinh(asinh(3 lam y / (2 gamma p) sqrt(3/p)) / 3), followed
        here by one Newton step.  numpy's ``arcsinh`` and ``sinh`` serve a
        scalar ``y`` too (``math.asinh`` and ``math.sinh`` round differently
        on some inputs), so a float gets the bits of the same array element;
        the rest of the scalar path stays in Python floats.
        """
        p = (self.lam - self.gamma) / self.gamma
        r = math.sqrt(p / 3.0)
        s = 2.0 * r * np.sinh(np.arcsinh(1.5 * self.lam / (self.gamma * p * r) * state.y) / 3.0)
        if s.ndim == 0:
            s = float(s)
        return s - self.d_da(state, s) / self.d2_da2(state, s)


@dataclass(frozen=True)
class GenericDriver:
    """User-supplied objective with explicit control derivatives.

    ``kappa`` declares the concavity modulus that :func:`concavity_audit`
    verifies by sampling.  Callables receive ``(state, a)``.  Inside the
    particle and grid solvers they receive array states.  The backward sweep
    passes ``value`` one node with its law: ``x`` of shape (n, k), ``y`` and
    ``a`` of shape (n,), ``z`` of shape (n, d).  The particle engine's argmax
    passes a block of b nodes: ``x`` (b, n, k), ``y`` and ``a`` (b, n), ``z``
    (b, n, d), ``t`` the (b, 1) column of node times and ``mu=None``; so
    callables should index the state's trailing axes (``s.x[..., 0]``).
    """

    value_fn: Callable
    d_da_fn: Callable
    d2_da2_fn: Callable
    kappa: float

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ParameterError(
                f"declared concavity modulus must be finite and positive, got {self.kappa}"
            )

    def value(self, state: DriverState, a):
        return self.value_fn(state, a)

    def d_da(self, state: DriverState, a):
        return self.d_da_fn(state, a)

    def d2_da2(self, state: DriverState, a):
        return self.d2_da2_fn(state, a)


# ---------------------------------------------------------------------------
# maximization


class OptimizerResult(NamedTuple):
    """Constrained argmax at one state and the interval of the union that holds it."""

    a_star: float
    value: float
    tie_flag: bool
    interval_index: int


_MAX_ITER = 200
_DERIV_TOL = 1e-12
_TIE_TOL = 1e-12


def _as_shape(v, shape):
    """``v`` broadcast to ``shape``; an array that already has it passes as is."""
    return v if getattr(v, "shape", None) == shape else np.broadcast_to(v, shape)


def _newton_batch(driver, state: DriverState, shape, lo, hi) -> np.ndarray:
    """Element-wise maximizer of a -> F(state, a) on [lo, hi], ``lo <= hi``, at ``shape``.

    The derivative is strictly decreasing, so its signs at the endpoints decide
    clamping and bracket the root; bracketed Newton then runs under an active
    mask.  An element with ``lo == hi`` keeps its endpoint: it is never active,
    and the driver's derivatives are evaluated there but not checked.  ``lo``
    and ``hi`` are floats or arrays that broadcast to ``shape``.  Returns an
    array of ``shape``, a 0-d one for ``shape == ()``.
    """

    def grad(a, mask):
        g2 = _as_shape(driver.d2_da2(state, a), shape)
        bad = np.flatnonzero(mask & ~(g2 < 0.0))
        if bad.size:  # witness: the first failing element, as a one-point state
            k = np.unravel_index(bad[0], shape)
            t = state.t if np.ndim(state.t) == 0 else float(np.broadcast_to(state.t, shape)[k])
            x, y, z = (v if np.ndim(v) < len(shape) else np.asarray(v)[k] for v in state[1:4])
            msg = f"second control derivative {g2[k]} is not negative at a={a[k]}"
            raise ConcavityError(msg, witness=(state._replace(t=t, x=x, y=y, z=z), float(a[k])))
        return driver.d_da(state, a), g2

    a = np.full(shape, lo)
    interval = np.broadcast_to(lo < hi, shape)
    active = interval & (grad(a, interval)[0] > 0.0)
    a_lo, a_hi = a, np.full(shape, hi)
    upper = active & (grad(a_hi, active)[0] >= 0.0)
    active &= ~upper
    a = np.where(upper, hi, np.where(active, 0.5 * (lo + hi), lo))
    for _ in range(_MAX_ITER):
        if not active.any():
            break
        g, g2 = grad(a, active)
        active &= ~(np.abs(g) <= _DERIV_TOL)
        a_lo = np.where(active & (g > 0.0), a, a_lo)
        a_hi = np.where(active & ~(g > 0.0), a, a_hi)
        ulp4 = 4.0 * np.spacing(np.maximum(np.maximum(np.abs(a_lo), np.abs(a_hi)), 1.0))
        active &= ~(a_hi - a_lo <= ulp4)
        with np.errstate(all="ignore"):
            step = a - g / g2
        inside = (a_lo < step) & (step < a_hi) & np.isfinite(step)
        a = np.where(active, np.where(inside, step, 0.5 * (a_lo + a_hi)), a)
    return a


def maximize_over(uset: IntervalUnion, driver, state: DriverState) -> OptimizerResult:
    """Constrained argmax of the driver at one state point.

    Each interval's candidate is the clipped stationary control when the
    driver has one, else :func:`_newton_batch` at shape ``()``, the kernel
    :func:`maximize_batch` runs.  Per-interval candidates are compared with an
    absolute tie tolerance; ties resolve toward the smaller control and raise
    the tie flag.
    """
    stationary = getattr(driver, "stationary_control", None)
    s = None if stationary is None else stationary(state)
    best_a = best_val = None
    best_idx, tie = 0, False
    for idx, (lo, hi) in enumerate(uset.intervals):
        if s is None:
            a = _newton_batch(driver, state, (), lo, hi)
        else:
            a = lo if s <= lo else hi if s >= hi else s
        val = float(driver.value(state, a))
        if best_val is None or val > best_val + _TIE_TOL:
            best_a, best_val, best_idx, tie = float(a), val, idx, False
        elif val >= best_val - _TIE_TOL and a != best_a:
            tie = True  # candidates are visited in increasing a, keep the earlier one
    return OptimizerResult(best_a, best_val, tie, best_idx)


def _endpoint_columns(usets, shape) -> list[tuple]:
    """``(lo, hi)`` per interval of one set per leading index of ``shape``.

    ``lo`` and ``hi`` are ``(b, 1, ...)`` columns that broadcast to ``shape``.
    """
    counts = {len(u.intervals) for u in usets}
    if len(shape) == 0 or len(usets) != shape[0] or len(counts) != 1:
        raise UsageError(
            "need one set per leading index of the batch, all with the same number of intervals"
        )
    ends = np.array([u.intervals for u in usets])  # (b, intervals, 2)
    column = (len(usets),) + (1,) * (len(shape) - 1)
    return [(lo.reshape(column), hi.reshape(column)) for lo, hi in ends.transpose(1, 2, 0)]


def maximize_batch(uset, driver, state: DriverState) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise :func:`maximize_over`: arrays ``(a_star, tie_flag)``.

    The batch has the shape of ``state.y``; ``x`` and ``z`` carry it as leading
    axes, and ``t`` is a scalar or broadcasts to it.  ``uset`` is one
    :class:`IntervalUnion` for the whole batch, or a sequence of them, one per
    leading index, all with the same number of intervals (the sets one
    :class:`AmbiguityMap` realizes have).  Each element runs the scalar path's
    floating-point operations on its own set's endpoints (the clip of the
    stationary control, or :func:`_newton_batch`), so controls and tie flags
    equal the scalar ones bit for bit.
    """
    shape = np.shape(state.y)
    pairs = uset.intervals if isinstance(uset, IntervalUnion) else _endpoint_columns(uset, shape)
    stationary = getattr(driver, "stationary_control", None)
    s = None if stationary is None else _as_shape(stationary(state), shape)
    best_a = best_val = tie = None
    for lo, hi in pairs:
        if s is None:
            a = _newton_batch(driver, state, shape, lo, hi)
        else:
            a = np.where(s <= lo, lo, np.where(s >= hi, hi, s))
        val = _as_shape(driver.value(state, a), shape)
        if best_a is None:
            best_a, best_val, tie = a, val, np.zeros(shape, bool)
            continue
        better = val > best_val + _TIE_TOL
        tie = ~better & (tie | ((val >= best_val - _TIE_TOL) & (a != best_a)))
        best_a, best_val = np.where(better, a, best_a), np.where(better, val, best_val)
    return best_a, tie


def driver_sup(uset: IntervalUnion, driver, state: DriverState) -> float:
    """Optimized driver: the objective evaluated at its constrained argmax."""
    return maximize_over(uset, driver, state).value


def unconstrained_interval(driver: "QuarticDriver", y: float) -> IntervalUnion:
    """Interval wide enough that the quartic argmax is interior.

    From the stationarity condition, |a*| <= max(1, cbrt(lam |y| / gamma)).
    """
    r = 2.0 * (1.0 + max(1.0, (driver.lam * abs(y) / driver.gamma) ** (1.0 / 3.0)))
    return IntervalUnion(((-r, r),))


def envelope_derivative(driver, y: float) -> float:
    """d/dy of the optimized quartic driver.

    Differentiating through the maximizer leaves only the explicit y
    dependence of the anchor term: lam * (a*(y) - y).  The maximizer is taken
    over :func:`unconstrained_interval`, where it is interior.
    """
    if not isinstance(driver, QuarticDriver):
        raise UsageError("the envelope derivative is available for the quartic family only")
    res = maximize_over(unconstrained_interval(driver, y), driver, DriverState(y=y))
    return driver.lam * (res.a_star - y)


def second_derivative_at_zero(driver) -> float:
    """Curvature of the optimized quartic driver at y = 0.

    Implicit differentiation of the stationarity condition gives
    lam * gamma / (lam - gamma), strictly positive on the admissible range.
    """
    if not isinstance(driver, QuarticDriver):
        raise UsageError("curvature formula is available for the quartic family only")
    if not driver.lam > driver.gamma:
        raise ParameterError("curvature at zero requires lam > gamma")
    return driver.lam * driver.gamma / (driver.lam - driver.gamma)


def numeric_second_derivative(driver) -> float:
    """Central second difference of the optimized quartic driver at y = 0, step 1e-3."""
    if not isinstance(driver, QuarticDriver):
        raise UsageError("the numeric curvature is available for the quartic family only")
    h = 1e-3
    uset = unconstrained_interval(driver, h)

    def g(y: float) -> float:
        return driver_sup(uset, driver, DriverState(y=y))

    return (g(h) - 2.0 * g(0.0) + g(-h)) / (h * h)


# ---------------------------------------------------------------------------
# audits


@dataclass(frozen=True)
class ConcavityAudit:
    min_modulus: float            # smallest observed -d2F/da2
    passed: bool
    witness: tuple | None         # (state, control) at the worst point when failing


def concavity_audit(
    driver, *, control_range: tuple[float, float] = (-5.0, 5.0)
) -> ConcavityAudit:
    """Sample states and controls and verify the declared concavity modulus.

    Draws 1000 controls from ``control_range`` and 1000 values y from
    [-5, 5] with seed 0.  The control sample always includes 0 and the range
    endpoints, where the quartic family attains its modulus.  All samples go
    to ``d2_da2`` in one call on arrays; a NaN second derivative fails the
    audit and is its witness.
    """
    rng = np.random.default_rng(0)
    controls = np.concatenate(
        ([0.0, control_range[0], control_range[1]], rng.uniform(*control_range, 1000))
    )
    ys = np.concatenate(([0.0, -5.0, 5.0], rng.uniform(-5.0, 5.0, 1000)))
    modulus = -np.broadcast_to(driver.d2_da2(DriverState(y=ys), controls), ys.shape)
    worst = int(np.argmin(modulus))  # the first NaN if there is one, as np.min returns NaN
    min_modulus = float(np.min(modulus))
    passed = min_modulus >= driver.kappa - 1e-9
    witness = (DriverState(y=float(ys[worst])), float(controls[worst]))
    return ConcavityAudit(min_modulus, passed, None if passed else witness)
