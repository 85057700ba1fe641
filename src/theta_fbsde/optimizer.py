"""Pointwise strongly concave maximization over an interval union.

Under the declared concavity modulus the control derivative of the objective
is strictly decreasing, so each interval holds at most one stationary point.
A driver that knows its unconstrained maximizer in closed form exposes it as
``stationary_control(state)``; the maximizer on an interval is then that point
clipped to the interval.  Both built-in families do: ``w0`` for the
quadratic penalty, and for the quartic the one real root of its stationarity
cubic (hyperbolic cubic formula plus one Newton step, within
``2 * _DERIV_TOL / (lam - gamma)`` of the bracketed Newton root).  Any other
driver, :class:`GenericDriver` among them, runs a Newton iteration bracketed
by bisection, with endpoint derivative signs deciding clamping before any
iteration starts; it checks the second derivative's sign at every step.
Either way the per-interval candidates go through one comparison and tie rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConcavityError, ParameterError, UsageError
from .measures import EmpiricalMeasure, frozen_copy, w2
from .uncertainty import AmbiguityMap, IntervalUnion


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
class ZeroF0:
    """f0 = 0."""

    lipschitz = 0.0

    def __call__(self, y):
        return 0.0 * y


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
    f0: ZeroF0 | LinearF0 | TableF0 = field(default_factory=ZeroF0)

    state_free_argmax = True

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

    state_free_argmax = False

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
    particle and grid solvers all three receive array states in the layout
    :func:`solve_backward` passes to ``value``: ``x`` of shape (n, k), ``y``
    and ``a`` of shape (n,), ``z`` of shape (n, d).
    """

    value_fn: Callable
    d_da_fn: Callable
    d2_da2_fn: Callable
    kappa: float
    state_free_argmax: bool = False

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


@dataclass(frozen=True)
class OptimizerResult:
    a_star: float
    value: float
    active_boundary: str          # "interior" | "lower" | "upper" | "point"
    tie_flag: bool
    interval_index: int
    derivative_residual: float


_MAX_ITER = 200
_DERIV_TOL = 1e-12
_TIE_TOL = 1e-12


def _argmax_on_interval(driver, state, lo, hi):
    """Maximizer of a -> F(state, a) on [lo, hi].

    Returns (a, boundary, derivative).  The derivative is strictly decreasing,
    so its signs at the endpoints decide clamping and bracket the root.
    """

    def grad(a):
        g2 = driver.d2_da2(state, a)
        if not g2 < 0.0:
            raise ConcavityError(
                f"second control derivative {g2} is not negative at a={a}",
                witness=(state, a),
            )
        return driver.d_da(state, a), g2

    g_lo, _ = grad(lo)
    if g_lo <= 0.0:
        return lo, "lower", g_lo
    g_hi, _ = grad(hi)
    if g_hi >= 0.0:
        return hi, "upper", g_hi

    a_lo, a_hi = lo, hi
    a = 0.5 * (lo + hi)
    g = math.nan
    for _ in range(_MAX_ITER):
        g, g2 = grad(a)
        if abs(g) <= _DERIV_TOL:
            break
        if g > 0.0:
            a_lo = a
        else:
            a_hi = a
        if a_hi - a_lo <= 4.0 * math.ulp(max(1.0, abs(a_lo), abs(a_hi))):
            break
        step = a - g / g2
        a = step if (a_lo < step < a_hi and math.isfinite(step)) else 0.5 * (a_lo + a_hi)
    return a, "interior", g


def _clipped(s, lo, hi):
    """The concave maximizer on [lo, hi] given the unconstrained one ``s``."""
    if s <= lo:
        return lo, "lower"
    if s >= hi:
        return hi, "upper"
    return s, "interior"


def maximize_over(uset: IntervalUnion, driver, state: DriverState) -> OptimizerResult:
    """Constrained argmax of the driver at one state point.

    Per-interval candidates are compared with an absolute tie tolerance; ties
    resolve toward the smaller control and raise the tie flag.
    """
    stationary = getattr(driver, "stationary_control", None)
    s = None if stationary is None else stationary(state)
    best: OptimizerResult | None = None
    tie = False
    for idx, (lo, hi) in enumerate(uset.intervals):
        if lo == hi:
            a, boundary, resid = lo, "point", 0.0
        elif s is None:
            a, boundary, resid = _argmax_on_interval(driver, state, lo, hi)
        else:
            a, boundary = _clipped(s, lo, hi)
            resid = driver.d_da(state, a)
        val = float(driver.value(state, a))
        if best is None or val > best.value + _TIE_TOL:
            best = OptimizerResult(a, val, boundary, False, idx, abs(resid))
            tie = False
        elif val >= best.value - _TIE_TOL and a != best.a_star:
            tie = True  # candidates are visited in increasing a, keep the earlier one
    assert best is not None
    if tie:
        best = OptimizerResult(
            best.a_star, best.value, best.active_boundary, True, best.interval_index,
            best.derivative_residual,
        )
    return best


def _newton_batch(driver, state: DriverState, shape, lo, hi) -> np.ndarray:
    """Element-wise :func:`_argmax_on_interval` on ``lo < hi``, under an active mask."""

    def grad(a, mask):
        g2 = np.broadcast_to(driver.d2_da2(state, a), shape)
        bad = np.flatnonzero(mask & ~(g2 < 0.0))
        if bad.size:  # witness: the first failing element, as a one-point state
            k = np.unravel_index(bad[0], shape)
            x, y, z = (v if np.ndim(v) < len(shape) else np.asarray(v)[k] for v in state[1:4])
            msg = f"second control derivative {g2[k]} is not negative at a={a[k]}"
            raise ConcavityError(msg, witness=(state._replace(x=x, y=y, z=z), float(a[k])))
        return driver.d_da(state, a), g2

    a = np.full(shape, lo)
    active = grad(a, np.ones(shape, bool))[0] > 0.0
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


def maximize_batch(uset: IntervalUnion, driver, state: DriverState) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise :func:`maximize_over` on one set: arrays ``(a_star, tie_flag)``.

    The batch has the shape of ``state.y``; ``x`` and ``z`` carry it as leading
    axes.  Each element runs the scalar path's floating-point operations (the
    clip of the stationary control, or Newton under an active mask), so
    controls and tie flags equal the scalar ones bit for bit.
    """
    shape = np.shape(state.y)
    stationary = getattr(driver, "stationary_control", None)
    s = None if stationary is None else np.broadcast_to(stationary(state), shape)
    best_a = best_val = tie = None
    for lo, hi in uset.intervals:
        if lo == hi:
            a = np.full(shape, lo)
        elif s is None:
            a = _newton_batch(driver, state, shape, lo, hi)
        else:
            a = np.where(s <= lo, lo, np.where(s >= hi, hi, s))
        val = np.broadcast_to(driver.value(state, a), shape)
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


def envelope_derivative(driver, y: float, control_set: IntervalUnion | None = None) -> float:
    """d/dy of the optimized quartic driver.

    Differentiating through the maximizer leaves only the explicit y
    dependence of the anchor term: lam * (a*(y) - y).
    """
    if not isinstance(driver, QuarticDriver):
        raise UsageError("the envelope derivative is available for the quartic family only")
    uset = control_set if control_set is not None else unconstrained_interval(driver, y)
    res = maximize_over(uset, driver, DriverState(y=y))
    if res.active_boundary != "interior":
        raise UsageError("envelope derivative needs an interior maximizer; widen the control set")
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


def numeric_second_derivative(
    driver, uset: IntervalUnion | None = None, y: float = 0.0, h: float = 1e-3
) -> float:
    """Central second difference of the optimized driver in y."""
    if uset is None:
        if not isinstance(driver, QuarticDriver):
            raise UsageError("pass a control set for non-quartic families")
        uset = unconstrained_interval(driver, abs(y) + h)

    def g(yy: float) -> float:
        return driver_sup(uset, driver, DriverState(y=yy))

    return (g(y + h) - 2.0 * g(y) + g(y - h)) / (h * h)


# ---------------------------------------------------------------------------
# audits and probes


@dataclass(frozen=True)
class ConcavityAudit:
    min_modulus: float            # smallest observed -d2F/da2
    passed: bool
    witness: tuple | None         # (state, control) at the worst point when failing


def concavity_audit(
    driver,
    n_samples: int = 1000,
    *,
    control_range: tuple[float, float] = (-5.0, 5.0),
    y_range: tuple[float, float] = (-5.0, 5.0),
    seed: int = 0,
) -> ConcavityAudit:
    """Sample states and controls and verify the declared concavity modulus.

    The control sample always includes 0 and the range endpoints, where the
    quartic family attains its modulus.
    """
    rng = np.random.default_rng(seed)
    controls = np.concatenate(
        ([0.0, control_range[0], control_range[1]], rng.uniform(*control_range, n_samples))
    )
    ys = np.concatenate(([0.0, y_range[0], y_range[1]], rng.uniform(*y_range, n_samples)))
    min_modulus = math.inf
    witness = None
    for a, y in zip(controls, ys):
        modulus = -float(driver.d2_da2(DriverState(y=float(y)), float(a)))
        if modulus < min_modulus:
            min_modulus = modulus
            witness = (DriverState(y=float(y)), float(a))
    passed = min_modulus >= driver.kappa - 1e-9
    return ConcavityAudit(min_modulus, passed, None if passed else witness)


@dataclass(frozen=True)
class LipschitzProbe:
    max_ratio: float
    excluded: int
    pairs_used: int


def _state_distance(p1: DriverState, p2: DriverState) -> float:
    d = abs(float(p1.y) - float(p2.y))
    if p1.x is not None and p2.x is not None:
        d += float(np.linalg.norm(np.asarray(p1.x, float) - np.asarray(p2.x, float)))
    if p1.z is not None and p2.z is not None:
        d += float(np.linalg.norm(np.asarray(p1.z, float) - np.asarray(p2.z, float)))
    if p1.mu is not None and p2.mu is not None:
        d += w2(p1.mu, p2.mu)
    return d


def _midpoint_state(p1: DriverState, p2: DriverState) -> DriverState:
    def avg(a, b):
        if a is None or b is None:
            return None
        return 0.5 * (np.asarray(a, float) + np.asarray(b, float))

    mu = None
    if p1.mu is not None and p2.mu is not None and p1.mu.size == p2.mu.size:
        mu = EmpiricalMeasure(0.5 * (p1.mu.samples + p2.mu.samples))
    return DriverState(
        t=0.5 * (p1.t + p2.t), x=avg(p1.x, p2.x), y=0.5 * (float(p1.y) + float(p2.y)),
        z=avg(p1.z, p2.z), mu=mu,
    )


def lipschitz_probe(
    ambiguity: AmbiguityMap,
    driver,
    sampler: Callable[[np.random.Generator], DriverState],
    n_pairs: int,
    *,
    seed: int = 0,
) -> LipschitzProbe:
    """Empirical Lipschitz ratio of the argmax map over sampled state pairs.

    Pairs are dropped and counted when a tie flag fires at either endpoint or
    at the segment midpoint, when the two optima land in different components
    of the union (the segment crossed the discontinuity set), or when the
    parameter distance vanishes.
    """
    rng = np.random.default_rng(seed)
    max_ratio = 0.0
    excluded = 0
    used = 0
    for _ in range(n_pairs):
        p1 = sampler(rng)
        p2 = sampler(rng)
        denom = _state_distance(p1, p2)
        if denom == 0.0:
            excluded += 1
            continue
        u1 = ambiguity.realize(p1.mu) if p1.mu is not None else ambiguity.realize_at(
            ambiguity.theta_bounds[0]
        )
        u2 = ambiguity.realize(p2.mu) if p2.mu is not None else ambiguity.realize_at(
            ambiguity.theta_bounds[0]
        )
        r1 = maximize_over(u1, driver, p1)
        r2 = maximize_over(u2, driver, p2)
        mid = _midpoint_state(p1, p2)
        u_mid = ambiguity.realize(mid.mu) if mid.mu is not None else u1
        r_mid = maximize_over(u_mid, driver, mid)
        if r1.tie_flag or r2.tie_flag or r_mid.tie_flag or r1.interval_index != r2.interval_index:
            excluded += 1
            continue
        used += 1
        max_ratio = max(max_ratio, abs(r1.a_star - r2.a_star) / denom)
    return LipschitzProbe(max_ratio, excluded, used)
