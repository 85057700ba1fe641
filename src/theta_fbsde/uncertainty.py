"""Non-convex control-feasible sets: finite unions of disjoint closed intervals.

The feasible set may depend on the law of the value process through a scalar
ambiguity parameter; :class:`AmbiguityMap` carries that dependence and realizes
a concrete :class:`IntervalUnion` for a given law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .measures import EmpiricalMeasure


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted union of disjoint closed intervals on the real line.

    Degenerate intervals (single points) are allowed.  Endpoints must be
    finite, each pair ordered, and consecutive intervals strictly disjoint.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pairs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        if not pairs:
            raise ConfigurationError("an interval union needs at least one interval")
        for lo, hi in pairs:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigurationError(f"interval endpoints must be finite, got [{lo}, {hi}]")
            if lo > hi:
                raise ConfigurationError(f"interval [{lo}, {hi}] has lo > hi")
        for (_, hi), (lo_next, _) in zip(pairs, pairs[1:]):
            if not hi < lo_next:
                raise ConfigurationError(
                    f"intervals must be sorted and strictly disjoint ({hi} meets {lo_next})"
                )
        object.__setattr__(self, "intervals", pairs)

    @property
    def lower(self) -> float:
        return self.intervals[0][0]

    @property
    def upper(self) -> float:
        return self.intervals[-1][1]

    def contains(self, a: float) -> bool:
        """Membership, endpoints included."""
        return any(lo <= a <= hi for lo, hi in self.intervals)

    def distance_to(self, x: float) -> float:
        """Distance from ``x`` to the set."""
        return min(abs(min(max(x, lo), hi) - x) for lo, hi in self.intervals)

    def project_info(self, w0: float) -> tuple[float, bool]:
        """Nearest member to ``w0`` plus a flag for gap-equidistant ties.

        Ties are broken toward the smaller candidate; the flag lets callers
        exclude tie neighborhoods where the projection map is discontinuous.
        A tie here means exactly equal distances, which is not the solver's
        rule: ``optimizer.maximize_over`` on a ``QuadraticPenaltyDriver`` treats
        values within 1e-12 as tied and keeps the smaller control.  At
        ``w0 = 1e-13`` on ``[-2,-1] u [1,2]`` this returns ``(1.0, False)``
        while the argmax returns -1.0 with its tie flag set.  The solver does
        not call this method.
        """
        best = math.inf
        best_d = math.inf
        tie = False
        for lo, hi in self.intervals:
            cand = min(max(w0, lo), hi)
            d = abs(cand - w0)
            if d < best_d:
                best, best_d, tie = cand, d, False
            elif d == best_d and cand != best:
                tie = True
        return best, tie

    def project(self, w0: float) -> float:
        """Nearest member to ``w0`` (smaller value on exact ties; see :meth:`project_info`)."""
        return self.project_info(w0)[0]

    def convex_hull(self) -> "IntervalUnion":
        """Single interval spanning the set."""
        return IntervalUnion(((self.lower, self.upper),))


def hausdorff(a: IntervalUnion, b: IntervalUnion) -> float:
    """Exact Hausdorff distance between two interval unions.

    The directed distance ``sup_{x in a} d(x, b)`` is piecewise linear in x,
    so its maximum is attained either at an endpoint of ``a`` or at the
    midpoint of a gap of ``b`` that lies inside ``a``.  Evaluating only those
    candidates is therefore exact.
    """
    return max(_directed(a, b), _directed(b, a))


def _directed(a: IntervalUnion, b: IntervalUnion) -> float:
    candidates = [p for pair in a.intervals for p in pair]
    for (_, hi), (lo_next, _) in zip(b.intervals, b.intervals[1:]):
        mid = 0.5 * (hi + lo_next)
        if a.contains(mid):
            candidates.append(mid)
    return max(b.distance_to(x) for x in candidates)


@dataclass(frozen=True)
class AmbiguityMap:
    """Law-dependent feasible set: a base union with affine endpoint motion.

    The ambiguity parameter of a law is
    ``theta = clip(alpha * mean + beta * stddev, lo, hi)`` with
    ``(lo, hi) = theta_bounds``.  Mean and stddev are both 1-Lipschitz under
    the quadratic transport distance, so theta is Lipschitz in the law, and
    the clamp keeps it in a compact range.  Each endpoint moves as
    ``base + shift * theta``.  Affine motion keeps the family Lipschitz in
    theta with respect to the Hausdorff distance, and a disjointness violation
    anywhere in the theta range would already show at one of the two extremes,
    which the constructor builds.  When the map :attr:`is_static` (``lo == hi``,
    so theta is constant, or no shifts), :meth:`realize` returns the first of
    them, the same for every law, and reads no moments.
    """

    base: IntervalUnion
    endpoint_shifts: tuple[float, ...] = ()
    alpha: float = 0.0
    beta: float = 0.0
    theta_bounds: tuple[float, float] = (0.0, 0.0)
    _extremes: tuple[IntervalUnion, IntervalUnion] = field(init=False, repr=False, compare=False)
    _static: IntervalUnion | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        shifts = tuple(float(s) for s in self.endpoint_shifts)
        if not shifts:
            shifts = (0.0,) * (2 * len(self.base.intervals))
        if len(shifts) != 2 * len(self.base.intervals):
            raise ConfigurationError(
                f"need one shift per endpoint ({2 * len(self.base.intervals)}), got {len(shifts)}"
            )
        if not all(math.isfinite(s) for s in shifts):
            raise ConfigurationError("endpoint shifts must be finite")
        object.__setattr__(self, "endpoint_shifts", shifts)
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ConfigurationError(
                f"theta rule weights must be finite, got alpha={self.alpha}, beta={self.beta}"
            )
        lo, hi = (float(b) for b in self.theta_bounds)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigurationError("theta bounds must be finite")
        if lo > hi:
            raise ConfigurationError(f"theta bounds out of order: [{lo}, {hi}]")
        object.__setattr__(self, "theta_bounds", (lo, hi))
        object.__setattr__(self, "_extremes", (self.realize_at(lo), self.realize_at(hi)))
        if self.is_static:
            object.__setattr__(self, "_static", self._extremes[0])

    @property
    def is_static(self) -> bool:
        lo, hi = self.theta_bounds
        return lo == hi or all(s == 0.0 for s in self.endpoint_shifts)

    def realize_at(self, theta: float) -> IntervalUnion:
        """Set realized for one value of the ambiguity parameter."""
        shifted = []
        for (lo, hi), s_lo, s_hi in zip(
            self.base.intervals, self.endpoint_shifts[0::2], self.endpoint_shifts[1::2]
        ):
            shifted.append((lo + s_lo * theta, hi + s_hi * theta))
        try:
            return IntervalUnion(tuple(shifted))
        except ConfigurationError as exc:
            raise ConfigurationError(f"realized set invalid at theta={theta}: {exc}") from exc

    def realize(self, law: EmpiricalMeasure) -> IntervalUnion:
        """Set realized for the given law of the value process."""
        if self._static is not None:
            return self._static
        mean, std = law.moments
        lo, hi = self.theta_bounds
        return self.realize_at(min(max(self.alpha * mean + self.beta * std, lo), hi))

    def control_range(self) -> tuple[float, float]:
        """Extreme feasible controls over the whole theta range.

        Endpoints are affine in theta, so the extremes occur at the theta
        bounds.
        """
        return min(u.lower for u in self._extremes), max(u.upper for u in self._extremes)


def static_set(intervals) -> AmbiguityMap:
    """Ambiguity map with a fixed set and no law dependence."""
    return AmbiguityMap(base=IntervalUnion(tuple(intervals)))
