"""Empirical measures on the real line.

A measure is a uniformly weighted sample cloud stored sorted ascending, which
makes the quadratic-cost optimal transport distance an order-statistics
computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UsageError


def frozen_copy(value, ndmin: int = 0) -> np.ndarray:
    """A read-only float copy of ``value`` with at least ``ndmin`` dimensions."""
    arr = np.array(value, dtype=float, ndmin=ndmin)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Uniform-weight sample cloud, sorted ascending at construction."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.sort(np.asarray(self.samples, dtype=float).ravel())
        if arr.size == 0:
            raise UsageError("an empirical measure needs at least one sample")
        if not np.all(np.isfinite(arr)):
            raise UsageError("empirical measure samples must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    @property
    def size(self) -> int:
        return int(self.samples.size)

    @cached_property
    def _moments(self) -> tuple[float, float]:
        # computed on first use and kept: the control stage and the grid
        # solver realize the same law's set, and may do so more than once
        return float(np.mean(self.samples)), float(np.std(self.samples))

    def __repr__(self) -> str:  # keep reprs short for large clouds
        if self.size <= 6:
            body = ", ".join(f"{s:g}" for s in self.samples)
        else:
            body = f"n={self.size}, mean={float(np.mean(self.samples)):.6g}"
        return f"EmpiricalMeasure({body})"


def w2(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Exact 2-Wasserstein distance between equal-size clouds.

    On the line the optimal coupling matches order statistics, so the distance
    is the root mean square gap of the sorted samples.  Unequal sizes are
    rejected; the solver only ever compares equal-size particle clouds.
    """
    if mu.size != nu.size:
        raise UsageError(
            f"sample counts differ ({mu.size} vs {nu.size}); resampling is unsupported"
        )
    return float(np.sqrt(np.mean((mu.samples - nu.samples) ** 2)))


def moments(mu: EmpiricalMeasure) -> tuple[float, float]:
    """Population mean and standard deviation (divide by n) of the sorted samples.

    Computed once per measure and kept, so asking again costs nothing.
    """
    return mu._moments
