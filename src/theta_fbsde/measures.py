"""Empirical measures on the real line.

A measure is a uniformly weighted sample cloud, kept in the order it was
given.  Its mean and standard deviation do not depend on that order; the
quadratic-cost optimal transport distance sorts the two clouds it compares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UsageError


def frozen_copy(value, ndmin: int = 0) -> np.ndarray:
    """A read-only float copy of ``value`` with at least ``ndmin`` dimensions."""
    arr = np.array(value, dtype=float, ndmin=ndmin)
    arr.flags.writeable = False
    return arr


def check_array_size(shape, what: str, error: type = UsageError) -> None:
    """Raise ``error`` where a float64 array of ``shape`` needs more bytes than numpy indexes."""
    if math.prod(map(int, shape)) * 8 > np.iinfo(np.intp).max:
        raise error(
            f"{what} would need an array of shape {tuple(shape)}, more than numpy can index"
        )


@dataclass(frozen=True, eq=False)
class EmpiricalMeasure:
    """Uniform-weight sample cloud: a read-only copy, in the order given."""

    samples: np.ndarray

    def __post_init__(self):
        arr = np.array(self.samples, dtype=float).ravel()
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
    return float(np.sqrt(np.mean((np.sort(mu.samples) - np.sort(nu.samples)) ** 2)))


def moments(mu: EmpiricalMeasure) -> tuple[float, float]:
    """Population mean and standard deviation (divide by n) of the samples.

    Computed once per measure and kept, so asking again costs nothing.
    """
    return mu._moments
