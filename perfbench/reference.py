"""Fixed reference tasks that gauge the machine's speed for one kind of work.

A shared virtual machine can change speed in phases of minutes, by up to a
factor of two (see README.md), and different code slows by different
amounts.  Each workload therefore reports its wall time in multiples of a
reference task of the same kind as its dominant layer, timed in the same
process just before and just after the timed region.  The tasks use only the standard library and
numpy, never the program, so a change to the program moves the ratio exactly
as it moves the wall time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


def _rng():
    return np.random.default_rng(20250722)


def text_rows() -> None:
    """Fixed-width float formatting, row by row, like a CSV writer."""
    rows = _rng().standard_normal((10_000, 6)).tolist()
    "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)


def dense_fits() -> None:
    """Standardized cubic basis, singular values and a least-squares fit per node."""
    rng = _rng()
    x = rng.standard_normal((10_000, 1))
    y = rng.standard_normal((10_000, 2))
    for _ in range(36):
        xs = (x - x.mean(axis=0)) / x.std(axis=0)
        phi = np.column_stack([np.ones(len(xs)), xs[:, 0], xs[:, 0] ** 2, xs[:, 0] ** 3])
        np.linalg.svd(phi, compute_uv=False)
        coef, *_ = np.linalg.lstsq(phi, y, rcond=None)
        phi @ coef


@dataclass(frozen=True)
class _DoubleWell:
    lam: float = 2.0
    gamma: float = 1.0

    def d_da(self, y, a):
        return -self.gamma * a * (a * a - 1.0) - self.lam * (a - y)

    def d2_da2(self, y, a):
        return -self.gamma * (3.0 * a * a - 1.0) - self.lam

    def value(self, y, a):
        w = a * a - 1.0
        return 0.25 * self.gamma - 0.25 * self.gamma * w * w - 0.5 * self.lam * (a - y) ** 2


class _Best(NamedTuple):
    a: float
    value: float


def scalar_newton() -> None:
    """Bracketed scalar Newton over two intervals in pure Python, like a pointwise argmax."""
    f = _DoubleWell()
    for y in _rng().uniform(-1.5, 1.5, 2_500).tolist():
        best = None
        for lo, hi in ((-2.0, -0.5), (0.5, 2.0)):
            a = 0.5 * (lo + hi)
            for _ in range(30):
                g = f.d_da(y, a)
                if abs(g) <= 1e-12 or hi - lo <= 4.0 * math.ulp(max(1.0, abs(lo), abs(hi))):
                    break
                if g > 0.0:
                    lo = a
                else:
                    hi = a
                step = a - g / f.d2_da2(y, a)
                a = step if lo < step < hi else 0.5 * (lo + hi)
            val = f.value(y, a)
            if best is None or val > best.value:
                best = _Best(a, val)


def seconds(task, rounds: int = 3) -> list[float]:
    """Durations of ``rounds`` runs of ``task``."""
    out = []
    for _ in range(rounds):
        start = time.perf_counter()
        task()
        out.append(time.perf_counter() - start)
    return out


# The kind of work that dominates each workload (see the traced baseline).
FOR_WORKLOAD = {"solve_csv": text_rows, "coupled_checks": dense_fits, "quartic_grid": scalar_newton}
