"""Accuracy ledger, particle half: the Monte Carlo error of Y0 falls as n^-1/2.

On the README problem the solver's time-discrete target is known in closed
form (``euler_y0`` in ``perfbench/workloads.py``, compiled from its file and
never imported as a module), so the particle error can be measured apart
from the time-stepping bias.
"""

import math
from pathlib import Path

import numpy as np

from theta_fbsde import (
    AffineControlDrift,
    ConstantVolatility,
    LinearF0,
    LinearTerminal,
    ProblemSpec,
    QuadraticPenaltyDriver,
    TimeGrid,
    picard_solve,
    static_set,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _euler_y0():
    namespace = {"__name__": "perfbench_workloads", "__file__": str(WORKLOADS)}
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), namespace)
    return namespace["euler_y0"]


def readme_spec():
    return ProblemSpec(
        horizon=1.0,
        x0=np.array([1.0]),
        drift=AffineControlDrift(np.array([0.0]), np.array([[0.25]])),
        volatility=ConstantVolatility(np.array([[0.3]])),
        driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.6, f0=LinearF0(0.5)),
        terminal=LinearTerminal(np.array([1.0])),
        ambiguity=static_set([(-2.0, -1.0), (1.0, 2.0)]),
    )


def test_particle_error_rate_is_one_half():
    """RMS over seeds 0-7 of Y0 - euler_y0(20) at n = 500, 2000 and 8000.

    The least-squares slope of log RMS against log n must lie in
    [-0.75, -0.25], a band of 1/4 around the Monte Carlo rate -1/2; it read
    -0.472 when written.  A change that trades particle accuracy for speed,
    or that biases Y0 by more than the noise at n = 8000, flattens it.
    """
    steps = 20
    grid = TimeGrid(1.0, steps)
    target = _euler_y0()(steps)
    counts = np.array([500, 2000, 8000])
    rms = []
    for n in counts:
        errors = [picard_solve(readme_spec(), grid, int(n), seed=seed)[0].y0 - target
                  for seed in range(8)]
        rms.append(math.sqrt(float(np.mean(np.square(errors)))))
    slope = np.polyfit(np.log(counts), np.log(rms), 1)[0]
    assert -0.75 <= slope <= -0.25, (slope, rms)
