"""Accuracy ledger: error rates in particles and in time steps.

On the README problem the solver's time-discrete target is known in closed
form (``euler_y0`` in ``perfbench/workloads.py``, compiled from its file and
never imported as a module), so the particle error can be measured apart
from the time-stepping bias, and that bias against the continuous-time closed
form (``CLOSED_FORM_Y0``) is first order in dt.  The explicit grid solver
on the same problem is first order in its time step too.  The deterministic
quartic reduction integrates with RK4, fourth order in the step.
"""

import math
from pathlib import Path

import numpy as np

from theta_fbsde import (
    AffineControlDrift,
    ConstantVolatility,
    DeterministicSpec,
    EmpiricalMeasure,
    LinearF0,
    LinearTerminal,
    ProblemSpec,
    QuadraticPenaltyDriver,
    QuarticDriver,
    TimeGrid,
    default_grid,
    picard_solve,
    solve_hjb,
    static_set,
    theta_expectation,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    namespace = {"__name__": "perfbench_workloads", "__file__": str(WORKLOADS)}
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), namespace)
    return namespace


def _slope(steps, errors) -> float:
    """Least-squares slope of log error against log dt = log(1 / steps)."""
    return np.polyfit(-np.log(steps), np.log(errors), 1)[0]


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
    target = _workloads()["euler_y0"](steps)
    counts = np.array([500, 2000, 8000])
    rms = []
    for n in counts:
        errors = [picard_solve(readme_spec(), grid, int(n), seed=seed)[0].y0 - target
                  for seed in range(8)]
        rms.append(math.sqrt(float(np.mean(np.square(errors)))))
    slope = np.polyfit(np.log(counts), np.log(rms), 1)[0]
    assert -0.75 <= slope <= -0.25, (slope, rms)


def test_time_step_error_rate_is_one():
    """|euler_y0(steps) - CLOSED_FORM_Y0| at steps 25, 50, 100 and 200.

    The time-discrete target of the particle solver differs from the
    continuous-time value by O(dt): the least-squares slope of log error
    against log dt must lie in [0.9, 1.1]; it read 1.004 when written.
    """
    workloads = _workloads()
    steps = np.array([25, 50, 100, 200])
    errors = [abs(workloads["euler_y0"](int(n)) - workloads["CLOSED_FORM_Y0"]) for n in steps]
    slope = _slope(steps, errors)
    assert 0.9 <= slope <= 1.1, (slope, errors)


def test_grid_solver_error_rate_is_one():
    """|v(0, x0) - CLOSED_FORM_Y0| of ``solve_hjb`` on ``default_grid`` at nx 51 to 401.

    The README problem's set is static, so the grid solve reads no law from
    its measure flow (a point law here) and carries no Monte Carlo noise.
    The monotone explicit scheme converges at first order
    (Barles-Souganidis 1991), and here its error is
    set by the time step: about 0.043 dt on every grid.  The least-squares
    slope of log error against log dt must lie in [0.9, 1.1]; it read 1.002
    when written.  A change that trades grid accuracy for speed bends it.
    """
    spec = readme_spec()
    target = _workloads()["CLOSED_FORM_Y0"]
    law = EmpiricalMeasure(np.zeros(1))
    steps, errors = [], []
    for nx in (51, 101, 201, 401):
        grid1d = default_grid(spec, nx=nx)
        v0 = float(np.interp(1.0, grid1d.xs, solve_hjb(spec, grid1d, lambda t: law)[0]))
        steps.append(grid1d.nt)
        errors.append(abs(v0 - target))
    slope = _slope(np.array(steps), errors)
    assert 0.9 <= slope <= 1.1, (slope, steps, errors)
    assert all(0.02 <= e * n <= 0.08 for e, n in zip(errors, steps)), (steps, errors)


def test_quartic_rk4_error_rate_is_four():
    """E[0.1] of the quartic reduction at 8, 16 and 32 RK4 steps against 4096.

    lambda = 2, gamma = 1, T = 1 on ``driver.interior_set(1.0)``.
    The slope of log error against log h must lie in [3.5, 4.5] and each
    halving of h must cut the error by a factor in [12, 20]; they read 3.996
    and 15.95 when written.  At 64 steps the error (3e-15) nears rounding, so
    the fit stops at 32.
    """
    driver = QuarticDriver(2.0, 1.0)
    spec = DeterministicSpec(driver, driver.interior_set(1.0), 1.0)
    reference, _ = theta_expectation(spec, TimeGrid(1.0, 4096), xi=0.1)
    steps = np.array([8, 16, 32])
    errors = [abs(theta_expectation(spec, TimeGrid(1.0, int(n)), xi=0.1)[0] - reference)
              for n in steps]
    slope = _slope(steps, errors)
    assert 3.5 <= slope <= 4.5, (slope, errors)
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    assert all(12.0 <= r <= 20.0 for r in ratios), ratios
