"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import contextlib
import itertools
import time

import numpy as np
import pytest

from theta_fbsde import (
    AffineControlDrift,
    ConstantVolatility,
    DeterministicSpec,
    DriverState,
    EmpiricalMeasure,
    IntervalUnion,
    LinearF0,
    LinearTerminal,
    ProblemSpec,
    QuadraticPenaltyDriver,
    QuarticDriver,
    TimeGrid,
    check_dynamic_consistency,
    check_monotonicity,
    check_subadditivity,
    default_grid,
    driver_sup,
    envelope_derivative,
    feynman_kac_check,
    hausdorff,
    martingale_diagnostics,
    maximize_over,
    numeric_second_derivative,
    picard_solve,
    second_derivative_at_zero,
    static_set,
    theta_expectation,
    unconstrained_interval,
    w2,
    y0_standard_error,
)


@contextlib.contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL ({label})")
        raise
    print(f"ACCEPTANCE {number} PASS ({label}) [{time.perf_counter() - start:.2f}s]")


def application_spec(horizon=1.0):
    return ProblemSpec(
        horizon=horizon,
        x0=np.array([1.0]),
        drift=AffineControlDrift(np.array([0.0]), np.array([[0.25]])),
        volatility=ConstantVolatility(np.array([[0.3]])),
        driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.6, f0=LinearF0(0.5)),
        terminal=LinearTerminal(np.array([1.0])),
        ambiguity=static_set([(-2.0, -1.0), (1.0, 2.0)]),
    )


# oracle computed independently before the build: linear value equation with
# control 1, drift rate -1, optimized driver 0.5 y - 0.08
CLOSED_FORM_Y0 = float(np.exp(-0.5) - 0.16 * (np.exp(0.5) - 1.0))


def test_criterion_1_regime_snap_numbers():
    with criterion(1, "two-regime projection and drift multipliers"):
        start = time.perf_counter()
        two_regime = IntervalUnion(((-2.0, -1.0), (1.0, 2.0)))
        hull = two_regime.convex_hull()
        w_star = two_regime.project(0.6)
        w_hull = hull.project(0.6)
        assert abs(w_star - 1.0) <= 1e-12
        assert abs(w_hull - 0.6) <= 1e-12
        assert abs((1.0 + 3.0 * w_star) - 4.0) <= 1e-12
        assert abs((1.0 + 3.0 * w_hull) - 2.8) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_2_counterexample_derivatives():
    with criterion(2, "optimized-driver derivatives at the origin"):
        start = time.perf_counter()
        driver = QuarticDriver(2.0, 1.0)
        uset = unconstrained_interval(driver, 0.01)
        assert driver_sup(uset, driver, DriverState(y=0.0)) == pytest.approx(0.0, abs=1e-12)
        slope = envelope_derivative(driver, 0.0)
        h = 1e-4
        fd = (
            driver_sup(uset, driver, DriverState(y=h))
            - driver_sup(uset, driver, DriverState(y=-h))
        ) / (2.0 * h)
        assert abs(slope) <= 1e-6
        assert abs(slope - fd) <= 1e-6
        curvature = numeric_second_derivative(driver)
        assert curvature == pytest.approx(second_derivative_at_zero(driver), rel=1e-4)
        assert second_derivative_at_zero(driver) == pytest.approx(2.0)
        assert time.perf_counter() - start < 1.0


def test_criterion_3_subadditivity_violation():
    with criterion(3, "strict sub-additivity violation"):
        start = time.perf_counter()
        driver = QuarticDriver(2.0, 1.0)
        spec = DeterministicSpec(driver, unconstrained_interval(driver, 0.2), 1.0)
        res = check_subadditivity(spec, 0.1, TimeGrid(1.0, 1000))
        assert abs(res.e_sum) <= 1e-8
        assert 0.015 <= res.split_sum <= 0.025
        assert res.gap > 0.0
        refined = check_subadditivity(spec, 0.1, TimeGrid(1.0, 2000))
        assert abs(res.gap - refined.gap) <= 1e-9
        assert time.perf_counter() - start < 1.0


def test_criterion_4_translation_defect():
    with criterion(4, "translation-invariance defect"):
        start = time.perf_counter()
        driver = QuarticDriver(2.0, 1.0)
        spec = DeterministicSpec(driver, unconstrained_interval(driver, 0.2), 1.0)
        value, _ = theta_expectation(spec, TimeGrid(1.0, 1000), xi=0.1)
        defect = value - 0.1
        assert 0.008 <= defect <= 0.014
        assert time.perf_counter() - start < 1.0


def test_criterion_5_feynman_kac_cross_check():
    with criterion(5, "particle and grid solvers against the closed form"):
        start = time.perf_counter()
        spec = application_spec()
        grid = TimeGrid(1.0, 100)
        sol, report = picard_solve(spec, grid, 10_000, seed=0, tol=1e-6)
        assert report.converged
        mc_rel = abs(sol.y0 - CLOSED_FORM_Y0) / CLOSED_FORM_Y0
        assert mc_rel <= 0.02

        fk = feynman_kac_check(spec, default_grid(spec, nx=201), grid, sol)
        pde_rel = abs(fk.v0 - CLOSED_FORM_Y0) / CLOSED_FORM_Y0
        assert pde_rel <= 0.02
        assert fk.relative_gap <= 0.05
        assert time.perf_counter() - start < 60.0


def test_criterion_6_picard_contraction():
    with criterion(6, "weighted-norm contraction on the short horizon"):
        spec = application_spec(horizon=0.25)
        grid = TimeGrid(0.25, 25)
        sol, report = picard_solve(spec, grid, 10_000, seed=0, tol=1e-6, max_iter=50)
        assert report.converged
        assert report.iterations <= 50
        assert report.final_delta < 1e-6
        # ratios[0] compares iterations 2 and 1; from iteration 3 onward all
        # observed ratios must contract
        assert all(r < 1.0 for r in report.ratios[1:])


def test_criterion_7_property_suite():
    with criterion(7, "operator property suite"):
        driver = QuarticDriver(2.0, 1.0)
        det_spec = DeterministicSpec(driver, unconstrained_interval(driver, 0.3), 1.0)
        det_grid = TimeGrid(1.0, 1000)

        disc = check_dynamic_consistency(det_spec, det_grid, 0.1, 0.5)
        assert disc <= 1e-8

        terminals = np.linspace(-0.2, 0.2, 21)
        for lo, hi in itertools.pairwise(terminals):
            res = check_monotonicity(det_spec, det_grid, hi, lo)
            assert res.margin >= 0.0

        stoch = ProblemSpec(
            horizon=1.0,
            x0=np.array([0.5]),
            drift=AffineControlDrift(np.array([0.0]), np.array([[0.0]])),
            volatility=ConstantVolatility(np.array([[0.8]])),
            driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.0),
            terminal=LinearTerminal(np.array([1.0])),
            ambiguity=static_set([(0.0, 0.0)]),
        )
        stoch_grid = TimeGrid(1.0, 40)
        shifts = np.linspace(0.0, 1.0, 21)
        # ordered stochastic pairs: shifted copies of the same payoff
        from theta_fbsde import CallableTerminal

        stoch_values = []
        for c in shifts:
            def shifted(x, _c=float(c)):
                return x[:, 0] + _c

            val, sol = theta_expectation(
                stoch, stoch_grid, n_particles=2000, seed=17, xi=CallableTerminal(shifted)
            )
            stoch_values.append((val, y0_standard_error(stoch, stoch_grid, sol)))
        for (v_lo, se_lo), (v_hi, se_hi) in itertools.pairwise(stoch_values):
            assert v_hi - v_lo >= -3.0 * float(np.hypot(se_lo, se_hi))

        # zero-driver martingale structure at the pinned particle count
        sol, _ = picard_solve(stoch, stoch_grid, 10_000, seed=23)
        mart = martingale_diagnostics(stoch, stoch_grid, sol)
        assert mart.max_abs_driver == 0.0
        assert mart.within_three_fraction >= 0.95

        app_sol, _ = picard_solve(application_spec(), TimeGrid(1.0, 100), 10_000, seed=29)
        app_mart = martingale_diagnostics(application_spec(), TimeGrid(1.0, 100), app_sol)
        assert app_mart.within_three_fraction >= 0.95


def test_criterion_8_oracle_equivalence():
    with criterion(8, "library results against independent oracles"):
        rng = np.random.default_rng(2024)

        # quadratic transport distance against exhaustive pairings
        for _ in range(100):
            n = int(rng.integers(1, 5))
            a = rng.uniform(-5.0, 5.0, size=n)
            b = rng.uniform(-5.0, 5.0, size=n)
            best = min(
                float(np.mean((a - np.asarray(perm)) ** 2))
                for perm in itertools.permutations(b)
            )
            exact = w2(EmpiricalMeasure(a), EmpiricalMeasure(b))
            assert abs(exact - np.sqrt(best)) <= 1e-12

        # set distance against a dense grid
        def grid_distance(points, intervals):
            d = np.full(points.shape, np.inf)
            for lo, hi in intervals:
                d = np.minimum(d, np.abs(points - np.clip(points, lo, hi)))
            return d

        def grid_hausdorff(u1, u2, resolution=1e-6):
            worst = 0.0
            for src, dst in ((u1, u2), (u2, u1)):
                for lo, hi in src.intervals:
                    n_pts = max(2, int(np.ceil((hi - lo) / resolution)) + 1)
                    pts = np.linspace(lo, hi, n_pts)
                    worst = max(worst, float(np.max(grid_distance(pts, dst.intervals))))
            return worst

        def random_union():
            n = int(rng.integers(1, 5))
            while True:
                pts = np.sort(rng.uniform(0.0, 1.0, size=2 * n))
                if n == 1 or np.min(np.diff(pts)) > 1e-3:
                    return IntervalUnion(tuple((pts[2 * i], pts[2 * i + 1]) for i in range(n)))

        for _ in range(100):
            u1, u2 = random_union(), random_union()
            assert abs(hausdorff(u1, u2) - grid_hausdorff(u1, u2)) <= 2e-6

        # stationarity root of the quartic family against bisection
        for _ in range(100):
            gamma = float(rng.uniform(0.1, 3.0))
            lam = gamma + float(rng.uniform(0.05, 3.0))
            y = float(rng.uniform(-2.0, 2.0))

            def foc(a):
                return gamma * a**3 + (lam - gamma) * a - lam * y

            r = 1.0 + max(1.0, (lam * abs(y) / gamma) ** (1.0 / 3.0))
            lo, hi = -r, r
            while hi - lo > 1e-13:
                mid = 0.5 * (lo + hi)
                if foc(mid) <= 0.0:
                    lo = mid
                else:
                    hi = mid
            oracle_root = 0.5 * (lo + hi)
            res = maximize_over(
                IntervalUnion(((-r - 1.0, r + 1.0),)), QuarticDriver(lam, gamma), DriverState(y=y)
            )
            assert abs(res.a_star - oracle_root) <= 1e-9
