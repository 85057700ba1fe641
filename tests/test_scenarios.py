import numpy as np
import pytest

from theta_fbsde import (
    AffineControlDrift,
    AffineTheta,
    AmbiguityMap,
    ConstantVolatility,
    EmpiricalMeasure,
    IntervalUnion,
    LinearF0,
    LinearTerminal,
    ParameterError,
    ProblemSpec,
    QuadraticPenaltyDriver,
    TimeGrid,
    UsageError,
    brownian_increments,
    build_application_spec,
    picard_solve,
    run_application,
    run_counterexample,
    simulate_forward,
    solve_backward,
    static_set,
    verify_global_assumptions,
)

TWO_REGIME = IntervalUnion(((-2.0, -1.0), (1.0, 2.0)))
# both endpoints of [1, 2] move by 0.5 times the clamped mean of the value law
MEAN_FEEDBACK = AmbiguityMap(
    base=IntervalUnion(((1.0, 2.0),)),
    endpoint_shifts=(0.5, 0.5),
    theta_rule=AffineTheta(alpha=1.0, beta=0.0, lo=-0.4, hi=0.4),
)


def application_spec(w0, intervals=TWO_REGIME.intervals):
    return build_application_spec(
        C0=[0.0], C1=[[0.25]], sigma=[[0.3]], kappa=1.0, w0=w0, f0=LinearF0(0.5),
        ambiguity=static_set(intervals), x0=[1.0], horizon=1.0,
    )


class TestCounterexampleScenario:
    def test_reference_parameters(self):
        report = run_counterexample(2.0, 1.0, c=0.1, horizon=1.0, n_steps=1000)
        assert report.curvature_analytic == pytest.approx(2.0)
        assert report.curvature_numeric == pytest.approx(2.0, rel=1e-4)
        assert report.e_zero == 0.0
        assert 0.015 <= report.subadditivity_gap <= 0.025
        assert report.translation_defect == pytest.approx(report.e_plus - 0.1, abs=1e-15)
        assert report.concavity_modulus == pytest.approx(1.0)
        assert report.concavity_passed

    def test_zero_split(self):
        report = run_counterexample(2.0, 1.0, c=0.0, horizon=1.0, n_steps=200)
        assert report.e_zero == report.e_plus == report.e_minus == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            run_counterexample(1.0, 2.0)

    @pytest.mark.parametrize("c", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_split_rejected(self, c):
        with pytest.raises(ParameterError, match="c must be finite"):
            run_counterexample(2.0, 1.0, c=c)


class TestApplicationScenario:
    def test_regime_snap_and_multipliers(self):
        report = run_application(application_spec(0.6), TimeGrid(1.0, 50), 800, seed=0)
        assert report.control_nonconvex == 1.0
        assert report.control_hull == 0.6
        assert report.multiplier_nonconvex == 4.0
        assert report.multiplier_hull == pytest.approx(2.8, abs=1e-12)
        # the convexified dynamics decay more slowly and carry a smaller penalty
        assert report.x_terminal_mean_hull > report.x_terminal_mean_nonconvex

    def test_reported_controls_are_the_solves(self):
        # 1e-13 from the gap midpoint the two sides' values differ by about 2e-13,
        # inside the argmax tie tolerance, so the solve keeps the smaller control
        report = run_application(application_spec(1e-13), TimeGrid(1.0, 10), 200, seed=0)
        assert np.all(report.solution_nonconvex.A == -1.0)
        assert report.control_nonconvex == -1.0
        assert report.multiplier_nonconvex == -2.0
        assert report.control_hull == 1e-13
        assert report.multiplier_hull == 1.0 + 3.0 * 1e-13

    def test_reference_inside_set_collapses_the_comparison(self):
        report = run_application(application_spec(1.5), TimeGrid(1.0, 40), 600, seed=3)
        assert report.control_nonconvex == report.control_hull == 1.5
        assert report.y0_gap == pytest.approx(0.0, abs=1e-12)

    def test_singleton_set_equals_fixed_control_solve(self):
        w = 1.3
        report = run_application(application_spec(w, [(w, w)]), TimeGrid(1.0, 40), 700, seed=9)
        spec = ProblemSpec(
            horizon=1.0,
            x0=np.array([1.0]),
            drift=AffineControlDrift(np.array([0.0]), np.array([[0.25]])),
            volatility=ConstantVolatility(np.array([[0.3]])),
            driver=QuadraticPenaltyDriver(kappa=1.0, w0=w, f0=LinearF0(0.5)),
            terminal=LinearTerminal(np.array([1.0])),
            ambiguity=static_set([(w, w)]),
        )
        grid = TimeGrid(1.0, 40)
        n = 700
        increments = brownian_increments(9, n, grid.n_steps, 1, grid.dt)
        controls = np.full((grid.n_nodes, n), w)
        laws = [EmpiricalMeasure(np.zeros(n))] * grid.n_nodes
        xs = simulate_forward(spec, grid, controls, laws, increments)
        ys, _ = solve_backward(spec, grid, xs, controls, laws, increments)
        assert abs(report.y0_nonconvex - float(np.mean(ys[0]))) <= 1e-10

    def test_rejects_law_dependent_set_and_other_drivers(self):
        from dataclasses import replace

        from theta_fbsde import QuarticDriver

        grid = TimeGrid(1.0, 10)
        with pytest.raises(UsageError, match="static"):
            run_application(replace(application_spec(0.6), ambiguity=MEAN_FEEDBACK), grid, 100)
        quartic = replace(application_spec(0.6), driver=QuarticDriver(2.0, 1.0))
        with pytest.raises(UsageError, match="quadratic penalty"):
            run_application(quartic, grid, 100)


class TestMeanFeedbackVariant:
    def test_closes_the_law_loop(self):
        spec = build_application_spec(
            C0=[0.0], C1=[[0.25]], sigma=[[0.3]], kappa=1.0, w0=0.0,
            f0=LinearF0(0.5), ambiguity=MEAN_FEEDBACK, x0=[1.0], horizon=0.5,
        )
        grid = TimeGrid(0.5, 25)
        sol, report = picard_solve(spec, grid, 600, seed=13)
        assert report.converged
        assert report.iterations >= 3  # the law coupling forces real sweeps
        # realized sets moved with the value law, so controls left the base edge
        assert float(np.min(sol.A)) != 1.0 or float(np.max(sol.A)) != 1.0


class TestGlobalAssumptionLedger:
    def test_two_regime_set_fails_multiplier(self):
        ledger = verify_global_assumptions(
            C1=[[0.25]], ambiguity=TWO_REGIME, kappa=1.0, f0_lipschitz=0.5
        )
        assert not ledger.passed
        failing = {c.name: c for c in ledger.checks if not c.passed}
        assert set(failing) == {"drift_multiplier_positive"}
        assert "-5" in failing["drift_multiplier_positive"].detail

    def test_positive_regime_passes(self):
        ledger = verify_global_assumptions(
            C1=[[0.25]], ambiguity=IntervalUnion(((1.0, 2.0),)), kappa=1.0, f0_lipschitz=0.5
        )
        assert ledger.passed
        detail = next(c.detail for c in ledger.checks if c.name == "drift_multiplier_positive")
        assert "4" in detail

    def test_indefinite_matrix_fails(self):
        ledger = verify_global_assumptions(
            C1=[[1.0, 0.0], [0.0, -0.5]],
            ambiguity=IntervalUnion(((1.0, 2.0),)),
            kappa=1.0,
            f0_lipschitz=0.5,
        )
        assert not ledger.passed
        names = {c.name for c in ledger.checks if not c.passed}
        assert "C1_positive_definite" in names
