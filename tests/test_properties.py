import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from theta_fbsde import properties
from theta_fbsde.bsde import _rk4_increment

from theta_fbsde import (
    AffineControlDrift,
    AmbiguityMap,
    ConstantTerminal,
    ConstantVolatility,
    DeterministicSolution,
    DeterministicSpec,
    DivergenceError,
    GenericDriver,
    IntervalUnion,
    LinearF0,
    LinearTerminal,
    ParameterError,
    ProblemSpec,
    QuadraticPenaltyDriver,
    QuadraticTerminal,
    QuarticDriver,
    TimeGrid,
    UsageError,
    build_application_spec,
    check_dynamic_consistency,
    check_monotonicity,
    check_subadditivity,
    check_translation_invariance,
    default_grid,
    feynman_kac_check,
    flow_from_solution,
    martingale_diagnostics,
    picard_solve,
    static_set,
    subadditivity_gate,
    theta_expectation,
    translation_defect_gate,
    y0_standard_error,
)


def quartic_spec(lam=2.0, gamma=1.0, horizon=1.0):
    driver = QuarticDriver(lam, gamma)
    return DeterministicSpec(driver, driver.interior_set(1.0), horizon)


def linear_driver_spec(slope, horizon=1.0):
    # w0 inside the set: the optimized driver is exactly f0
    driver = QuadraticPenaltyDriver(kappa=1.0, w0=0.0, f0=LinearF0(slope))
    return DeterministicSpec(driver, static_set([(0.0, 0.0)]).base, horizon)


def zero_driver_problem(sigma=1.0, x0=0.0, horizon=1.0, terminal=None):
    return ProblemSpec(
        horizon=horizon,
        x0=np.array([x0]),
        drift=AffineControlDrift(np.array([0.0]), np.array([[0.0]])),
        volatility=ConstantVolatility(np.array([[sigma]])),
        driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.0),
        terminal=terminal if terminal is not None else LinearTerminal(np.array([1.0])),
        ambiguity=static_set([(0.0, 0.0)]),
    )


class TestThetaExpectation:
    def test_zero_terminal_is_zero(self):
        value, _ = theta_expectation(quartic_spec(), TimeGrid(1.0, 200), xi=0.0)
        assert value == 0.0

    def test_quartic_small_terminal(self):
        value, _ = theta_expectation(quartic_spec(), TimeGrid(1.0, 1000), xi=0.1)
        # close to the quadratic-approximation value 0.1 / 0.9
        assert value == pytest.approx(0.1111, abs=2e-3)
        assert value > 0.1

    def test_classical_case_matches_expectation(self):
        spec = zero_driver_problem(sigma=1.0, x0=0.3, terminal=QuadraticTerminal())
        grid = TimeGrid(1.0, 40)
        value, sol = theta_expectation(spec, grid, n_particles=6000, seed=1)
        se = y0_standard_error(spec, grid, sol)
        assert abs(value - (0.3**2 + 1.0)) <= 3 * se + 5e-3

    def test_deterministic_requires_numeric_terminal(self):
        with pytest.raises(UsageError):
            theta_expectation(quartic_spec(), TimeGrid(1.0, 10))


@pytest.fixture
def integrations(monkeypatch):
    """The argument tuples of every ODE integration the property layer runs."""
    calls = []
    original = properties.solve_deterministic_ode

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(properties, "solve_deterministic_ode", counting)
    return calls


class TestValuationMemo:
    """Repeated deterministic valuations of one spec object are integrated once."""

    def test_hit_returns_the_same_solution(self, integrations):
        spec = quartic_spec()
        y1, sol1 = theta_expectation(spec, TimeGrid(1.0, 100), xi=0.1)
        y2, sol2 = theta_expectation(spec, TimeGrid(1.0, 100), xi=np.float64(0.1))
        assert sol2 is sol1 and y2 == y1
        assert len(integrations) == 1

    def test_equal_but_distinct_spec_misses(self, integrations):
        spec_a, spec_b = quartic_spec(), quartic_spec()
        assert spec_a == spec_b and spec_a is not spec_b
        grid = TimeGrid(1.0, 100)
        _, sol_a = theta_expectation(spec_a, grid, xi=0.1)
        _, sol_b = theta_expectation(spec_b, grid, xi=0.1)
        assert sol_b is not sol_a
        assert np.array_equal(sol_a.values, sol_b.values)
        assert len(integrations) == 2

    def test_each_spec_keeps_its_own_valuations(self, integrations):
        spec_a, spec_b = quartic_spec(), quartic_spec(lam=3.0)
        grid = TimeGrid(1.0, 100)
        _, sol_a = theta_expectation(spec_a, grid, xi=0.1)
        _, sol_b = theta_expectation(spec_b, grid, xi=0.1)
        _, again = theta_expectation(spec_a, grid, xi=0.1)
        assert again is sol_a and again is not sol_b
        assert len(integrations) == 2

    def test_other_step_count_misses(self, integrations):
        spec = quartic_spec()
        _, coarse = theta_expectation(spec, TimeGrid(1.0, 50), xi=0.1)
        _, fine = theta_expectation(spec, TimeGrid(1.0, 100), xi=0.1)
        assert coarse.values.size == 51 and fine.values.size == 101
        assert len(integrations) == 2

    def test_negative_zero_after_zero_misses(self, integrations):
        spec, grid = quartic_spec(), TimeGrid(1.0, 20)
        _, plus = theta_expectation(spec, grid, xi=0.0)
        _, minus = theta_expectation(spec, grid, xi=-0.0)
        assert minus is not plus
        assert math.copysign(1.0, plus.values[-1]) == 1.0
        assert math.copysign(1.0, minus.values[-1]) == -1.0
        assert len(integrations) == 2

    def test_arrays_are_read_only(self):
        _, sol = theta_expectation(quartic_spec(), TimeGrid(1.0, 20), xi=0.1)
        for array in (sol.times, sol.values):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_raising_valuation_is_never_stored(self, integrations):
        spec, grid = quartic_spec(), TimeGrid(1.0, 100)
        for _ in range(2):
            with pytest.raises(DivergenceError):
                theta_expectation(spec, grid, xi=-5.0)
        assert len(integrations) == 2

    def test_oldest_entry_dropped_at_the_bound(self, integrations):
        spec, grid = quartic_spec(), TimeGrid(1.0, 10)
        kept = properties._VALUATIONS_KEPT
        assert kept >= 5  # the CLI property suite values 5 distinct terminals
        xis = [0.01 * k for k in range(kept + 1)]
        for xi in xis:
            theta_expectation(spec, grid, xi=xi)
        for xi in reversed(xis[1:]):
            theta_expectation(spec, grid, xi=xi)
        assert len(integrations) == kept + 1
        theta_expectation(spec, grid, xi=xis[0])
        assert len(integrations) == kept + 2

    def test_nothing_held_once_the_spec_is_collected(self):
        spec = quartic_spec()
        _, sol = theta_expectation(spec, TimeGrid(1.0, 20), xi=0.1)
        spec_ref, sol_ref = weakref.ref(spec), weakref.ref(sol)
        del spec, sol
        gc.collect()
        assert spec_ref() is None and sol_ref() is None


class TestConstantTerminalSpecs:
    """A numeric terminal value solves the spec with that constant terminal."""

    def test_same_bits_as_the_replaced_spec(self):
        spec, grid = zero_driver_problem(), TimeGrid(1.0, 10)
        y0, sol = theta_expectation(spec, grid, n_particles=200, seed=3, xi=0.5)
        want, _ = picard_solve(replace(spec, terminal=ConstantTerminal(0.5)), grid, 200, seed=3)
        assert y0 == want.y0
        for name in "XYZA":
            assert np.array_equal(getattr(sol, name), getattr(want, name))

    def test_negative_zero_keeps_its_sign(self):
        spec, grid = zero_driver_problem(), TimeGrid(1.0, 10)
        _, minus = theta_expectation(spec, grid, n_particles=200, xi=-0.0)
        assert np.all(np.signbit(minus.Y[-1]))
        assert repr(float(minus.Y[-1, 0])) == "-0.0"

    def test_nothing_held_once_the_spec_is_collected(self):
        spec = zero_driver_problem()
        _, sol = theta_expectation(spec, TimeGrid(1.0, 10), n_particles=200, xi=0.5)
        spec_ref, sol_ref = weakref.ref(spec), weakref.ref(sol)
        del spec, sol
        gc.collect()
        assert spec_ref() is None and sol_ref() is None


class TestDynamicConsistency:
    def test_quartic_composition(self):
        disc = check_dynamic_consistency(quartic_spec(), TimeGrid(1.0, 1000), 0.1, 0.5)
        assert disc <= 1e-8

    def test_zero_solution(self):
        disc = check_dynamic_consistency(quartic_spec(), TimeGrid(1.0, 100), 0.0, 0.3)
        assert disc == 0.0

    def test_linear_driver_closed_form(self):
        lam0, c = 0.7, 0.4
        spec = linear_driver_spec(lam0)
        disc = check_dynamic_consistency(spec, TimeGrid(1.0, 800), c, 0.5)
        assert disc <= 1e-10
        value, _ = theta_expectation(spec, TimeGrid(1.0, 800), xi=c)
        assert value == pytest.approx(c * np.exp(lam0), rel=1e-9)

    def test_stochastic_tower_with_shared_noise(self):
        spec = zero_driver_problem(sigma=1.0, x0=0.5)
        grid = TimeGrid(1.0, 20)
        disc = check_dynamic_consistency(spec, grid, None, 0.5, n_particles=2000, seed=3)
        assert disc <= 5e-3

    def test_stochastic_tower_in_two_dimensions(self):
        # the split-node terminal map is the fitted polynomial, linear in memory
        spec = ProblemSpec(
            horizon=1.0,
            x0=np.array([0.5, -0.2]),
            drift=AffineControlDrift(np.zeros(2), np.zeros((2, 2))),
            volatility=ConstantVolatility(np.array([[1.0, 0.0], [0.3, 0.8]])),
            driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.0),
            terminal=QuadraticTerminal(),
            ambiguity=static_set([(0.0, 0.0)]),
        )
        grid = TimeGrid(1.0, 20)
        disc = check_dynamic_consistency(spec, grid, None, 0.5, n_particles=2000, seed=4)
        assert disc <= 5e-3

    def test_split_time_validated(self):
        with pytest.raises(UsageError):
            check_dynamic_consistency(quartic_spec(), TimeGrid(1.0, 10), 0.1, 1.5)


class TestMonotonicity:
    def test_quartic_ordered_terminals(self):
        res = check_monotonicity(quartic_spec(), TimeGrid(1.0, 500), 0.1, 0.0)
        assert not res.violated
        assert res.margin == pytest.approx(0.1111, abs=2e-3)

    def test_equal_terminals_zero_margin(self):
        res = check_monotonicity(quartic_spec(), TimeGrid(1.0, 200), 0.05, 0.05)
        assert res.margin == 0.0

    def test_ordering_precondition(self):
        with pytest.raises(UsageError):
            check_monotonicity(quartic_spec(), TimeGrid(1.0, 100), 0.0, 0.1)

    def test_deterministic_comparison_on_ordered_grid(self):
        spec = quartic_spec()
        grid = TimeGrid(1.0, 400)
        values = [theta_expectation(spec, grid, xi=xi)[0] for xi in np.linspace(-0.2, 0.2, 9)]
        assert np.all(np.diff(values) >= 0.0)

    def test_stochastic_unit_shift(self):
        spec = zero_driver_problem(sigma=0.8, x0=0.2)
        grid = TimeGrid(1.0, 25)

        def shifted(x):
            return x[:, 0] + 1.0

        res = check_monotonicity(
            spec, grid, shifted, LinearTerminal(np.array([1.0])),
            n_particles=2000, seed=4,
        )
        assert not res.violated
        assert res.margin == pytest.approx(1.0, abs=3 * res.tolerance + 1e-6)


class TestSubadditivity:
    def test_reference_gap(self):
        res = check_subadditivity(quartic_spec(), 0.1, TimeGrid(1.0, 1000))
        assert res.e_sum == 0.0
        assert 0.015 <= res.gap <= 0.025
        assert subadditivity_gate(quartic_spec(), 0.1, TimeGrid(1.0, 1000), res.gap)["passed"]

    def test_zero_split_degenerate(self):
        res = check_subadditivity(quartic_spec(), 0.0, TimeGrid(1.0, 100))
        assert res.gap == 0.0

    def test_other_parameters_still_violate(self):
        res = check_subadditivity(quartic_spec(3.0, 1.0), 0.05, TimeGrid(1.0, 500))
        assert res.gap > 0.0

    def test_gap_grows_with_horizon(self):
        gaps = [
            check_subadditivity(quartic_spec(horizon=T), 0.1, TimeGrid(T, 800)).gap
            for T in (0.5, 1.0, 2.0)
        ]
        assert gaps[0] < gaps[1] < gaps[2]

    def test_guard_rejects_large_terminals(self):
        with pytest.raises(ParameterError):
            check_subadditivity(quartic_spec(), 0.6, TimeGrid(1.0, 200))

    def test_requires_quartic_family(self):
        with pytest.raises(UsageError):
            check_subadditivity(linear_driver_spec(0.5), 0.1, TimeGrid(1.0, 100))


class TestSubadditivityGate:
    SPEC = quartic_spec()
    GRID = TimeGrid(1.0, 1000)

    def measured(self, c):
        gap = check_subadditivity(self.SPEC, c, self.GRID).gap
        return subadditivity_gate(self.SPEC, c, self.GRID, gap)

    # lam gamma / (lam - gamma) = 2, so the gap is 2 c^2 T and the floor about
    # 2 eps: the boundary falls at c = sqrt(eps), about 1.5e-8
    @pytest.mark.parametrize("c", [0.1, 1e-3, 1e-4, 1e-6, 2e-8, -0.1])
    def test_resolvable_gaps_pass(self, c):
        result = self.measured(c)
        assert result["passed"]
        assert result["expected"] == pytest.approx(2.0 * c * c, rel=1e-12)
        assert 0.9 <= result["gap"] / result["expected"] <= 1.1

    @pytest.mark.parametrize("c", [1.5e-8, 1e-9, 0.0])
    def test_unresolvable_gaps_fail(self, c):
        result = self.measured(c)
        assert not result["passed"]
        assert abs(result["gap"]) < result["floor"] < 5e-16

    @pytest.mark.parametrize(
        "gap, passed",
        [(2e-6, True), (1e-6, True), (0.99e-6, False), (-2e-6, False), (0.0, False)],
        ids=["predicted", "half", "below_half", "wrong_sign", "zero"],
    )
    def test_sign_and_half_size(self, gap, passed):
        assert subadditivity_gate(self.SPEC, 1e-3, self.GRID, gap)["passed"] is passed


class TestTranslationInvariance:
    def test_quartic_defect(self):
        defect = check_translation_invariance(quartic_spec(), 0.0, 0.1, TimeGrid(1.0, 1000))
        assert 0.008 <= defect <= 0.014

    def test_zero_driver_invariant(self):
        spec = zero_driver_problem(sigma=0.5, x0=0.1)
        grid = TimeGrid(1.0, 20)
        defect = check_translation_invariance(spec, None, 0.3, grid, n_particles=2000, seed=5)
        assert abs(defect) <= 1e-10

    @pytest.mark.parametrize("xi", [0.0, ConstantTerminal(0.0)], ids=["number", "map"])
    def test_shifts_the_given_payoff(self, xi):
        # E[0 + c] - (E[0] + c) by two valuations, not a shift of the spec's terminal
        spec = build_application_spec(
            C0=[0.0], C1=[[0.25]], sigma=[[0.3]], kappa=1.0, w0=0.6, f0=LinearF0(0.5),
            ambiguity=static_set([(-2.0, -1.0), (1.0, 2.0)]), x0=[1.0], horizon=1.0,
        )
        grid, c = TimeGrid(1.0, 20), 0.1
        options = {"n_particles": 400, "seed": 3}
        defect = check_translation_invariance(spec, xi, c, grid, **options)
        y_shift, _ = theta_expectation(spec, grid, xi=c, **options)
        y_base, _ = theta_expectation(spec, grid, xi=0.0, **options)
        assert defect.hex() == (y_shift - (y_base + c)).hex()

    def test_y_independent_driver_exact(self):
        # distance penalty present but constant in y: shifts must cancel exactly
        driver = QuadraticPenaltyDriver(kappa=1.0, w0=0.6)
        spec = DeterministicSpec(driver, static_set([(-2.0, -1.0), (1.0, 2.0)]).base, 1.0)
        defect = check_translation_invariance(spec, 0.2, 0.1, TimeGrid(1.0, 500))
        assert abs(defect) <= 1e-8


class TestTranslationDefectGate:
    SPEC = quartic_spec()
    GRID = TimeGrid(1.0, 400)
    C = 1e-3
    EXPECTED = 1e-6  # lam gamma / (lam - gamma) c^2 T / 2 with lam = 2, gamma = 1

    def gate(self, defect, coarse=None):
        return translation_defect_gate(
            self.SPEC, self.C, self.GRID, defect, defect if coarse is None else coarse
        )

    def test_measured_defect_passes(self):
        defect = check_translation_invariance(self.SPEC, 0.0, self.C, self.GRID)
        coarse = check_translation_invariance(self.SPEC, 0.0, self.C, TimeGrid(1.0, 200))
        result = self.gate(defect, coarse)
        assert result["passed"]
        assert result["expected"] == pytest.approx(self.EXPECTED, rel=1e-12)

    @pytest.mark.parametrize(
        "defect, passed",
        [(1e-6, True), (0.5e-6, True), (0.49e-6, False), (-1e-6, False), (0.0, False)],
        ids=["predicted", "half", "below_half", "wrong_sign", "zero"],
    )
    def test_sign_and_half_size(self, defect, passed):
        assert self.gate(defect)["passed"] is passed

    def test_step_doubling_change_sets_the_floor(self):
        # a defect that moves by more than itself when the steps halve is unresolved
        result = self.gate(1e-6, coarse=-1e-6)
        assert result["floor"] > 2e-6
        assert not result["passed"]

    def test_unresolvable_split_fails(self):
        c = 1e-9
        grid = TimeGrid(1.0, 400)
        defect = check_translation_invariance(self.SPEC, 0.0, c, grid)
        coarse = check_translation_invariance(self.SPEC, 0.0, c, TimeGrid(1.0, 200))
        result = translation_defect_gate(self.SPEC, c, grid, defect, coarse)
        assert result["expected"] < result["floor"]
        assert not result["passed"]


def scalar_martingale_loop(spec, sol):
    """``(max_abs_driver, martingale_drift)`` from one scalar optimized-driver call per
    RK4 stage and node, summed in order: the check as a loop over the path."""
    g = properties.optimized_driver_fn(spec)
    h = spec.horizon / (sol.times.size - 1)
    y0 = float(sol.values[0])
    max_driver, integral, drift = abs(g(y0)), 0.0, 0.0
    for y in sol.values[1:].tolist():
        g_y = g(y)
        max_driver = max(max_driver, abs(g_y))
        integral += _rk4_increment(g, y, h, g_y)
        drift = max(drift, abs(y - y0 + integral))
    return max_driver, drift


def checked_paths(spec, grid, xi):
    """The solved path, a flat one and the solved one with one node moved by 1e-6."""
    _, sol = theta_expectation(spec, grid, xi=xi)
    moved = sol.values.copy()
    moved[grid.n_steps // 2] += 1e-6
    return {
        "solved": sol,
        "flat": DeterministicSolution(sol.times, np.full_like(sol.values, xi)),
        "moved": DeterministicSolution(sol.times, moved),
    }


def generic_quartic(lam, gamma):
    """The quartic family as a :class:`GenericDriver`, so the argmax runs Newton.

    Written with products, not ``**``: a Python or numpy float power goes
    through libm's ``pow``, which rounds some squares differently from
    numpy's array square, so scalar and batched values would not share bits.
    """

    def value(s, a):
        w, d = a * a - 1.0, a - s.y
        return 0.25 * gamma - 0.25 * gamma * w * w - 0.5 * lam * (d * d)

    return GenericDriver(
        value_fn=value,
        d_da_fn=lambda s, a: -gamma * a * (a * a - 1.0) - lam * (a - s.y),
        d2_da2_fn=lambda s, a: -gamma * (3.0 * a * a - 1.0) - lam,
        kappa=lam - gamma,
    )


class TestSharedRK4Stepper:
    CASES = [(2.0, 1.0, 0.1, 1000), (2.0, 1.0, -0.3, 37), (3.0, 1.0, 0.05, 400), (2.0, 1.0, 0.1, 10)]

    @pytest.mark.parametrize("lam, gamma, xi, steps", CASES)
    def test_perturbed_path_fails_the_gate(self, lam, gamma, xi, steps):
        # the properties gate is drift <= 1e-8: the solved path passes with
        # rounding to spare, a flat path or one node moved by 1e-6 fails
        spec = quartic_spec(lam, gamma)
        grid = TimeGrid(1.0, steps)
        paths = checked_paths(spec, grid, xi)
        assert martingale_diagnostics(spec, grid, paths["solved"]).martingale_drift <= 1e-14
        assert martingale_diagnostics(spec, grid, paths["flat"]).martingale_drift > 1e-4
        report = martingale_diagnostics(spec, grid, paths["moved"])
        assert report.martingale_drift == pytest.approx(1e-6, rel=0.05)

    def assert_scalar_bits(self, spec, grid, xi):
        for name, sol in checked_paths(spec, grid, xi).items():
            report = martingale_diagnostics(spec, grid, sol)
            batched = (report.max_abs_driver.hex(), report.martingale_drift.hex())
            assert batched == tuple(v.hex() for v in scalar_martingale_loop(spec, sol)), name

    @pytest.mark.parametrize("lam, gamma, xi, steps", CASES)
    def test_batched_check_equals_the_scalar_loop(self, lam, gamma, xi, steps):
        # one maximize_batch call per RK4 stage over the whole path gives
        # the bits of 4 * n_steps + 1 scalar optimized-driver calls
        self.assert_scalar_bits(quartic_spec(lam, gamma), TimeGrid(1.0, steps), xi)

    def test_batched_check_equals_the_scalar_loop_on_a_generic_driver(self):
        uset = QuarticDriver(2.0, 1.0).interior_set(1.0)
        spec = DeterministicSpec(generic_quartic(2.0, 1.0), uset, 1.0)
        self.assert_scalar_bits(spec, TimeGrid(1.0, 60), 0.2)

    def test_batched_check_equals_the_scalar_loop_on_two_intervals(self):
        # the value path runs from 0.05 at T to about -0.061 at 0, so the
        # argmax moves from the endpoint 0.5 across the gap to -0.5
        uset = IntervalUnion(((-2.0, -0.5), (0.5, 2.0)))
        spec = DeterministicSpec(QuarticDriver(2.0, 1.0), uset, 1.0)
        self.assert_scalar_bits(spec, TimeGrid(1.0, 300), 0.05)


@pytest.fixture(scope="module")
def law_dependent_solution():
    """The README problem with a law-dependent set, solved on 20 steps."""
    ambiguity = AmbiguityMap(
        IntervalUnion(((-2.0, -1.0), (1.0, 2.0))), (0.5,) * 4, 1.0, 1.0, (-0.5, 0.5)
    )
    spec = build_application_spec(
        [0.0], [[0.25]], [[0.3]], 1.0, 0.6, LinearF0(0.5), ambiguity, [1.0], 1.0
    )
    grid = TimeGrid(1.0, 20)
    sol, _ = picard_solve(spec, grid, 400, seed=1)
    return spec, grid, sol


class TestReadersCheckTheGrid:
    """A reader of a solved system takes only the grid it was solved on.

    A coarser grid or a longer horizon used to give quietly wrong numbers
    (the standard error read 0.012922 instead of 0.011105, the grid value
    0.31 instead of 0.28), and a finer grid ended in IndexError.
    """

    READERS = {
        "y0_standard_error": y0_standard_error,
        "martingale_diagnostics": martingale_diagnostics,
        "feynman_kac_check": lambda spec, grid, sol: feynman_kac_check(
            spec, default_grid(spec, nx=41), grid, sol
        ),
        "flow_from_solution": lambda spec, grid, sol: flow_from_solution(grid, sol),
    }

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize(
        "bad_grid", [TimeGrid(1.0, 10), TimeGrid(1.0, 40), TimeGrid(2.0, 20)],
        ids=["coarser", "finer", "longer"],
    )
    def test_another_grid_is_rejected(self, law_dependent_solution, reader, bad_grid):
        spec, _, sol = law_dependent_solution
        with pytest.raises(UsageError, match="are not the solution's 21 nodes on"):
            self.READERS[reader](spec, bad_grid, sol)

    def test_the_solve_grid_is_read(self, law_dependent_solution):
        spec, grid, sol = law_dependent_solution
        assert y0_standard_error(spec, grid, sol) == pytest.approx(0.011105, abs=1e-6)
        fk = feynman_kac_check(spec, default_grid(spec, nx=41), grid, sol)
        assert math.isfinite(fk.v0)
        assert martingale_diagnostics(spec, grid, sol).within_three_fraction == 1.0


class TestMartingaleDiagnostics:
    def test_zero_driver_solution(self):
        spec = zero_driver_problem(sigma=0.7, x0=0.4)
        grid = TimeGrid(1.0, 30)
        sol, _ = picard_solve(spec, grid, 4000, seed=6)
        report = martingale_diagnostics(spec, grid, sol)
        assert report.max_abs_driver == 0.0
        assert report.within_three_fraction >= 0.95

    def test_one_node_path_is_rejected(self):
        # it used to divide by its zero step count
        sol = DeterministicSolution(np.array([0.0]), np.array([0.1]))
        with pytest.raises(UsageError, match="one value per node"):
            martingale_diagnostics(quartic_spec(), TimeGrid(1.0, 1), sol)

    def test_values_and_times_must_match(self):
        # two times and one value used to report a drift of 0.0
        sol = DeterministicSolution(np.array([0.0, 1.0]), np.array([0.1]))
        with pytest.raises(UsageError, match="values for"):
            martingale_diagnostics(quartic_spec(), TimeGrid(1.0, 1), sol)

    def test_node_count_must_match_the_grid(self):
        spec = quartic_spec()
        _, sol = theta_expectation(spec, TimeGrid(1.0, 50), xi=0.1)
        with pytest.raises(UsageError, match=r"shape \(41,\)"):
            martingale_diagnostics(spec, TimeGrid(1.0, 40), sol)

    def test_grid_must_span_the_horizon(self):
        spec = quartic_spec()
        _, sol = theta_expectation(spec, TimeGrid(1.0, 40), xi=0.1)
        with pytest.raises(UsageError, match="does not match the problem horizon"):
            martingale_diagnostics(spec, TimeGrid(2.0, 40), sol)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_rejected(self, bad):
        # np.max would carry a NaN into the drift, where max() skipped it
        spec = quartic_spec()
        grid = TimeGrid(1.0, 20)
        _, sol = theta_expectation(spec, grid, xi=0.1)
        values = sol.values.copy()
        values[7] = bad
        with pytest.raises(UsageError, match="not finite at node 7"):
            martingale_diagnostics(spec, grid, DeterministicSolution(sol.times, values))

    def test_deterministic_corrected_path_is_flat(self):
        spec = quartic_spec()
        grid = TimeGrid(1.0, 1000)
        _, sol = theta_expectation(spec, grid, xi=0.1)
        report = martingale_diagnostics(spec, grid, sol)
        assert report.martingale_drift <= 1e-8
        assert report.max_abs_driver > 0.0

    def test_application_decomposition(self):
        spec = ProblemSpec(
            horizon=1.0,
            x0=np.array([1.0]),
            drift=AffineControlDrift(np.array([0.0]), np.array([[0.25]])),
            volatility=ConstantVolatility(np.array([[0.3]])),
            driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.6, f0=LinearF0(0.5)),
            terminal=LinearTerminal(np.array([1.0])),
            ambiguity=static_set([(-2.0, -1.0), (1.0, 2.0)]),
        )
        grid = TimeGrid(1.0, 50)
        sol, _ = picard_solve(spec, grid, 4000, seed=7)
        report = martingale_diagnostics(spec, grid, sol)
        assert report.within_three_fraction >= 0.95
