import numpy as np
import pytest

from theta_fbsde import (
    AffineControlDrift,
    AmbiguityMap,
    ConstantTerminal,
    ConstantVolatility,
    EmpiricalMeasure,
    GenericDriver,
    Grid1D,
    GridError,
    IntervalUnion,
    LinearF0,
    LinearTerminal,
    ProblemSpec,
    QuadraticPenaltyDriver,
    QuadraticTerminal,
    TimeGrid,
    check_stability,
    default_grid,
    feynman_kac_check,
    flow_from_solution,
    picard_solve,
    solve_hjb,
    static_set,
)


def grid_problem(
    sigma=1.0,
    c0=0.0,
    c1=0.0,
    terminal=None,
    x0=0.0,
    horizon=1.0,
    driver=None,
    ambiguity=None,
):
    return ProblemSpec(
        horizon=horizon,
        x0=np.array([x0]),
        drift=AffineControlDrift(np.array([c0]), np.array([[c1]])),
        volatility=ConstantVolatility(np.array([[sigma]])),
        driver=driver if driver is not None else QuadraticPenaltyDriver(kappa=1.0, w0=0.0),
        terminal=terminal if terminal is not None else LinearTerminal(np.array([1.0])),
        ambiguity=ambiguity if ambiguity is not None else static_set([(0.0, 0.0)]),
    )


# a static set reads no law, so one point law serves every layer of its grid solve
POINT_LAW = EmpiricalMeasure(np.zeros(1))


def static_flow(t):
    return POINT_LAW


def application_problem(horizon=1.0):
    return grid_problem(
        sigma=0.3,
        c0=0.0,
        c1=0.25,
        x0=1.0,
        horizon=horizon,
        driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.6, f0=LinearF0(0.5)),
        ambiguity=static_set([(-2.0, -1.0), (1.0, 2.0)]),
    )


class TestSolveHjb:
    def test_linear_data_is_invariant(self):
        spec = grid_problem(sigma=1.0, terminal=LinearTerminal(np.array([1.0])))
        grid1d = default_grid(spec, nx=101)
        surface = solve_hjb(spec, grid1d, static_flow)
        exact = grid1d.xs
        assert np.max(np.abs(surface - exact[None, :])) <= 1e-8

    def test_constant_data_is_exact(self):
        spec = grid_problem(sigma=0.8, terminal=ConstantTerminal(2.5))
        surface = solve_hjb(spec, default_grid(spec, nx=51), static_flow)
        assert np.all(surface == 2.5)

    def test_cfl_violation_rejected(self):
        spec = grid_problem(sigma=1.0)
        with pytest.raises(GridError):
            solve_hjb(spec, Grid1D(-3.0, 3.0, 61, 5), static_flow)

    def test_one_step_truncation_vanishes_on_quadratic_data(self):
        # quadratic space, linear time: both difference quotients are exact,
        # so a single layer reproduces the closed-form solution in the interior
        dt = 4e-4
        spec = grid_problem(sigma=1.0, terminal=QuadraticTerminal(), horizon=dt)
        grid1d = Grid1D(-3.0, 3.0, 101, 1)
        surface = solve_hjb(spec, grid1d, static_flow)
        exact = grid1d.xs**2 + dt
        interior = slice(1, -1)
        assert np.max(np.abs(surface[0][interior] - exact[interior])) <= 1e-12

    def test_second_order_space_rate_on_quartic_data(self):
        sigma, horizon = 1.0, 0.25

        def quartic(x):
            return x[:, 0] ** 4

        errors = []
        # sigma^2 dt / dx^2 = 0.449 on both grids
        for nx, nt in ((101, 87), (201, 348)):
            spec = grid_problem(sigma=sigma, terminal=quartic, horizon=horizon)
            grid1d = Grid1D(-4.0, 4.0, nx, nt)
            check_stability(spec, grid1d)
            surface = solve_hjb(spec, grid1d, static_flow)
            tau = horizon
            exact = 3.0 * sigma**4 * tau**2  # E[(x0 + sigma B_tau)^4] at x0 = 0
            center = np.argmin(np.abs(grid1d.xs))
            errors.append(abs(surface[0][center] - exact))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.3)

    def test_discrete_comparison_under_terminal_bump(self):
        spec_lo = application_problem()

        def bumped(x):
            return x[:, 0] + 0.5 * np.exp(-(x[:, 0] ** 2))

        spec_hi = grid_problem(
            sigma=0.3, c1=0.25, x0=1.0,
            driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.6, f0=LinearF0(0.5)),
            ambiguity=static_set([(-2.0, -1.0), (1.0, 2.0)]),
            terminal=bumped,
        )
        grid1d = default_grid(spec_lo, nx=101)
        v_lo = solve_hjb(spec_lo, grid1d, static_flow)
        v_hi = solve_hjb(spec_hi, grid1d, static_flow)
        assert np.all(v_hi >= v_lo - 1e-12)

    def test_pointwise_fallback_matches_vectorized_path(self):
        spec_fast = application_problem(horizon=0.1)
        quad = spec_fast.driver
        clone = GenericDriver(
            value_fn=quad.value,
            d_da_fn=quad.d_da,
            d2_da2_fn=quad.d2_da2,
            kappa=quad.kappa,
        )
        spec_slow = grid_problem(
            sigma=0.3, c1=0.25, x0=1.0, horizon=0.1, driver=clone,
            ambiguity=static_set([(-2.0, -1.0), (1.0, 2.0)]),
        )
        grid1d = default_grid(spec_fast, nx=61)
        v_fast = solve_hjb(spec_fast, grid1d, static_flow)
        v_slow = solve_hjb(spec_slow, grid1d, static_flow)
        assert np.max(np.abs(v_fast - v_slow)) <= 1e-9

    def test_application_value_close_to_closed_form(self):
        spec = application_problem()
        surface = solve_hjb(spec, default_grid(spec, nx=201), static_flow)
        grid1d = default_grid(spec, nx=201)
        v0 = float(np.interp(1.0, grid1d.xs, surface[0]))
        target = np.exp(-0.5) - 0.16 * (np.exp(0.5) - 1.0)
        assert abs(v0 - target) / target <= 0.02


class TestFeynmanKac:
    def test_zero_driver_linear_payoff(self):
        spec = grid_problem(sigma=0.5, x0=0.7, terminal=LinearTerminal(np.array([1.0])))
        fbsde_grid = TimeGrid(1.0, 25)
        sol, _ = picard_solve(spec, fbsde_grid, 2000, seed=8)
        report = feynman_kac_check(spec, default_grid(spec, nx=101), fbsde_grid, sol)
        assert report.v0 == pytest.approx(0.7, abs=1e-8)
        assert report.gap <= 5e-2

    def test_refinement_does_not_worsen_the_gap(self):
        spec = application_problem()
        fbsde_grid = TimeGrid(1.0, 50)
        sol, _ = picard_solve(spec, fbsde_grid, 3000, seed=4)
        coarse = feynman_kac_check(spec, default_grid(spec, nx=101), fbsde_grid, sol)
        fine = feynman_kac_check(spec, default_grid(spec, nx=201), fbsde_grid, sol)
        assert fine.gap <= coarse.gap + 5e-3

    def test_box_without_x0_is_rejected(self):
        # np.interp would clamp x0 = 1 to the nearer box edge and report that value
        spec = application_problem()
        fbsde_grid = TimeGrid(1.0, 20)
        sol, _ = picard_solve(spec, fbsde_grid, 500, seed=0)
        for box in [(5.0, 6.0), (-3.0, 0.5)]:
            with pytest.raises(GridError, match="outside the grid box"):
                feynman_kac_check(spec, Grid1D(*box, 41, 2000), fbsde_grid, sol)

    def test_x0_on_a_box_edge_is_accepted(self):
        spec = grid_problem(sigma=0.5, x0=0.7)
        fbsde_grid = TimeGrid(1.0, 10)
        sol, _ = picard_solve(spec, fbsde_grid, 200, seed=0)
        for box in [(0.7, 2.7), (-1.3, 0.7)]:
            report = feynman_kac_check(spec, Grid1D(*box, 41, 400), fbsde_grid, sol)
            assert report.v0 == pytest.approx(0.7, abs=1e-8)


class TestLawsRealizedOnce:
    """``solve_hjb`` realizes the feasible set once per law object its flow hands it."""

    @staticmethod
    def realizations(monkeypatch):
        seen = []
        realize = AmbiguityMap.realize

        def counted(self, law):
            seen.append(law)
            return realize(self, law)

        monkeypatch.setattr(AmbiguityMap, "realize", counted)
        return seen

    def test_one_realization_per_distinct_law(self, monkeypatch):
        spec = grid_problem(
            sigma=0.3, c1=0.25, x0=1.0,
            driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.6, f0=LinearF0(0.5)),
            ambiguity=AmbiguityMap(
                base=IntervalUnion(((-2.0, -1.0), (1.0, 2.0))),
                endpoint_shifts=(0.5, 0.5, 0.5, 0.5),
                alpha=1.0, beta=1.0, theta_bounds=(-0.5, 0.5),
            ),
        )
        fbsde_grid = TimeGrid(1.0, 5)
        sol, _ = picard_solve(spec, fbsde_grid, 200, seed=3)
        grid1d = default_grid(spec, nx=41)
        flow = flow_from_solution(fbsde_grid, sol)
        seen = self.realizations(monkeypatch)
        surface = solve_hjb(spec, grid1d, flow)
        dt = grid1d.dt(spec.horizon)
        handed = {id(flow((layer + 1) * dt)) for layer in range(grid1d.nt)}
        assert {id(law) for law in seen} == handed
        assert len(seen) == len(handed) < grid1d.nt
        # reference: a fresh law object at every layer is realized at every layer
        seen.clear()
        reference = solve_hjb(spec, grid1d, lambda t: EmpiricalMeasure(flow(t).samples))
        assert len(seen) == grid1d.nt
        assert reference.tobytes() == surface.tobytes()
