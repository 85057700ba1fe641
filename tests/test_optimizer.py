import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from theta_fbsde import optimizer
from theta_fbsde import (
    AffineTheta,
    AmbiguityMap,
    ConcavityError,
    DriverState,
    EmpiricalMeasure,
    GenericDriver,
    IntervalUnion,
    LinearF0,
    ParameterError,
    QuadraticPenaltyDriver,
    QuarticDriver,
    UsageError,
    ZeroF0,
    concavity_audit,
    driver_sup,
    envelope_derivative,
    lipschitz_probe,
    maximize_batch,
    maximize_over,
    numeric_second_derivative,
    second_derivative_at_zero,
    static_set,
    unconstrained_interval,
)

WIDE = IntervalUnion(((-10.0, 10.0),))
TWO_REGIME = IntervalUnion(((-2.0, -1.0), (1.0, 2.0)))
POINTED = IntervalUnion(((-2.0, -1.0), (0.0, 0.0), (1.0, 2.0)))


def gap_midpoints(uset):
    return [0.5 * (hi + lo) for (_, hi), (lo, _) in zip(uset.intervals, uset.intervals[1:])]


def scalar_argmax(uset, driver, state):
    """Element-wise maximize_over over a batch state, for comparison with maximize_batch."""
    ys = np.asarray(state.y)
    results = []
    for k in np.ndindex(ys.shape):
        x = None if state.x is None else state.x[k]
        z = None if state.z is None else state.z[k]
        results.append(maximize_over(uset, driver, state._replace(x=x, y=ys[k], z=z)))
    a = np.array([r.a_star for r in results]).reshape(ys.shape)
    tie = np.array([r.tie_flag for r in results]).reshape(ys.shape)
    return a, tie


def cubic_root_bisection(lam, gamma, y, tol=1e-12):
    """Oracle: bisection on the stationarity cubic gamma a^3 + (lam-gamma) a = lam y."""

    def f(a):
        return gamma * a**3 + (lam - gamma) * a - lam * y

    r = 1.0 + max(1.0, (lam * abs(y) / gamma) ** (1.0 / 3.0))
    lo, hi = -r, r
    assert f(lo) < 0 < f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestMaximizeOver:
    def test_quartic_origin(self):
        res = maximize_over(WIDE, QuarticDriver(2.0, 1.0), DriverState(y=0.0))
        assert res.a_star == pytest.approx(0.0, abs=1e-11)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.active_boundary == "interior"

    def test_quadratic_penalty_reduces_to_projection(self):
        driver = QuadraticPenaltyDriver(kappa=1.0, w0=0.6, f0=LinearF0(0.5))
        res = maximize_over(TWO_REGIME, driver, DriverState(y=0.0))
        assert res.a_star == 1.0
        assert res.active_boundary == "lower"

    def test_quartic_cubic_root(self):
        res = maximize_over(WIDE, QuarticDriver(2.0, 1.0), DriverState(y=0.1))
        assert res.a_star == pytest.approx(cubic_root_bisection(2.0, 1.0, 0.1), abs=1e-10)

    def test_interior_residual_tolerance(self):
        res = maximize_over(WIDE, QuarticDriver(2.0, 1.0), DriverState(y=0.3))
        assert res.derivative_residual <= 1e-10

    def test_tie_between_symmetric_wells(self):
        driver = QuadraticPenaltyDriver(kappa=1.0, w0=0.0)
        res = maximize_over(TWO_REGIME, driver, DriverState())
        assert res.a_star == -1.0
        assert res.tie_flag

    def test_non_concave_generic_rejected(self):
        bad = GenericDriver(
            value_fn=lambda s, a: a * a,
            d_da_fn=lambda s, a: 2.0 * a,
            d2_da2_fn=lambda s, a: 2.0,
            kappa=1.0,
        )
        with pytest.raises(ConcavityError):
            maximize_over(IntervalUnion(((-1.0, 1.0),)), bad, DriverState())

    @given(
        st.floats(-3, 3, allow_nan=False),
        st.floats(0.2, 5.0),
        st.floats(-4, 4, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_dominance_over_random_members(self, w0, kappa, y):
        driver = QuadraticPenaltyDriver(kappa=kappa, w0=w0)
        res = maximize_over(TWO_REGIME, driver, DriverState(y=y))
        rng = np.random.default_rng(42)
        lows = np.array([lo for lo, _ in TWO_REGIME.intervals])
        highs = np.array([hi for _, hi in TWO_REGIME.intervals])
        idx = rng.integers(0, 2, size=1000)
        members = lows[idx] + rng.random(1000) * (highs[idx] - lows[idx])
        state = DriverState(y=y)
        values = np.asarray(driver.value(state, members))
        assert res.value >= np.max(values) - 1e-10
        assert TWO_REGIME.contains(res.a_star)

    @given(st.floats(-2, 2, allow_nan=False))
    @settings(max_examples=80)
    def test_quartic_dominance(self, y):
        driver = QuarticDriver(2.0, 1.0)
        res = maximize_over(WIDE, driver, DriverState(y=y))
        grid = np.linspace(-10.0, 10.0, 2001)
        vals = driver.value(DriverState(y=y), grid)
        assert res.value >= np.max(vals) - 1e-10

    def test_boundary_derivative_signs(self):
        driver = QuadraticPenaltyDriver(kappa=2.0, w0=5.0)
        res = maximize_over(TWO_REGIME, driver, DriverState())
        assert res.a_star == 2.0
        assert res.active_boundary == "upper"
        assert driver.d_da(DriverState(), 2.0) >= 0.0

        driver = QuadraticPenaltyDriver(kappa=2.0, w0=-5.0)
        res = maximize_over(TWO_REGIME, driver, DriverState())
        assert res.a_star == -2.0
        assert res.active_boundary == "lower"
        assert driver.d_da(DriverState(), -2.0) <= 0.0

    @given(st.floats(-1.5, 1.5, allow_nan=False), st.floats(0.05, 2.0))
    @settings(max_examples=60)
    def test_monotone_in_set_inclusion(self, y, pad):
        driver = QuarticDriver(2.0, 1.0)
        small = IntervalUnion(((-1.0, 1.0),))
        large = IntervalUnion(((-1.0 - pad, 1.0 + pad),))
        g_small = driver_sup(small, driver, DriverState(y=y))
        g_large = driver_sup(large, driver, DriverState(y=y))
        assert g_large >= g_small - 1e-12

    @given(st.floats(-1.0, 1.0, allow_nan=False))
    @settings(max_examples=100)
    def test_quartic_stationarity_identity(self, y):
        lam, gamma = 2.0, 1.0
        res = maximize_over(WIDE, QuarticDriver(lam, gamma), DriverState(y=y))
        a = res.a_star
        assert abs(gamma * a**3 + (lam - gamma) * a - lam * y) <= 1e-10


class TestMaximizeBatch:
    @given(
        st.sampled_from([TWO_REGIME, WIDE, POINTED]),
        st.floats(0.1, 3.0),
        st.floats(0.1, 3.0),
        st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_quartic_matches_scalar_bitwise(self, uset, gamma, excess, ys):
        driver = QuarticDriver(gamma + excess, gamma)
        state = DriverState(y=np.array(ys + [0.0] + gap_midpoints(uset)))
        a, tie = maximize_batch(uset, driver, state)
        a_ref, tie_ref = scalar_argmax(uset, driver, state)
        assert np.array_equal(a, a_ref)
        assert np.array_equal(tie, tie_ref)

    @given(
        st.sampled_from([TWO_REGIME, WIDE, POINTED]),
        st.floats(0.2, 5.0),
        st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_anchored_penalty_matches_scalar_bitwise(self, uset, kappa, ys):
        # reference = y, so a y at a gap midpoint is equidistant from both sides
        driver = GenericDriver(
            value_fn=lambda s, a: -0.5 * kappa * (a - s.y) ** 2,
            d_da_fn=lambda s, a: -kappa * (a - s.y),
            d2_da2_fn=lambda s, a: -kappa + 0.0 * a,
            kappa=kappa,
        )
        state = DriverState(y=np.array(ys + gap_midpoints(uset)))
        a, tie = maximize_batch(uset, driver, state)
        a_ref, tie_ref = scalar_argmax(uset, driver, state)
        assert np.array_equal(a, a_ref)
        assert np.array_equal(tie, tie_ref)

    def test_ties_resolve_toward_smaller_control(self):
        driver = QuadraticPenaltyDriver(kappa=1.0, w0=0.0)
        a, tie = maximize_batch(TWO_REGIME, driver, DriverState(y=np.zeros(5)))
        assert np.all(a == -1.0)
        assert np.all(tie)

    def test_batch_shape_and_array_state_layout(self):
        # x (n, k), y (n,), z (n, d): the control tracks x[:, 0] + z[:, 1]
        rng = np.random.default_rng(4)
        x, z = rng.normal(size=(6, 2)), rng.normal(size=(6, 3))
        driver = GenericDriver(
            value_fn=lambda s, a: -0.5 * (a - s.x[..., 0] - s.z[..., 1]) ** 2,
            d_da_fn=lambda s, a: -(a - s.x[..., 0] - s.z[..., 1]),
            d2_da2_fn=lambda s, a: -1.0,
            kappa=1.0,
        )
        state = DriverState(x=x, y=np.zeros(6), z=z)
        a, tie = maximize_batch(WIDE, driver, state)
        assert a.shape == tie.shape == (6,)
        assert np.allclose(a, x[:, 0] + z[:, 1], atol=1e-10)
        assert np.array_equal(a, scalar_argmax(WIDE, driver, state)[0])

        grid_y = np.linspace(-1.5, 1.5, 12).reshape(3, 4)
        a2, tie2 = maximize_batch(TWO_REGIME, QuarticDriver(2.0, 1.0), DriverState(y=grid_y))
        assert a2.shape == tie2.shape == (3, 4)
        assert np.array_equal(a2, scalar_argmax(TWO_REGIME, QuarticDriver(2.0, 1.0), DriverState(y=grid_y))[0])

    def test_concavity_failure_names_the_element(self):
        # concave for y <= 1, convex beyond: the third element is the first failure
        driver = GenericDriver(
            value_fn=lambda s, a: -0.5 * np.where(s.y > 1.0, -1.0, 1.0) * a * a,
            d_da_fn=lambda s, a: -np.where(s.y > 1.0, -1.0, 1.0) * a,
            d2_da2_fn=lambda s, a: -np.where(s.y > 1.0, -1.0, 1.0) + 0.0 * a,
            kappa=1.0,
        )
        x = np.arange(8.0).reshape(4, 2)
        state = DriverState(x=x, y=np.array([0.0, 0.5, 2.0, 3.0]))
        with pytest.raises(ConcavityError) as err:
            maximize_batch(WIDE, driver, state)
        point, a = err.value.witness
        assert point.y == 2.0
        assert np.array_equal(point.x, x[2])
        assert a == -10.0
        with pytest.raises(ConcavityError) as scalar_err:
            maximize_over(WIDE, driver, point)
        assert scalar_err.value.witness[1] == a


def newton_oracle(driver):
    """The same objective without a closed form, so the argmax runs bracketed Newton."""
    return GenericDriver(
        value_fn=driver.value, d_da_fn=driver.d_da, d2_da2_fn=driver.d2_da2, kappa=driver.kappa
    )


class TestClosedFormArgmax:
    # (lam, gamma): lam - gamma = 0.1 is the near-degenerate pair, where the
    # Newton root's own tolerance 1e-12 / (lam - gamma) is loosest
    PAIRS = [(2.0, 1.0), (1.1, 1.0), (3.1, 3.0), (6.0, 0.5), (0.35, 0.25)]
    SETS = [
        WIDE, TWO_REGIME, POINTED,
        IntervalUnion(((-2.0, -0.5), (0.5, 2.0))),
        IntervalUnion(((-1.0, -1.0), (-0.25, 0.1), (0.3, 0.3), (0.9, 4.0))),
    ]

    @pytest.mark.parametrize("lam,gamma", PAIRS)
    def test_quartic_matches_newton(self, lam, gamma):
        driver = QuarticDriver(lam, gamma)
        oracle = newton_oracle(driver)
        bound = 2.0 * optimizer._DERIV_TOL / (lam - gamma)
        for uset in self.SETS:
            # a y whose stationary control sits at each gap midpoint, and the midpoints as y
            mids = np.array(gap_midpoints(uset))
            ys = np.concatenate((
                np.linspace(-6.0, 6.0, 2401),
                mids,
                (gamma * mids**3 + (lam - gamma) * mids) / lam,
            ))
            state = DriverState(y=ys)
            a, tie = maximize_batch(uset, driver, state)
            a_ref, tie_ref = maximize_batch(uset, oracle, state)
            assert np.array_equal(tie, tie_ref)
            assert np.max(np.abs(a - a_ref)) <= bound

    @pytest.mark.parametrize("lam,gamma", PAIRS)
    def test_quartic_stationary_point_on_an_endpoint(self, lam, gamma):
        driver = QuarticDriver(lam, gamma)
        oracle = newton_oracle(driver)
        bound = 2.0 * optimizer._DERIV_TOL / (lam - gamma)
        for y in np.linspace(-6.0, 6.0, 49):
            state = DriverState(y=float(y))
            s = driver.stationary_control(state)
            assert abs(driver.d_da(state, s)) <= 1e-12 * max(1.0, lam * abs(y))
            for uset in (IntervalUnion(((s, s + 1.0),)), IntervalUnion(((s - 1.0, s),)),
                         IntervalUnion(((s - 2.0, s - 1.0), (s, s + 1.0)))):
                res = maximize_over(uset, driver, state)
                ref = maximize_over(uset, oracle, state)
                assert res.a_star == s
                assert res.active_boundary in ("lower", "upper")
                assert res.tie_flag == ref.tie_flag
                assert res.interval_index == ref.interval_index
                assert abs(res.a_star - ref.a_star) <= bound

    def test_boundary_labels_and_residual(self):
        driver = QuadraticPenaltyDriver(kappa=2.0, w0=0.25)
        state = DriverState()
        for uset, boundary, a in [
            (IntervalUnion(((0.25, 1.0),)), "lower", 0.25),
            (IntervalUnion(((-1.0, 0.25),)), "upper", 0.25),
            (IntervalUnion(((-1.0, 1.0),)), "interior", 0.25),
            (IntervalUnion(((0.5, 1.0),)), "lower", 0.5),
            (IntervalUnion(((0.25, 0.25),)), "point", 0.25),
        ]:
            res = maximize_over(uset, driver, state)
            assert (res.a_star, res.active_boundary) == (a, boundary)
            assert res.derivative_residual == abs(driver.d_da(state, a))

    def test_built_in_families_never_run_newton(self, monkeypatch):
        def newton(*args):
            raise AssertionError("Newton ran for a driver with a closed-form stationary point")

        monkeypatch.setattr(optimizer, "_argmax_on_interval", newton)
        monkeypatch.setattr(optimizer, "_newton_batch", newton)
        ys = np.linspace(-3.0, 3.0, 25)
        for driver in (QuarticDriver(2.0, 1.0), QuadraticPenaltyDriver(kappa=1.0, w0=0.6)):
            for uset in self.SETS:
                maximize_batch(uset, driver, DriverState(y=ys))
                for y in ys:
                    maximize_over(uset, driver, DriverState(y=float(y)))
        with pytest.raises(AssertionError, match="Newton ran"):
            maximize_over(WIDE, newton_oracle(QuarticDriver(2.0, 1.0)), DriverState(y=0.5))


class TestTableF0:
    def test_interpolation_and_clamping(self):
        from theta_fbsde import TableF0

        table = TableF0(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 0.0, 4.0]))
        assert table(0.5) == pytest.approx(1.0)
        assert table(-0.5) == pytest.approx(0.5)
        assert table(10.0) == 4.0  # clamped beyond the last knot
        assert table.lipschitz == pytest.approx(2.0)

    def test_drives_the_optimized_value(self):
        from theta_fbsde import TableF0

        table = TableF0(np.array([-1.0, 1.0]), np.array([0.0, 2.0]))
        driver = QuadraticPenaltyDriver(kappa=1.0, w0=0.6, f0=table)
        value = driver_sup(TWO_REGIME, driver, DriverState(y=0.5))
        assert value == pytest.approx(table(0.5) - 0.5 * 0.4**2)

    def test_unsorted_knots_rejected(self):
        from theta_fbsde import TableF0

        with pytest.raises(ParameterError):
            TableF0(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


class TestDriverSup:
    def test_quartic_zero(self):
        assert driver_sup(WIDE, QuarticDriver(2.0, 1.0), DriverState(y=0.0)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_quadratic_inside_set(self):
        driver = QuadraticPenaltyDriver(kappa=1.0, w0=1.5)
        assert driver_sup(TWO_REGIME, driver, DriverState()) == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_projection_distance(self):
        driver = QuadraticPenaltyDriver(kappa=1.0, w0=0.6)
        value = driver_sup(TWO_REGIME, driver, DriverState())
        assert value == pytest.approx(-0.5 * 0.4**2, abs=1e-15)


class TestEnvelope:
    def test_derivative_at_origin(self):
        assert envelope_derivative(QuarticDriver(2.0, 1.0), 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_matches_finite_difference_at_origin(self):
        driver = QuarticDriver(2.0, 1.0)
        h = 1e-4
        fd = (
            driver_sup(WIDE, driver, DriverState(y=h))
            - driver_sup(WIDE, driver, DriverState(y=-h))
        ) / (2 * h)
        assert abs(envelope_derivative(driver, 0.0) - fd) <= 1e-6

    def test_value_from_cubic_root(self):
        driver = QuarticDriver(2.0, 1.0)
        root = cubic_root_bisection(2.0, 1.0, 0.1)
        assert envelope_derivative(driver, 0.1) == pytest.approx(2.0 * (root - 0.1), abs=1e-9)

    def test_rejects_other_families(self):
        with pytest.raises(UsageError):
            envelope_derivative(QuadraticPenaltyDriver(kappa=1.0, w0=0.0), 0.0)


class TestSecondDerivative:
    @pytest.mark.parametrize("lam,gamma,expected", [(2.0, 1.0, 2.0), (3.0, 1.0, 1.5)])
    def test_closed_form(self, lam, gamma, expected):
        assert second_derivative_at_zero(QuarticDriver(lam, gamma)) == pytest.approx(expected)

    def test_numeric_agreement(self):
        driver = QuarticDriver(2.0, 1.0)
        numeric = numeric_second_derivative(driver, h=1e-3)
        assert numeric == pytest.approx(second_derivative_at_zero(driver), rel=1e-4)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ParameterError):
            QuarticDriver(1.0, 1.0)
        with pytest.raises(ParameterError):
            QuarticDriver(1.0, 2.0)


INF, NAN = float("inf"), float("nan")


class TestNonFiniteParameters:
    """Non-finite driver parameters are rejected where they enter."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: QuadraticPenaltyDriver(kappa=INF, w0=0.0),
            lambda: QuadraticPenaltyDriver(kappa=NAN, w0=0.0),
            lambda: QuadraticPenaltyDriver(kappa=1.0, w0=NAN),
            lambda: QuadraticPenaltyDriver(kappa=1.0, w0=INF),
            lambda: QuadraticPenaltyDriver(kappa=1.0, w0=-INF),
            lambda: QuarticDriver(INF, 1.0),
            lambda: QuarticDriver(INF, INF),
            lambda: QuarticDriver(NAN, 1.0),
            lambda: QuarticDriver(2.0, NAN),
            lambda: GenericDriver(None, None, None, kappa=INF),
            lambda: GenericDriver(None, None, None, kappa=NAN),
            lambda: LinearF0(NAN),
            lambda: LinearF0(INF),
            lambda: LinearF0(-INF),
        ],
        ids=[
            "quadratic_kappa_inf", "quadratic_kappa_nan", "w0_nan", "w0_inf", "w0_-inf",
            "quartic_lam_inf", "quartic_both_inf", "quartic_lam_nan", "quartic_gamma_nan",
            "generic_kappa_inf", "generic_kappa_nan", "slope_nan", "slope_inf", "slope_-inf",
        ],
    )
    def test_rejected(self, build):
        with pytest.raises(ParameterError):
            build()


class TestConcavityAudit:
    def test_quadratic_exact_modulus(self):
        audit = concavity_audit(QuadraticPenaltyDriver(kappa=1.0, w0=0.0))
        assert audit.passed
        assert audit.min_modulus == pytest.approx(1.0)

    def test_quartic_worst_case_modulus(self):
        audit = concavity_audit(QuarticDriver(2.0, 1.0))
        assert audit.passed
        assert audit.min_modulus >= 1.0 - 1e-12

    def test_violating_generic_driver_fails_with_witness(self):
        driver = GenericDriver(
            value_fn=lambda s, a: -((a - 2.0) ** 4),
            d_da_fn=lambda s, a: -4.0 * (a - 2.0) ** 3,
            d2_da2_fn=lambda s, a: -12.0 * (a - 2.0) ** 2,
            kappa=0.5,
        )
        audit = concavity_audit(driver, control_range=(1.0, 3.0))
        assert not audit.passed
        assert audit.witness is not None


class TestLipschitzProbe:
    def test_single_interval_projection_contraction(self):
        # moving set, fixed reference: projection varies 1-Lipschitz with the law mean
        ambiguity = AmbiguityMap(
            base=IntervalUnion(((0.0, 1.0),)),
            endpoint_shifts=(1.0, 1.0),
            theta_rule=AffineTheta(alpha=1.0, beta=0.0, lo=-3.0, hi=3.0),
        )
        driver = QuadraticPenaltyDriver(kappa=1.0, w0=0.5)

        def sampler(rng):
            return DriverState(y=0.0, mu=EmpiricalMeasure(rng.uniform(-2.0, 2.0, size=8)))

        probe = lipschitz_probe(ambiguity, driver, sampler, n_pairs=300, seed=1)
        assert probe.max_ratio <= 1.0 + 1e-9

    def test_identical_pair_excluded(self):
        ambiguity = static_set([(0.0, 1.0)])
        driver = QuadraticPenaltyDriver(kappa=1.0, w0=0.5)

        def sampler(rng):
            return DriverState(y=1.0)

        probe = lipschitz_probe(ambiguity, driver, sampler, n_pairs=5, seed=0)
        assert probe.excluded == 5
        assert probe.pairs_used == 0

    def test_quartic_local_slope_near_origin(self):
        ambiguity = static_set([(-10.0, 10.0)])
        driver = QuarticDriver(2.0, 1.0)

        def sampler(rng):
            return DriverState(y=rng.uniform(-1e-3, 1e-3))

        probe = lipschitz_probe(ambiguity, driver, sampler, n_pairs=400, seed=2)
        # the argmax slope in y at the origin is lam / (lam - gamma) = 2
        assert probe.max_ratio == pytest.approx(2.0, rel=5e-3)

    def test_gap_crossings_are_excluded(self):
        ambiguity = static_set([(-2.0, -1.0), (1.0, 2.0)])
        driver = QuadraticPenaltyDriver(kappa=1.0, w0=0.0)

        def sampler(rng):
            # reference in the gap, law irrelevant: every pair lands on the tie
            return DriverState(y=rng.normal())

        probe = lipschitz_probe(ambiguity, driver, sampler, n_pairs=50, seed=3)
        assert probe.pairs_used == 0
        assert probe.excluded == 50
