import dataclasses
import hashlib
import math
import pickle

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
    concavity_audit,
    driver_sup,
    maximize_batch,
    maximize_over,
    w2,
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


def anchored_penalty(kappa):
    """-kappa/2 (a - y)^2 without a closed form.

    The reference is y, so a y at a gap midpoint is equidistant from both sides.
    """
    return GenericDriver(
        value_fn=lambda s, a: -0.5 * kappa * (a - s.y) ** 2,
        d_da_fn=lambda s, a: -kappa * (a - s.y),
        d2_da2_fn=lambda s, a: -kappa + 0.0 * a,
        kappa=kappa,
    )


def power_quartic(kappa):
    """The quartic family with gamma = 1, lam = 1 + kappa, written with ``a**3`` and ``a**4``.

    Python-float ``**`` and numpy's ``power`` round differently, so scalar
    and batched argmax agree on this driver only if both run one arithmetic.
    """
    lam = 1.0 + kappa
    return GenericDriver(
        value_fn=lambda s, a: -0.25 * a**4 + 0.5 * a**2 - 0.5 * lam * (a - s.y) ** 2,
        d_da_fn=lambda s, a: -(a**3) + a - lam * (a - s.y),
        d2_da2_fn=lambda s, a: -3.0 * a**2 + 1.0 - lam,
        kappa=kappa,
    )


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
        driver, state = QuarticDriver(2.0, 1.0), DriverState(y=0.0)
        res = maximize_over(WIDE, driver, state)
        assert res.a_star == pytest.approx(0.0, abs=1e-11)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        lo, hi = WIDE.intervals[res.interval_index]
        assert lo < res.a_star < hi
        assert abs(driver.d_da(state, res.a_star)) <= 1e-10

    def test_quadratic_penalty_reduces_to_projection(self):
        driver = QuadraticPenaltyDriver(kappa=1.0, w0=0.6, f0=LinearF0(0.5))
        res = maximize_over(TWO_REGIME, driver, DriverState(y=0.0))
        assert res.a_star == 1.0
        assert res.a_star == TWO_REGIME.intervals[res.interval_index][0]
        assert driver.d_da(DriverState(y=0.0), res.a_star) <= 0.0

    def test_quartic_cubic_root(self):
        res = maximize_over(WIDE, QuarticDriver(2.0, 1.0), DriverState(y=0.1))
        assert res.a_star == pytest.approx(cubic_root_bisection(2.0, 1.0, 0.1), abs=1e-10)

    def test_interior_residual_tolerance(self):
        driver, state = QuarticDriver(2.0, 1.0), DriverState(y=0.3)
        res = maximize_over(WIDE, driver, state)
        assert abs(driver.d_da(state, res.a_star)) <= 1e-10

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
        assert res.a_star == TWO_REGIME.intervals[res.interval_index][1]
        assert driver.d_da(DriverState(), 2.0) >= 0.0

        driver = QuadraticPenaltyDriver(kappa=2.0, w0=-5.0)
        res = maximize_over(TWO_REGIME, driver, DriverState())
        assert res.a_star == -2.0
        assert res.a_star == TWO_REGIME.intervals[res.interval_index][0]
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
        st.sampled_from([anchored_penalty, power_quartic]),
        st.floats(0.2, 5.0),
        st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_anchored_penalty_matches_scalar_bitwise(self, uset, family, kappa, ys):
        # a fixed grid beside the drawn values: about 1 in 100 grid states
        # tells Python-float powers from numpy's in the last Newton step
        driver = family(kappa)
        state = DriverState(y=np.concatenate((ys, gap_midpoints(uset), np.linspace(-3.0, 3.0, 31))))
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


# a middle interval that closes to the point 0 at theta = 1
PINCHED = AmbiguityMap(
    base=IntervalUnion(((-2.0, -1.0), (0.0, 0.4), (1.0, 2.0))),
    endpoint_shifts=(0.0, 0.0, 0.0, -0.4, 0.0, 0.0),
    theta_rule=AffineTheta(alpha=1.0, beta=0.0, lo=0.0, hi=1.0),
)


def one_call_per_row(usets, driver, state):
    """maximize_batch on each leading index with its own set, for comparison with one stacked call."""
    rows = [
        maximize_batch(uset, driver, DriverState(t=state.t[i, 0], x=state.x[i], y=state.y[i], z=state.z[i]))
        for i, uset in enumerate(usets)
    ]
    return np.array([a for a, _ in rows]), np.array([tie for _, tie in rows])


class TestStackedSets:
    """One set per leading index: the endpoints stack into columns."""

    @pytest.mark.parametrize("thetas", [(0.0, 0.3, 0.7, 1.0), (1.0, 1.0, 1.0), (0.0, 0.5)])
    @pytest.mark.parametrize(
        "driver",
        [QuarticDriver(2.0, 1.0), anchored_penalty(1.5), power_quartic(0.7)],
        ids=["quartic", "anchored", "power_quartic"],
    )
    def test_equals_one_call_per_row(self, thetas, driver):
        rng = np.random.default_rng(len(thetas))
        b, n = len(thetas), 50
        usets = [PINCHED.realize_at(theta) for theta in thetas]
        y = rng.uniform(-2.5, 2.5, (b, n))
        y[:, :3] = [0.0, -0.5, 0.5]  # at the gaps' middles the anchored sets tie
        state = DriverState(
            t=np.linspace(0.0, 1.0, b)[:, None], x=rng.normal(size=(b, n, 1)), y=y,
            z=rng.normal(size=(b, n, 2)),
        )
        a, tie = maximize_batch(usets, driver, state)
        a_ref, tie_ref = one_call_per_row(usets, driver, state)
        assert a.tobytes() == a_ref.tobytes()
        assert np.array_equal(tie, tie_ref)

    def test_point_interval_of_some_rows_is_not_differentiated(self):
        # the curvature fails only at a = 0 where x > 0: row 0 (x = 1) has the
        # point {0}, whose endpoint is taken unchecked; row 1 (x = 0) runs
        # Newton on [0, 0.4] from a = 0, where the check passes
        def d2_da2(s, a):
            return np.where((a == 0.0) & (s.x[..., 0] > 0.0), 1.0, -1.0)

        driver = GenericDriver(
            value_fn=lambda s, a: -0.5 * (a - s.y) ** 2,
            d_da_fn=lambda s, a: -(a - s.y),
            d2_da2_fn=d2_da2,
            kappa=1.0,
        )
        usets = [PINCHED.realize_at(1.0), PINCHED.realize_at(0.0)]
        x = np.zeros((2, 4, 1))
        x[0] = 1.0
        y = np.array([[6.0, 0.1, -0.2, 0.3], [0.1] * 4])
        state = DriverState(t=np.zeros((2, 1)), x=x, y=y, z=np.zeros((2, 4, 1)))
        a, tie = maximize_batch(usets, driver, state)
        a_ref, tie_ref = one_call_per_row(usets, driver, state)
        assert a.tobytes() == a_ref.tobytes()
        assert np.array_equal(tie, tie_ref)
        assert np.array_equal(a[0], [2.0, 0.0, 0.0, 0.0])  # the point wins near y = 0
        # the scalar path takes the same endpoint unchecked ...
        for k in range(4):
            res = maximize_over(usets[0], driver, DriverState(x=x[0, k], y=y[0, k]))
            assert (res.a_star, res.tie_flag) == (a[0, k], tie[0, k])
        assert res.interval_index == 1
        # ... and still checks an interval of positive length from the same endpoint
        with pytest.raises(ConcavityError):
            maximize_over(usets[1], driver, DriverState(x=x[0, 1], y=0.1))

    def test_sets_must_match_the_batch(self):
        state = DriverState(y=np.zeros((2, 3)))
        with pytest.raises(UsageError, match="one set per leading index"):
            maximize_batch([TWO_REGIME], QuarticDriver(2.0, 1.0), state)
        with pytest.raises(UsageError, match="same number of intervals"):
            maximize_batch([TWO_REGIME, WIDE], QuarticDriver(2.0, 1.0), state)
        with pytest.raises(UsageError):
            maximize_batch([TWO_REGIME], QuarticDriver(2.0, 1.0), DriverState(y=0.0))

    def test_witness_carries_the_element_time(self):
        driver = GenericDriver(
            value_fn=lambda s, a: -0.5 * np.where(s.y > 1.0, -1.0, 1.0) * a * a,
            d_da_fn=lambda s, a: -np.where(s.y > 1.0, -1.0, 1.0) * a,
            d2_da2_fn=lambda s, a: -np.where(s.y > 1.0, -1.0, 1.0) + 0.0 * a,
            kappa=1.0,
        )
        y = np.zeros((3, 4))
        y[2, 1] = 2.0
        x = np.arange(24.0).reshape(3, 4, 2)
        state = DriverState(t=np.array([[0.0], [0.25], [0.5]]), x=x, y=y, z=None)
        with pytest.raises(ConcavityError) as err:
            maximize_batch([WIDE] * 3, driver, state)
        point, a = err.value.witness
        assert type(point.t) is float and point.t == 0.5
        assert point.y == 2.0 and np.array_equal(point.x, x[2, 1]) and point.z is None
        assert a == -10.0


def point_interval_digest(driver) -> str:
    """sha256 of the argmax on fixed states over ``PINCHED`` sets, point intervals among them.

    Covers a stack whose middle interval is a point in some sets, a stack
    where it is a point in all, one set for the whole batch, and the scalar
    path on the pinched set and on one whose middle interval is not a point.
    """
    rng = np.random.default_rng(11)
    n = 24
    y = np.concatenate(([0.0, -0.5, 0.5, 0.05, -0.05, 6.0], rng.uniform(-2.5, 2.5, n - 6)))
    digest = hashlib.sha256()
    for thetas in [(1.0, 0.0, 0.6, 1.0), (1.0, 1.0)]:
        b = len(thetas)
        state = DriverState(
            t=np.linspace(0.0, 1.0, b)[:, None], x=rng.normal(size=(b, n, 1)),
            y=np.tile(y, (b, 1)) + rng.normal(scale=0.1, size=(b, n)), z=rng.normal(size=(b, n, 2)),
        )
        a, tie = maximize_batch([PINCHED.realize_at(theta) for theta in thetas], driver, state)
        digest.update(a.tobytes() + tie.tobytes())
    for theta in (1.0, 0.6):
        uset = PINCHED.realize_at(theta)
        a, tie = maximize_batch(uset, driver, DriverState(y=y))
        digest.update(a.tobytes() + tie.tobytes())
        for yk in y:
            res = maximize_over(uset, driver, DriverState(y=float(yk)))
            digest.update(np.array([res.a_star, res.value, res.tie_flag, res.interval_index]).tobytes())
    return digest.hexdigest()


class TestPointIntervalPin:
    """Golden digests of the argmax around point intervals.

    Both sides of ``test_equals_one_call_per_row`` run the same kernel, so a
    bit that moves in both goes unseen there; these digests were taken when
    point intervals still had their own branches.  No BLAS call is involved.
    """

    @pytest.mark.parametrize("driver,expected", [
        (QuarticDriver(2.0, 1.0), "f3ae834622c28048e0683f5642673f33f65b39e0c90ac99fdd0f498d3fdca06e"),
        (anchored_penalty(1.5), "75c192396b6666b795ba4ba46a2f8351efcf85c885c82ca4f2cd0cb7180fc8a6"),
        (power_quartic(0.7), "2d84a8a4fa27de6f20fcd4157eef171a378eebb6afd301d77b964ad4816b7604"),
    ], ids=["quartic", "anchored", "power_quartic"])
    def test_digest(self, driver, expected):
        assert point_interval_digest(driver) == expected


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
                assert res.a_star in uset.intervals[res.interval_index]  # an endpoint
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
            lo, hi = uset.intervals[res.interval_index]
            label = "point" if lo == hi else "lower" if res.a_star == lo else (
                "upper" if res.a_star == hi else "interior")
            assert (res.a_star, label) == (a, boundary)
            slope = driver.d_da(state, res.a_star)
            if label == "interior":
                assert abs(slope) <= 1e-10
            elif label == "lower":
                assert slope <= 0.0
            elif label == "upper":
                assert slope >= 0.0

    def test_built_in_families_never_run_newton(self, monkeypatch):
        shapes = []

        def newton(driver, state, shape, lo, hi):
            shapes.append(shape)
            raise AssertionError("Newton ran")

        monkeypatch.setattr(optimizer, "_newton_batch", newton)
        ys = np.linspace(-3.0, 3.0, 25)
        for driver in (QuarticDriver(2.0, 1.0), QuadraticPenaltyDriver(kappa=1.0, w0=0.6)):
            for uset in self.SETS:
                maximize_batch(uset, driver, DriverState(y=ys))
                for y in ys:
                    maximize_over(uset, driver, DriverState(y=float(y)))
        assert shapes == []
        # a driver without a closed form reaches the one Newton kernel from both paths
        generic = newton_oracle(QuarticDriver(2.0, 1.0))
        with pytest.raises(AssertionError, match="Newton ran"):
            maximize_over(WIDE, generic, DriverState(y=0.5))
        with pytest.raises(AssertionError, match="Newton ran"):
            maximize_batch(WIDE, generic, DriverState(y=ys))
        assert shapes == [(), ys.shape]

    @pytest.mark.parametrize("driver,calls", [
        (QuadraticPenaltyDriver(kappa=1.0, w0=0.6), 0),
        (QuarticDriver(2.0, 1.0), 1),
    ])
    def test_derivative_read_only_by_the_stationary_control(self, monkeypatch, driver, calls):
        counted = []
        d_da = type(driver).d_da

        def counting(self, state, a):
            counted.append(a)
            return d_da(self, state, a)

        monkeypatch.setattr(type(driver), "d_da", counting)
        for uset in (WIDE, TWO_REGIME):
            for y in (-3.0, 0.0, 0.7):
                counted.clear()
                maximize_over(uset, driver, DriverState(y=y))
                assert len(counted) == calls


class TestQuarticRootConstants:
    """``QuarticDriver`` keeps the root formula's constant factors from construction."""

    @staticmethod
    def written_out(driver, y):
        """The root formula with its constants computed at the call, then one Newton step."""
        lam, gamma = driver.lam, driver.gamma
        p = (lam - gamma) / gamma
        r = math.sqrt(p / 3.0)
        s = 2.0 * r * np.sinh(np.arcsinh(1.5 * lam / (gamma * p * r) * y) / 3.0)
        if s.ndim == 0:
            s = float(s)
        state = DriverState(y=y)
        return s - driver.d_da(state, s) / driver.d2_da2(state, s)

    @pytest.mark.parametrize("lam,gamma", TestClosedFormArgmax.PAIRS)
    def test_stationary_control_bits(self, lam, gamma):
        driver = QuarticDriver(lam, gamma)
        ys = np.linspace(-6.0, 6.0, 2401)
        ref = self.written_out(driver, ys)
        assert ref.tobytes() == driver.stationary_control(DriverState(y=ys)).tobytes()
        scalar = [driver.stationary_control(DriverState(y=y)) for y in ys.tolist()]
        assert all(type(s) is float for s in scalar)
        assert np.array(scalar).tobytes() == ref.tobytes()
        assert scalar == [self.written_out(driver, y) for y in ys.tolist()]

    def test_replace_recomputes_the_constants(self):
        driver = dataclasses.replace(QuarticDriver(2.0, 1.0), lam=3.0)
        fresh = QuarticDriver(3.0, 1.0)
        assert (driver._root_scale, driver._root_gain) == (fresh._root_scale, fresh._root_gain)
        ys = np.linspace(-6.0, 6.0, 241)
        assert driver.stationary_control(DriverState(y=ys)).tobytes() == (
            self.written_out(fresh, ys).tobytes()
        )
        with pytest.raises(ParameterError):
            dataclasses.replace(fresh, lam=0.5)

    def test_equality_hash_repr_and_pickle_unchanged(self):
        driver = QuarticDriver(2.0, 1.0)
        assert driver == QuarticDriver(2.0, 1.0) and driver != QuarticDriver(3.0, 1.0)
        assert hash(driver) == hash(QuarticDriver(2.0, 1.0)) == hash((2.0, 1.0))
        assert repr(driver) == "QuarticDriver(lam=2.0, gamma=1.0)"
        assert dataclasses.asdict(driver) == {"lam": 2.0, "gamma": 1.0}
        # a pickle holds the two fields, as before the constants were kept
        assert driver.__reduce_ex__(pickle.DEFAULT_PROTOCOL)[2] == {"lam": 2.0, "gamma": 1.0}
        copy = pickle.loads(pickle.dumps(driver))
        assert copy == driver and hash(copy) == hash(driver)
        assert copy.__dict__ == driver.__dict__
        assert copy.stationary_control(DriverState(y=0.7)) == driver.stationary_control(
            DriverState(y=0.7)
        )


class TestScalarAndArrayValues:
    """A built-in driver's value has the same bits at floats as at array elements.

    Both families square by a product.  Python's float ``** 2`` goes through
    libm's ``pow``, which rounds about 1 square in 1500 of these draws one ulp
    away from the product that numpy's array square gives; the batched
    martingale check then would not reproduce the scalar optimized driver.
    """

    @pytest.mark.parametrize("driver", [
        QuarticDriver(2.0, 1.0), QuarticDriver(0.35, 0.25),
        QuadraticPenaltyDriver(kappa=1.3, w0=0.6, f0=LinearF0(0.5)),
    ], ids=["quartic", "quartic-near-degenerate", "quadratic-penalty"])
    def test_value_bits(self, driver):
        rng = np.random.default_rng(3)
        ys, controls = rng.uniform(-6.0, 6.0, 20_000), rng.uniform(-3.0, 3.0, 20_000)
        batched = driver.value(DriverState(y=ys), controls).tolist()
        scalar = [driver.value(DriverState(y=y), a) for y, a in zip(ys.tolist(), controls.tolist())]
        assert scalar == batched


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
        assert QuarticDriver(2.0, 1.0).envelope_slope(0.0) == pytest.approx(0.0, abs=1e-10)

    def test_matches_finite_difference_at_origin(self):
        driver = QuarticDriver(2.0, 1.0)
        h = 1e-4
        fd = (
            driver_sup(WIDE, driver, DriverState(y=h))
            - driver_sup(WIDE, driver, DriverState(y=-h))
        ) / (2 * h)
        assert abs(driver.envelope_slope(0.0) - fd) <= 1e-6

    def test_value_from_cubic_root(self):
        driver = QuarticDriver(2.0, 1.0)
        root = cubic_root_bisection(2.0, 1.0, 0.1)
        assert driver.envelope_slope(0.1) == pytest.approx(2.0 * (root - 0.1), abs=1e-9)


class TestSecondDerivative:
    @pytest.mark.parametrize("lam,gamma,expected", [(2.0, 1.0, 2.0), (3.0, 1.0, 1.5)])
    def test_closed_form(self, lam, gamma, expected):
        assert QuarticDriver(lam, gamma).curvature_at_zero == pytest.approx(expected)

    def test_numeric_agreement(self):
        driver = QuarticDriver(2.0, 1.0)
        numeric = driver.numeric_curvature()
        assert numeric == pytest.approx(driver.curvature_at_zero, rel=1e-4)

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

    def test_nan_second_derivative_fails_and_is_the_witness(self):
        # NaN everywhere, and NaN only for a > 4 (the range endpoint 5 is sampled)
        for d2, first_nan_a in [
            (lambda s, a: np.full(np.shape(a), np.nan), 0.0),
            (lambda s, a: np.where(a > 4.0, np.nan, -2.0), 5.0),
        ]:
            driver = GenericDriver(value_fn=None, d_da_fn=None, d2_da2_fn=d2, kappa=1.0)
            audit = concavity_audit(driver)
            assert math.isnan(audit.min_modulus)
            assert not audit.passed
            state, a = audit.witness
            assert a == first_nan_a
            assert math.isnan(float(d2(state, np.array(a))))


class TestArgmaxStability:
    """The argmax map is Lipschitz in the state, checked on the batched kernel."""

    def test_quartic_local_slope_near_origin(self):
        # the argmax slope in y at the origin is lam / (lam - gamma) = 2
        ys = np.linspace(-1e-3, 1e-3, 401)
        a, tie = maximize_batch(WIDE, QuarticDriver(2.0, 1.0), DriverState(y=ys))
        assert not tie.any()
        slope = np.max(np.abs(np.diff(a) / np.diff(ys)))
        assert slope == pytest.approx(2.0, rel=5e-3)

    def test_moving_set_projection_is_w2_lipschitz(self):
        # fixed reference w0, set [theta, 1 + theta] with theta the clipped law
        # mean: the projection moves by at most the W2 distance of the laws
        ambiguity = AmbiguityMap(
            base=IntervalUnion(((0.0, 1.0),)),
            endpoint_shifts=(1.0, 1.0),
            theta_rule=AffineTheta(alpha=1.0, beta=0.0, lo=-3.0, hi=3.0),
        )
        driver = QuadraticPenaltyDriver(kappa=1.0, w0=0.5)
        samples = np.random.default_rng(1).uniform(-2.0, 2.0, size=(300, 2, 8))
        laws = [EmpiricalMeasure(s) for s in samples.reshape(600, 8)]
        usets = [ambiguity.realize(mu) for mu in laws]
        a, tie = maximize_batch(usets, driver, DriverState(y=np.zeros(600)))
        assert not tie.any()
        a = a.reshape(300, 2)
        dist = np.array([w2(laws[2 * i], laws[2 * i + 1]) for i in range(300)])
        assert np.all(np.abs(a[:, 0] - a[:, 1]) <= dist + 1e-12)
        # the bound is reached closely enough to see a lost clip or shift
        assert np.max(np.abs(a[:, 0] - a[:, 1]) / dist) > 0.5
