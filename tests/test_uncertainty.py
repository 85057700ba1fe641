import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from theta_fbsde import (
    AffineTheta,
    AmbiguityMap,
    ConfigurationError,
    ConstantTheta,
    DriverState,
    EmpiricalMeasure,
    IntervalUnion,
    QuadraticPenaltyDriver,
    hausdorff,
    maximize_over,
    static_set,
)


@st.composite
def interval_unions(draw, max_intervals=4, lo=-3.0, hi=3.0):
    n = draw(st.integers(1, max_intervals))
    pts = draw(
        st.lists(
            st.floats(lo, hi, allow_nan=False, allow_infinity=False),
            min_size=2 * n,
            max_size=2 * n,
            unique=True,
        )
    )
    pts = sorted(pts)
    return IntervalUnion(tuple((pts[2 * i], pts[2 * i + 1]) for i in range(n)))


def dense_grid_hausdorff(a: IntervalUnion, b: IntervalUnion, resolution=1e-6) -> float:
    """Independent oracle: brute-force sup-distance on a dense grid.

    Distances are computed from scratch against every interval, never through
    the library's own set operations.
    """

    def dist(points, intervals):
        d = np.full(points.shape, np.inf)
        for lo, hi in intervals:
            clamped = np.clip(points, lo, hi)
            d = np.minimum(d, np.abs(points - clamped))
        return d

    def directed(src, dst):
        worst = 0.0
        for lo, hi in src.intervals:
            n_pts = max(2, int(np.ceil((hi - lo) / resolution)) + 1)
            pts = np.linspace(lo, hi, min(n_pts, 4_000_001))
            worst = max(worst, float(np.max(dist(pts, dst.intervals))))
        return worst

    return max(directed(a, b), directed(b, a))


class TestIntervalUnionInvariants:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            IntervalUnion(())

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(ConfigurationError):
            IntervalUnion(((1.0, 0.0),))

    def test_overlap_rejected(self):
        with pytest.raises(ConfigurationError):
            IntervalUnion(((0.0, 1.0), (1.0, 2.0)))

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigurationError):
            IntervalUnion(((0.0, np.inf),))

    def test_degenerate_point_allowed(self):
        u = IntervalUnion(((0.5, 0.5),))
        assert u.contains(0.5)
        assert u.project(2.0) == 0.5


class TestProject:
    def test_two_regime_reference(self):
        u = IntervalUnion(((-2.0, -1.0), (1.0, 2.0)))
        assert u.project(0.6) == 1.0

    def test_hull_reference(self):
        assert IntervalUnion(((-2.0, 2.0),)).project(0.6) == 0.6

    def test_member_projects_to_itself(self):
        u = IntervalUnion(((-2.0, -1.0), (1.0, 2.0)))
        for w in (-2.0, -1.5, -1.0, 1.0, 1.7, 2.0):
            assert u.project(w) == w

    def test_tie_breaks_toward_smaller_and_flags(self):
        u = IntervalUnion(((-2.0, -1.0), (1.0, 2.0)))
        value, tie = u.project_info(0.0)
        assert value == -1.0
        assert tie

    def test_no_tie_flag_off_midpoint(self):
        u = IntervalUnion(((-2.0, -1.0), (1.0, 2.0)))
        _, tie = u.project_info(0.25)
        assert not tie

    def test_exact_tie_rule_differs_from_the_argmax(self):
        # project compares exact distances; the argmax the solver uses treats
        # values within 1e-12 as tied and keeps the smaller control
        u = IntervalUnion(((-2.0, -1.0), (1.0, 2.0)))
        assert u.project_info(1e-13) == (1.0, False)
        res = maximize_over(u, QuadraticPenaltyDriver(kappa=1.0, w0=1e-13), DriverState())
        assert res.a_star == -1.0
        assert res.tie_flag

    @given(interval_unions(), st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=100)
    def test_projection_is_member(self, u, w):
        assert u.contains(u.project(w))

    @given(interval_unions(), st.floats(-10, 10, allow_nan=False), st.integers(0, 2**31))
    @settings(max_examples=50)
    def test_projection_minimality(self, u, w, seed):
        proj = u.project(w)
        rng = np.random.default_rng(seed)
        lows = np.array([lo for lo, _ in u.intervals])
        highs = np.array([hi for _, hi in u.intervals])
        idx = rng.integers(0, len(u.intervals), size=1000)
        members = lows[idx] + rng.random(1000) * (highs[idx] - lows[idx])
        assert abs(proj - w) <= np.min(np.abs(members - w)) + 1e-12


class TestHausdorff:
    def test_identical_sets(self):
        u = IntervalUnion(((-2.0, -1.0), (1.0, 2.0)))
        assert hausdorff(u, u) == 0.0

    def test_nested_intervals(self):
        assert hausdorff(IntervalUnion(((0.0, 1.0),)), IntervalUnion(((0.0, 2.0),))) == 1.0

    def test_union_against_hull(self):
        u = IntervalUnion(((-2.0, -1.0), (1.0, 2.0)))
        assert hausdorff(u, u.convex_hull()) == pytest.approx(1.0, abs=1e-15)

    @given(interval_unions(), interval_unions())
    @settings(max_examples=100)
    def test_symmetry(self, a, b):
        assert hausdorff(a, b) == hausdorff(b, a)

    @given(interval_unions(), interval_unions(), interval_unions())
    @settings(max_examples=60)
    def test_triangle_inequality(self, a, b, c):
        assert hausdorff(a, c) <= hausdorff(a, b) + hausdorff(b, c) + 1e-12

    @given(interval_unions())
    @settings(max_examples=50)
    def test_identity_of_indiscernibles(self, a):
        assert hausdorff(a, a) == 0.0

    def test_matches_dense_grid_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            sets = []
            for _ in range(2):
                n = rng.integers(1, 5)
                pts = np.sort(rng.uniform(0.0, 2.0, size=2 * n))
                while np.min(np.diff(pts)) < 1e-3:
                    pts = np.sort(rng.uniform(0.0, 2.0, size=2 * n))
                sets.append(IntervalUnion(tuple((pts[2 * i], pts[2 * i + 1]) for i in range(n))))
            exact = hausdorff(sets[0], sets[1])
            approx = dense_grid_hausdorff(sets[0], sets[1])
            assert abs(exact - approx) <= 2e-6


class TestHull:
    def test_two_regime_hull(self):
        u = IntervalUnion(((-2.0, -1.0), (1.0, 2.0)))
        assert u.convex_hull().intervals == ((-2.0, 2.0),)

    def test_single_interval_fixed_point(self):
        u = IntervalUnion(((0.3, 0.9),))
        assert u.convex_hull() == u

    def test_span_of_extremes(self):
        u = IntervalUnion(((0.0, 1.0), (3.0, 4.0), (6.0, 7.0)))
        assert u.convex_hull().intervals == ((0.0, 7.0),)

    @given(interval_unions())
    @settings(max_examples=50)
    def test_hull_contains_all_endpoints(self, u):
        hull = u.convex_hull()
        for lo, hi in u.intervals:
            assert hull.contains(lo) and hull.contains(hi)


class TestContains:
    def test_endpoint(self):
        u = IntervalUnion(((-2.0, -1.0), (1.0, 2.0)))
        assert u.contains(1.0)

    def test_gap(self):
        u = IntervalUnion(((-2.0, -1.0), (1.0, 2.0)))
        assert not u.contains(0.0)

    def test_interior(self):
        assert IntervalUnion(((-2.0, 2.0),)).contains(0.6)


class TestAmbiguityMap:
    def test_constant_rule_ignores_law(self):
        m = static_set([(-2.0, -1.0), (1.0, 2.0)])
        for samples in ([0.0], [5.0, -3.0, 2.0]):
            u = m.realize(EmpiricalMeasure(np.asarray(samples)))
            assert u.intervals == ((-2.0, -1.0), (1.0, 2.0))

    def test_zero_shift_identity(self):
        m = AmbiguityMap(
            base=IntervalUnion(((0.0, 1.0),)),
            endpoint_shifts=(0.0, 0.0),
            theta_rule=AffineTheta(alpha=0.0, beta=0.0, lo=0.0, hi=0.0),
        )
        u = m.realize(EmpiricalMeasure(np.array([42.0])))
        assert u.intervals == ((0.0, 1.0),)

    def test_mean_shift(self):
        m = AmbiguityMap(
            base=IntervalUnion(((0.0, 1.0),)),
            endpoint_shifts=(1.0, 1.0),
            theta_rule=AffineTheta(alpha=1.0, beta=0.0, lo=-5.0, hi=5.0),
        )
        u = m.realize(EmpiricalMeasure(np.array([1.0, 1.0, 1.0])))
        assert u.intervals == ((1.0, 2.0),)

    def test_disjointness_violation_names_theta(self):
        with pytest.raises(ConfigurationError, match="theta=2"):
            AmbiguityMap(
                base=IntervalUnion(((0.0, 1.0), (1.5, 2.0))),
                endpoint_shifts=(0.0, 1.0, 0.0, 0.0),
                theta_rule=ConstantTheta(2.0),
            )

    @pytest.mark.parametrize(
        "alpha, beta", [(np.nan, 0.0), (np.inf, 0.0), (0.0, np.nan), (0.0, -np.inf)]
    )
    def test_non_finite_theta_weights_rejected(self, alpha, beta):
        with pytest.raises(ConfigurationError, match="weights must be finite"):
            AffineTheta(alpha=alpha, beta=beta, lo=-1.0, hi=1.0)

    def test_wrong_shift_count_rejected(self):
        with pytest.raises(ConfigurationError):
            AmbiguityMap(
                base=IntervalUnion(((0.0, 1.0),)),
                endpoint_shifts=(1.0,),
            )

    def test_clamped_theta_stays_compact(self):
        m = AmbiguityMap(
            base=IntervalUnion(((0.0, 1.0),)),
            endpoint_shifts=(1.0, 1.0),
            theta_rule=AffineTheta(alpha=1.0, beta=0.0, lo=-1.0, hi=1.0),
        )
        u = m.realize(EmpiricalMeasure(np.array([100.0])))
        assert u.intervals == ((1.0, 2.0),)

    def test_control_range_over_theta(self):
        m = AmbiguityMap(
            base=IntervalUnion(((0.0, 1.0),)),
            endpoint_shifts=(1.0, 1.0),
            theta_rule=AffineTheta(alpha=1.0, beta=0.0, lo=-1.0, hi=2.0),
        )
        assert m.control_range() == (-1.0, 3.0)

    def test_spread_sensitive_rule(self):
        m = AmbiguityMap(
            base=IntervalUnion(((0.0, 1.0),)),
            endpoint_shifts=(1.0, 1.0),
            theta_rule=AffineTheta(alpha=0.0, beta=1.0, lo=-5.0, hi=5.0),
        )
        tight = m.realize(EmpiricalMeasure(np.array([3.0, 3.0, 3.0])))
        wide = m.realize(EmpiricalMeasure(np.array([-2.0, 0.0, 2.0])))
        assert tight.intervals == ((0.0, 1.0),)
        spread = float(np.std([-2.0, 0.0, 2.0]))
        assert wide.intervals == ((spread, 1.0 + spread),)
