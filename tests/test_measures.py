import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from theta_fbsde import (
    AmbiguityMap,
    EmpiricalMeasure,
    IntervalUnion,
    UsageError,
    moments,
    w2,
)


def brute_force_w2(a, b) -> float:
    """Oracle: minimum mean squared cost over all pairings, from scratch."""
    a = list(a)
    best = np.inf
    for perm in itertools.permutations(b):
        cost = sum((x - y) ** 2 for x, y in zip(a, perm)) / len(a)
        best = min(best, cost)
    return float(np.sqrt(best))


samples_strategy = st.lists(
    st.floats(-50, 50, allow_nan=False, allow_infinity=False), min_size=1, max_size=4
)


class TestConstruction:
    def test_keeps_the_given_order_in_a_read_only_copy(self):
        source = np.array([3.0, 1.0, 2.0, -0.5])
        mu = EmpiricalMeasure(source)
        assert mu.samples.tobytes() == source.tobytes()
        assert not np.shares_memory(mu.samples, source)
        assert not mu.samples.flags.writeable
        with pytest.raises(ValueError):
            mu.samples[0] = 0.0
        source[:] = 7.0  # before the moments are first computed
        assert mu.samples.tolist() == [3.0, 1.0, 2.0, -0.5]
        assert moments(mu) == (1.375, float(np.std([3.0, 1.0, 2.0, -0.5])))

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            EmpiricalMeasure(np.array([]))

    def test_non_finite_rejected(self):
        with pytest.raises(UsageError):
            EmpiricalMeasure(np.array([0.0, np.nan]))


class TestW2:
    def test_two_diracs(self):
        assert w2(EmpiricalMeasure([1.5]), EmpiricalMeasure([-2.0])) == pytest.approx(3.5)

    def test_self_distance_zero(self):
        mu = EmpiricalMeasure([0.0, 1.0, 4.0])
        assert w2(mu, mu) == 0.0

    def test_shifted_pair(self):
        assert w2(EmpiricalMeasure([0.0, 1.0]), EmpiricalMeasure([1.0, 2.0])) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 9, 1000])
    def test_shuffled_clouds_give_the_sorted_formula_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal(n), rng.standard_normal(n) * 2.0 + 0.3
        expected = float(np.sqrt(np.mean((np.sort(a) - np.sort(b)) ** 2)))
        for _ in range(3):
            got = w2(EmpiricalMeasure(rng.permutation(a)), EmpiricalMeasure(rng.permutation(b)))
            assert got.hex() == expected.hex()

    def test_unequal_sizes_rejected(self):
        with pytest.raises(UsageError):
            w2(EmpiricalMeasure([0.0]), EmpiricalMeasure([0.0, 1.0]))

    @given(samples_strategy, samples_strategy)
    @settings(max_examples=100)
    def test_matches_brute_force_pairings(self, a, b):
        if len(a) != len(b):
            b = (b * len(a))[: len(a)]
        exact = w2(EmpiricalMeasure(np.asarray(a)), EmpiricalMeasure(np.asarray(b)))
        assert exact == pytest.approx(brute_force_w2(a, b), abs=1e-12)

    @given(samples_strategy, samples_strategy, samples_strategy, st.integers(1, 4))
    @settings(max_examples=60)
    def test_metric_axioms(self, a, b, c, n):
        a, b, c = [(s * n)[:n] for s in (a, b, c)]
        mu, nu, rho = (EmpiricalMeasure(np.asarray(s)) for s in (a, b, c))
        assert w2(mu, nu) >= 0.0
        assert w2(mu, nu) == pytest.approx(w2(nu, mu), abs=0.0)
        assert w2(mu, rho) <= w2(mu, nu) + w2(nu, rho) + 1e-12

    @given(samples_strategy, samples_strategy, st.floats(-20, 20, allow_nan=False))
    @settings(max_examples=60)
    def test_translation_invariance(self, a, b, shift):
        if len(a) != len(b):
            b = (b * len(a))[: len(a)]
        base = w2(EmpiricalMeasure(np.asarray(a)), EmpiricalMeasure(np.asarray(b)))
        moved = w2(
            EmpiricalMeasure(np.asarray(a) + shift), EmpiricalMeasure(np.asarray(b) + shift)
        )
        assert moved == pytest.approx(base, abs=1e-12)

    def test_coupling_bound(self):
        # transporting by the identity coupling can only cost more
        rng = np.random.default_rng(3)
        for _ in range(20):
            y1 = rng.normal(size=200)
            y2 = y1 + rng.normal(scale=0.3, size=200)
            lhs = w2(EmpiricalMeasure(y1), EmpiricalMeasure(y2)) ** 2
            assert lhs <= np.mean((y1 - y2) ** 2) + 1e-12


class TestMoments:
    def test_constant_cloud(self):
        assert moments(EmpiricalMeasure([2.0, 2.0, 2.0])) == (2.0, 0.0)

    def test_symmetric_pair(self):
        assert moments(EmpiricalMeasure([0.0, 2.0])) == (1.0, 1.0)

    def test_four_point_cloud(self):
        mean, std = moments(EmpiricalMeasure([1.0, 2.0, 3.0, 4.0]))
        assert mean == pytest.approx(2.5)
        assert std == pytest.approx(np.sqrt(1.25))

    @pytest.mark.parametrize("n", [1, 7, 10_000])
    def test_bits_of_numpy_mean_and_std(self, n):
        mu = EmpiricalMeasure(np.random.default_rng(n).standard_normal(n) * 3.0 + 1.0)
        expected = (float(np.mean(mu.samples)), float(np.std(mu.samples)))
        for _ in range(2):  # computed, then kept
            assert [v.hex() for v in moments(mu)] == [v.hex() for v in expected]

    def test_std_runs_once_per_law(self, monkeypatch):
        calls = []
        real_std = np.std

        def counted_std(*args, **kwargs):
            calls.append(args[0].size)
            return real_std(*args, **kwargs)

        monkeypatch.setattr(np, "std", counted_std)
        ambiguity = AmbiguityMap(
            base=IntervalUnion(((-2.0, -1.0), (1.0, 2.0))),
            endpoint_shifts=(0.5, 0.5, 0.5, 0.5),
            alpha=1.0, beta=1.0, theta_bounds=(-0.5, 0.5),
        )
        rng = np.random.default_rng(3)
        laws = [EmpiricalMeasure(rng.standard_normal(50)) for _ in range(3)]
        for _ in range(4):
            for law in laws:
                ambiguity.realize(law)
                moments(law)
        assert calls == [50, 50, 50]
