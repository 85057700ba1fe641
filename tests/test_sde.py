import numpy as np
import pytest

from theta_fbsde import (
    AffineControlDrift,
    CallableDrift,
    ConstantVolatility,
    DivergenceError,
    EmpiricalMeasure,
    LinearTerminal,
    ProblemSpec,
    QuadraticPenaltyDriver,
    TableF0,
    TimeGrid,
    UsageError,
    brownian_increments,
    simulate_forward,
    solve_backward,
    static_set,
)
from theta_fbsde import sde
from theta_fbsde._memo import LastEntry


def make_spec(drift, sigma, x0=1.0, horizon=1.0):
    return ProblemSpec(
        horizon=horizon,
        x0=np.array([x0]),
        drift=drift,
        volatility=ConstantVolatility(np.array([[sigma]])),
        driver=QuadraticPenaltyDriver(kappa=1.0, w0=1.0),
        terminal=LinearTerminal(np.array([1.0])),
        ambiguity=static_set([(1.0, 1.0)]),
    )


def constant_controls(grid, n, value=1.0):
    return np.full((grid.n_nodes, n), value)


def noise(grid, n, seed):
    return brownian_increments(seed, n, grid.n_steps, 1, grid.dt)


def dirac_laws(grid, n, value=0.0):
    law = EmpiricalMeasure(np.full(n, value))
    return [law] * grid.n_nodes


class TestForwardSimulation:
    def test_frozen_dynamics(self):
        spec = make_spec(AffineControlDrift(np.array([0.0]), np.array([[0.0]])), 0.0)
        grid = TimeGrid(1.0, 16)
        xs = simulate_forward(
            spec, grid, constant_controls(grid, 32), dirac_laws(grid, 32), noise(grid, 32, 0)
        )
        assert np.all(xs == 1.0)

    def test_constant_drift_exact(self):
        spec = make_spec(AffineControlDrift(np.array([0.7]), np.array([[0.0]])), 0.0)
        grid = TimeGrid(1.0, 10)
        xs = simulate_forward(
            spec, grid, constant_controls(grid, 8), dirac_laws(grid, 8), noise(grid, 8, 0)
        )
        assert xs[-1] == pytest.approx(1.0 + 0.7, abs=1e-14)

    def test_mean_reversion_matches_closed_form(self):
        # effective drift -(1 + 3w) C1 x with w = 1, C1 = 0.25 gives rate one
        spec = make_spec(AffineControlDrift(np.array([0.0]), np.array([[0.25]])), 0.3)
        grid = TimeGrid(1.0, 100)
        n = 10_000
        xs = simulate_forward(
            spec, grid, constant_controls(grid, n), dirac_laws(grid, n), noise(grid, n, 11)
        )
        sample_mean = float(np.mean(xs[-1]))
        se = float(np.std(xs[-1]) / np.sqrt(n))
        # Euler bias at dt = 0.01 is (1 - dt)^100 - e^-1, well below 3 SE here
        assert abs(sample_mean - np.exp(-1.0)) <= 3 * se + 2.5e-3

    def test_determinism_bit_identical(self):
        spec = make_spec(AffineControlDrift(np.array([0.1]), np.array([[0.2]])), 0.5)
        grid = TimeGrid(1.0, 20)
        args = (spec, grid, constant_controls(grid, 64), dirac_laws(grid, 64), noise(grid, 64, 123))
        xs1 = simulate_forward(*args)
        xs2 = simulate_forward(*args)
        assert np.array_equal(xs1, xs2)

    def test_degenerate_cloud_without_noise(self):
        spec = make_spec(AffineControlDrift(np.array([0.3]), np.array([[0.25]])), 0.0)
        grid = TimeGrid(1.0, 25)
        xs = simulate_forward(
            spec, grid, constant_controls(grid, 16), dirac_laws(grid, 16), noise(grid, 16, 5)
        )
        assert np.all(np.ptp(xs, axis=1) == 0.0)

    def test_divergence_reports_node(self):
        poisoned = CallableDrift(
            fn=lambda t, x, a, mu: np.where(t < 0.5, 0.0, np.nan) + 0.0 * x, lipschitz=1.0
        )
        spec = make_spec(poisoned, 0.0)
        grid = TimeGrid(1.0, 8)
        with pytest.raises(DivergenceError) as err:
            simulate_forward(
                spec, grid, constant_controls(grid, 4), dirac_laws(grid, 4), noise(grid, 4, 0)
            )
        assert err.value.node == 5

    def test_weak_error_halves_with_step(self):
        # one Brownian path per particle, coarser grids consume aggregated
        # increments, so successive differences isolate the O(dt) bias
        spec = make_spec(AffineControlDrift(np.array([0.0]), np.array([[0.25]])), 0.3)
        n, fine_steps = 4000, 400
        fine = brownian_increments(7, n, fine_steps, 1, 1.0 / fine_steps)
        means = {}
        for divisor in (4, 2, 1):
            steps = fine_steps // divisor
            agg = fine.reshape(steps, fine_steps // steps, n, 1).sum(axis=1)
            grid = TimeGrid(1.0, steps)
            xs = simulate_forward(spec, grid, constant_controls(grid, n), dirac_laws(grid, n), agg)
            means[steps] = float(np.mean(xs[-1]))
        d_coarse = abs(means[100] - means[200])
        d_fine = abs(means[200] - means[400])
        assert d_coarse / d_fine == pytest.approx(2.0, rel=0.35)


class TestStageInputs:
    """Both stages take one control per node and particle and drawn increments."""

    SPEC = make_spec(AffineControlDrift(np.array([0.1]), np.array([[0.2]])), 0.5)
    GRID = TimeGrid(1.0, 5)

    @pytest.mark.parametrize(
        "shape", [(6,), (6, 1), (5, 8), (6, 7)],
        ids=["per_node", "one_column", "no_terminal_row", "one_particle_short"],
    )
    def test_controls_shape_is_checked(self, shape):
        spec, grid, n = self.SPEC, self.GRID, 8
        laws = dirac_laws(grid, n)
        increments = noise(grid, n, 0)
        paths = simulate_forward(spec, grid, constant_controls(grid, n), laws, increments)
        expected = r"\(n_nodes, n\) = \(6, 8\)"
        with pytest.raises(UsageError, match=expected):
            simulate_forward(spec, grid, np.ones(shape), laws, increments)
        with pytest.raises(UsageError, match=expected):
            solve_backward(spec, grid, paths, np.ones(shape), laws, increments)

    def test_seed_in_place_of_increments_is_rejected(self):
        grid = self.GRID
        with pytest.raises(UsageError, match="noise increments"):
            simulate_forward(self.SPEC, grid, constant_controls(grid, 8), dirac_laws(grid, 8), 0)


class TestNoiseStreams:
    def test_prefix_property(self):
        long = brownian_increments(9, 6, 50, 2, 0.02)
        short = brownian_increments(9, 6, 20, 2, 0.02)
        assert np.array_equal(long[:20], short)

    def test_particle_batching_invariance(self):
        full = brownian_increments(4, 10, 15, 1, 0.1)
        head = brownian_increments(4, 7, 15, 1, 0.1)
        assert np.array_equal(full[:, :7, :], head)

    def test_seed_sensitivity(self):
        a = brownian_increments(0, 4, 10, 1, 0.1)
        b = brownian_increments(1, 4, 10, 1, 0.1)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "seed, n, steps, dim", [(41, 10_000, 50, 1), (3, 2000, 100, 1), (2**64 - 1, 50, 7, 2)]
    )
    def test_same_bits_as_a_generator_per_particle(self, seed, n, steps, dim):
        dt = 0.02
        expected = np.empty((steps, n, dim))
        for p in range(n):
            gen = np.random.Generator(np.random.Philox(key=np.array([seed, p], dtype=np.uint64)))
            expected[:, p, :] = gen.standard_normal((steps, dim))
        expected *= np.sqrt(dt)
        assert np.array_equal(brownian_increments(seed, n, steps, dim, dt), expected)

    def test_negative_seed_rejected(self):
        from theta_fbsde import UsageError

        with pytest.raises(UsageError):
            brownian_increments(-1, 4, 10, 1, 0.1)


@pytest.fixture
def real_draws(monkeypatch):
    """Arguments of every draw not served from the noise memo, which starts empty."""
    calls = []
    original = sde._draw_increments

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sde, "_last_draw", LastEntry())
    monkeypatch.setattr(sde, "_draw_increments", counting)
    return calls


class TestNoiseMemo:
    """The last draw is kept and returned again, read-only, for the same arguments."""

    KEY = (11, 30, 8, 2, 0.125)

    def test_hit_returns_the_bits_of_a_fresh_draw(self, real_draws):
        first = brownian_increments(*self.KEY)
        again = brownian_increments(*self.KEY)
        assert again is first
        assert len(real_draws) == 1
        assert np.array_equal(again, sde._draw_increments(*self.KEY))

    @pytest.mark.parametrize(
        "field, value",
        [(0, 12), (1, 31), (2, 9), (3, 1), (4, 0.1)],
        ids=["seed", "n_particles", "n_steps", "noise_dim", "dt"],
    )
    def test_each_key_field_misses(self, real_draws, field, value):
        first = brownian_increments(*self.KEY)
        args = list(self.KEY)
        args[field] = value
        other = brownian_increments(*args)
        assert len(real_draws) == 2
        assert other is not first
        # the memo holds one draw: the first arguments draw again
        brownian_increments(*self.KEY)
        assert len(real_draws) == 3
        assert np.array_equal(other, sde._draw_increments(*args))

    def test_returned_array_is_read_only(self, real_draws):
        noise = brownian_increments(*self.KEY)
        with pytest.raises(ValueError, match="read-only"):
            noise[0, 0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            noise *= 2.0
        assert np.array_equal(brownian_increments(*self.KEY), sde._draw_increments(*self.KEY))


def _spec_arrays():
    """(name, the caller's array, the array the built object stores) per spec array."""
    c0, c1, sigma, coeffs, x0 = (
        np.array([0.5]), np.array([[0.25]]), np.array([[0.3]]), np.array([1.0]), np.array([1.0])
    )
    drift = AffineControlDrift(c0, c1)
    vol = ConstantVolatility(sigma)
    terminal = LinearTerminal(coeffs)
    spec = ProblemSpec(
        horizon=1.0, x0=x0, drift=drift, volatility=vol,
        driver=QuadraticPenaltyDriver(kappa=1.0, w0=1.0), terminal=terminal,
        ambiguity=static_set([(1.0, 1.0)]),
    )
    ys, values = np.array([0.0, 1.0]), np.array([0.0, 2.0])
    table = TableF0(ys, values)
    return [
        ("x0", x0, spec.x0),
        ("C0", c0, drift.C0),
        ("C1", c1, drift.C1),
        ("sigma", sigma, vol.matrix),
        ("coeffs", coeffs, terminal.coeffs),
        ("ys", ys, table.ys),
        ("values", values, table.values),
    ]


class TestFrozenSpecArrays:
    @pytest.mark.parametrize("index", range(7), ids=[name for name, *_ in _spec_arrays()])
    def test_stored_arrays_are_read_only_copies(self, index):
        _, original, stored = _spec_arrays()[index]
        before = stored.copy()
        assert not np.shares_memory(stored, original)
        with pytest.raises(ValueError, match="read-only"):
            stored[...] = 7.0
        original[...] = 7.0
        assert np.array_equal(stored, before)
