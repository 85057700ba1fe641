import dataclasses

import numpy as np
import pytest

from theta_fbsde import (
    AffineControlDrift,
    CallableVolatility,
    ConfigurationError,
    ConstantVolatility,
    DeterministicSpec,
    DivergenceError,
    EmpiricalMeasure,
    Grid1D,
    LinearTerminal,
    ProblemSpec,
    QuadraticPenaltyDriver,
    QuarticDriver,
    TableF0,
    TimeGrid,
    UsageError,
    brownian_increments,
    picard_solve,
    simulate_forward,
    solve_backward,
    solve_hjb,
    static_set,
    theta_expectation,
)
from theta_fbsde import sde


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
        def poisoned(t, x, a, mu):
            return np.where(t < 0.5, 0.0, np.nan) + 0.0 * x

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

    def test_grid_must_span_the_horizon(self):
        grid, n = TimeGrid(0.5, 5), 8
        laws, increments = dirac_laws(grid, n), noise(grid, n, 0)
        expected = "grid horizon 0.5 does not match the problem horizon 1.0"
        with pytest.raises(UsageError, match=expected):
            simulate_forward(self.SPEC, grid, constant_controls(grid, n), laws, increments)
        driver = QuarticDriver(2.0, 1.0)
        deterministic = DeterministicSpec(driver, driver.interior_set(1.0), 1.0)
        with pytest.raises(UsageError, match=expected):
            theta_expectation(deterministic, grid, xi=0.1)


class TestCallableVolatility:
    """A volatility callable returning (n, k, d) takes the ``einsum`` branch of the Euler step."""

    @staticmethod
    def specs(sigma):
        """The same problem with ``sigma`` as a constant matrix and as a callable."""
        k, d = sigma.shape
        constant = ProblemSpec(
            horizon=1.0,
            x0=np.linspace(1.0, 0.5, k),
            drift=AffineControlDrift(np.zeros(k), 0.25 * np.eye(k)),
            volatility=ConstantVolatility(sigma),
            driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.6),
            terminal=LinearTerminal(np.ones(k)),
            ambiguity=static_set([(-2.0, -1.0), (1.0, 2.0)]),
        )
        volatility = CallableVolatility(
            fn=lambda t, x, a, mu: np.broadcast_to(sigma, (x.shape[0], k, d)),
            noise_dim=d,
        )
        return constant, dataclasses.replace(constant, volatility=volatility)

    @pytest.mark.parametrize("sigma", [[[0.3]], [[0.3, 0.0], [0.1, 0.2]]], ids=["1d", "2d"])
    def test_paths_match_the_constant_matrix(self, sigma):
        constant, generic = self.specs(np.array(sigma))
        assert generic.noise_dim == constant.noise_dim
        grid, n = TimeGrid(1.0, 20), 64
        laws = dirac_laws(grid, n)
        increments = brownian_increments(5, n, grid.n_steps, constant.noise_dim, grid.dt)
        xs = simulate_forward(constant, grid, constant_controls(grid, n), laws, increments)
        xs_generic = simulate_forward(generic, grid, constant_controls(grid, n), laws, increments)
        if constant.state_dim == 1:
            assert np.array_equal(xs_generic, xs)
        else:  # einsum and matmul may sum the noise terms in another order
            scale = np.maximum(np.abs(xs), 1.0)
            assert np.all(np.abs(xs_generic - xs) <= 4.0 * np.spacing(scale))

    def test_picard_solve_converges(self):
        constant, generic = self.specs(np.array([[0.3]]))
        grid = TimeGrid(1.0, 20)
        sol, report = picard_solve(generic, grid, 400, seed=3)
        assert report.converged
        sol_constant, _ = picard_solve(constant, grid, 400, seed=3)
        assert sol.y0 == sol_constant.y0

    @pytest.mark.parametrize("noise_dim", [1.7, 2.0, True, "2", 0], ids=repr)
    def test_noise_dim_must_be_a_positive_integer(self, noise_dim):
        with pytest.raises(ConfigurationError, match="noise dimension"):
            CallableVolatility(fn=lambda t, x, a, mu: x, noise_dim=noise_dim)

    def test_numpy_integer_noise_dim_is_accepted(self):
        volatility = CallableVolatility(fn=lambda t, x, a, mu: x, noise_dim=np.int64(2))
        assert volatility.noise_dim == 2

    def test_grid_solver_rejects_it(self):
        _, generic = self.specs(np.array([[0.3]]))
        with pytest.raises(UsageError, match="constant volatility"):
            solve_hjb(generic, Grid1D(-3.0, 3.0, 61, 5), lambda t: EmpiricalMeasure(np.zeros(1)))


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

    monkeypatch.setattr(sde, "_last_draw", None)
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


class TestSpecIdentity:
    """A ProblemSpec is compared and hashed by identity, as the array-holding
    descriptors it bundles are."""

    def test_two_dimensional_copy_compares_unequal_and_keys_a_dict(self):
        spec = ProblemSpec(
            horizon=1.0,
            x0=np.array([1.0, -0.5]),
            drift=AffineControlDrift(np.zeros(2), np.eye(2)),
            volatility=ConstantVolatility(np.eye(2)),
            driver=QuadraticPenaltyDriver(kappa=1.0, w0=1.0),
            terminal=LinearTerminal(np.array([1.0, 0.5])),
            ambiguity=static_set([(1.0, 1.0)]),
        )
        copy = dataclasses.replace(spec)
        assert (spec == copy) is False and spec == spec
        keyed = {spec: "spec", copy: "copy"}
        assert keyed[spec] == "spec" and keyed[copy] == "copy"


def reference_forward(spec, grid, controls, increments, volatility=None):
    """The Euler loop with the drift and diffusion products written with ``@``.

    ``volatility`` (t, x) -> (n, k, d) takes the per-particle ``einsum``
    branch instead of the spec's constant matrix.
    """
    x = np.tile(spec.x0, (increments.shape[1], 1))
    xs = [x]
    for i, t in enumerate(grid.times[:-1]):
        mult = 1.0 + 3.0 * controls[i]
        b = spec.drift.C0 - mult[..., None] * (x @ spec.drift.C1)
        if volatility is None:
            diffusion = increments[i] @ spec.volatility.matrix.T
        else:
            diffusion = np.einsum("nkd,nd->nk", volatility(t, x), increments[i])
        x = x + b * grid.dt + diffusion
        xs.append(x)
    return np.stack(xs)


class TestEulerProducts:
    """The drift, diffusion and linear terminal products keep the bits of their ``@`` formulas.

    They are computed with ``np.dot``, which calls BLAS where numpy's matmul
    does not (a contracted axis of length 1).
    """

    @staticmethod
    def problem(k, d, n, seed):
        rng = np.random.default_rng(seed)
        c1 = rng.standard_normal((k, k))
        spec = ProblemSpec(
            horizon=1.0,
            x0=rng.standard_normal(k),
            drift=AffineControlDrift(rng.standard_normal(k), 0.5 * (c1 + c1.T)),
            volatility=ConstantVolatility(0.3 * rng.standard_normal((k, d))),
            driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.6),
            terminal=LinearTerminal(rng.standard_normal(k)),
            ambiguity=static_set([(-2.0, -1.0), (1.0, 2.0)]),
        )
        grid = TimeGrid(1.0, 8)
        controls = rng.uniform(-2.0, 2.0, (grid.n_nodes, n))
        increments = brownian_increments(seed, n, grid.n_steps, d, grid.dt)
        return spec, grid, controls, increments, rng

    @pytest.mark.parametrize("n", [200, 2000])
    @pytest.mark.parametrize("k, d", [(1, 1), (2, 2), (3, 2)])
    def test_drift_and_terminal(self, k, d, n):
        spec, _, controls, _, rng = self.problem(k, d, n, 11)
        x = rng.standard_normal((n, k))
        drift = spec.drift
        expected = drift.C0 - (1.0 + 3.0 * controls[0])[..., None] * (x @ drift.C1)
        assert np.array_equal(drift(0.0, x, controls[0], None), expected)
        assert np.array_equal(spec.terminal(x), x @ spec.terminal.coeffs)

    @pytest.mark.parametrize("n", [200, 2000])
    @pytest.mark.parametrize("k, d", [(1, 1), (2, 2), (3, 2)])
    def test_constant_volatility_paths(self, k, d, n):
        spec, grid, controls, increments, _ = self.problem(k, d, n, 12)
        xs = simulate_forward(spec, grid, controls, dirac_laws(grid, n), increments)
        assert np.array_equal(xs, reference_forward(spec, grid, controls, increments))

    @pytest.mark.parametrize("k, d", [(1, 1), (2, 2), (3, 2)])
    def test_callable_volatility_paths(self, k, d):
        n = 200
        spec, grid, controls, increments, _ = self.problem(k, d, n, 13)
        sigma = spec.volatility.matrix

        def volatility(t, x):
            return sigma * (1.0 + 0.1 * np.tanh(x))[:, :, None]

        generic = dataclasses.replace(spec, volatility=CallableVolatility(
            fn=lambda t, x, a, mu: volatility(t, x), noise_dim=d))
        xs = simulate_forward(generic, grid, controls, dirac_laws(grid, n), increments)
        assert np.array_equal(xs, reference_forward(spec, grid, controls, increments, volatility))
