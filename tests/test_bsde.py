import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from theta_fbsde import (
    AffineControlDrift,
    ConstantVolatility,
    DeterministicSpec,
    DivergenceError,
    EmpiricalMeasure,
    LinearTerminal,
    ProblemSpec,
    QuadraticPenaltyDriver,
    QuadraticTerminal,
    QuarticDriver,
    RegressionBasisError,
    TimeGrid,
    UsageError,
    brownian_increments,
    simulate_forward,
    solve_backward,
    solve_deterministic_ode,
)
from theta_fbsde import bsde
from theta_fbsde.bsde import (
    _MOMENT_FIT_COND,
    REGRESSION_DEGREE,
    _node_regression,
    polynomial_basis,
)
from theta_fbsde.properties import optimized_driver_fn


def zero_drift():
    return AffineControlDrift(np.array([0.0]), np.array([[0.0]]))


def zero_driver_spec(sigma, terminal, x0=1.0, horizon=1.0):
    """Driver with w0 inside a singleton set: optimized value identically zero."""
    return ProblemSpec(
        horizon=horizon,
        x0=np.array([x0]),
        drift=zero_drift(),
        volatility=ConstantVolatility(np.array([[sigma]])),
        driver=QuadraticPenaltyDriver(kappa=1.0, w0=0.0),
        terminal=terminal,
        ambiguity=__import__("theta_fbsde").static_set([(0.0, 0.0)]),
    )


def solve_plain(spec, grid, n, seed):
    increments = brownian_increments(seed, n, grid.n_steps, spec.noise_dim, grid.dt)
    controls = np.zeros((grid.n_nodes, n))
    laws = [EmpiricalMeasure(np.zeros(n))] * grid.n_nodes
    xs = simulate_forward(spec, grid, controls, laws, increments)
    ys, zs = solve_backward(spec, grid, xs, controls, laws, increments)
    return xs, ys, zs, increments


class TestBackwardRegression:
    def test_martingale_initial_value(self):
        spec = zero_driver_spec(0.5, LinearTerminal(np.array([1.0])))
        grid = TimeGrid(1.0, 20)
        n = 4000
        xs, ys, zs, _ = solve_plain(spec, grid, n, seed=2)
        se = float(np.std(xs[-1, :, 0]) / np.sqrt(n))
        assert abs(float(np.mean(ys[0])) - 1.0) <= 3 * se

    def test_squared_normal_closed_form(self):
        spec = zero_driver_spec(1.0, QuadraticTerminal(), x0=0.0)
        grid = TimeGrid(1.0, 25)
        n = 6000
        _, ys, _, _ = solve_plain(spec, grid, n, seed=3)
        se = float(np.std(ys[-1]) / np.sqrt(n))
        assert abs(float(np.mean(ys[0])) - 1.0) <= 3 * se + 5e-3

    def test_volatility_regression_slope(self):
        # terminal x and unit noise: the volatility row is the constant one
        spec = zero_driver_spec(1.0, LinearTerminal(np.array([1.0])), x0=0.0)
        grid = TimeGrid(1.0, 10)
        n = 10_000
        _, _, zs, _ = solve_plain(spec, grid, n, seed=4)
        node_means = np.mean(zs[:, :, 0], axis=1)
        assert np.all(np.abs(node_means - 1.0) <= 5e-2)

    def test_terminal_consistency_exact(self):
        spec = zero_driver_spec(0.7, QuadraticTerminal(), x0=0.3)
        grid = TimeGrid(1.0, 12)
        xs, ys, _, _ = solve_plain(spec, grid, 500, seed=5)
        assert np.array_equal(ys[-1], np.sum(xs[-1] ** 2, axis=1))

    def test_zero_driver_stepwise_martingale(self):
        spec = zero_driver_spec(0.6, LinearTerminal(np.array([1.0])), x0=0.0)
        grid = TimeGrid(1.0, 20)
        n = 8000
        _, ys, _, _ = solve_plain(spec, grid, n, seed=6)
        increments = ys[1:] - ys[:-1]
        z = np.mean(increments, axis=1) / (np.std(increments, axis=1, ddof=1) / np.sqrt(n))
        assert np.mean(np.abs(z) <= 3.0) >= 0.95

    def test_rank_deficiency_raises(self):
        # three particles cannot fit the four columns of the cubic basis
        spec = zero_driver_spec(1.0, LinearTerminal(np.array([1.0])), x0=0.0)
        grid = TimeGrid(1.0, 3)
        n = 3
        increments = brownian_increments(1, n, grid.n_steps, 1, grid.dt)
        controls = np.zeros((grid.n_nodes, n))
        laws = [EmpiricalMeasure(np.zeros(n))] * grid.n_nodes
        xs = simulate_forward(spec, grid, controls, laws, increments)
        with pytest.raises(RegressionBasisError):
            solve_backward(spec, grid, xs, controls, laws, increments)

    def test_two_point_cloud_raises(self):
        # enough rows, but two distinct states span only two of the four columns
        spec = zero_driver_spec(1.0, LinearTerminal(np.array([1.0])), x0=0.0)
        grid = TimeGrid(1.0, 2)
        n = 50
        xs = np.tile(np.arange(n) % 2, (grid.n_nodes, 1))[:, :, None].astype(float)
        increments = brownian_increments(1, n, grid.n_steps, 1, grid.dt)
        controls = np.zeros((grid.n_nodes, n))
        laws = [EmpiricalMeasure(np.zeros(n))] * grid.n_nodes
        with pytest.raises(RegressionBasisError, match="condition number"):
            solve_backward(spec, grid, xs, controls, laws, increments)


def reference_polynomial_basis(x, degree):
    """The column-by-column basis the cumulative products replaced."""
    n, k = x.shape
    cols = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(k), total):
            exps = [0] * k
            for idx in combo:
                exps[idx] += 1
            col = np.ones(n)
            for j, e in enumerate(exps):
                if e:
                    col = col * x[:, j] ** e
            cols.append(col)
    return np.column_stack(cols)


def reference_node_regression(x, targets, degree):
    """The SVD + lstsq fit the reduced QR replaced: (fitted values, condition number)."""
    scale = max(1.0, float(np.max(np.abs(x))))
    spread = np.max(x, axis=0) - np.min(x, axis=0)
    active = spread > 1e-13 * scale
    if not np.any(active):
        means = np.mean(targets, axis=0)
        return np.broadcast_to(means, targets.shape).copy(), 1.0
    xa = x[:, active]
    xs = (xa - np.mean(xa, axis=0)) / np.std(xa, axis=0)
    phi = reference_polynomial_basis(xs, degree)
    singular = np.linalg.svd(phi, compute_uv=False)
    cond = singular[0] / singular[-1] if singular[-1] > 0 else math.inf
    if phi.shape[0] < phi.shape[1] or not math.isfinite(cond) or cond > 1e12:
        raise RegressionBasisError(f"regression basis condition number {cond:.3e} exceeds 1e12")
    coef, *_ = np.linalg.lstsq(phi, targets, rcond=None)
    return phi @ coef, cond


def node_cloud(k, n, shift, scale, frozen_at, seed, noise_dim):
    """States and targets of one node: a Gaussian cloud, optionally with one
    frozen coordinate inserted, and the value plus its noise products."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, k))
    x = shift + scale * z
    if frozen_at is not None:
        x = np.insert(x, frozen_at, shift, axis=1)
    y = np.cos(z[:, 0]) + np.sum(z, axis=1) ** 2 + 0.1 * rng.standard_normal(n)
    noise = rng.standard_normal((n, noise_dim))
    return x, np.column_stack([y] + [y * noise[:, j] for j in range(noise_dim)])


class TestNodeFit:
    @given(
        data=st.data(),
        k=st.integers(1, 3),
        shift=st.floats(-1e3, 1e3, allow_nan=False),
        log_scale=st.floats(-2.0, 2.0, allow_nan=False),
        frozen=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        noise_dim=st.integers(1, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_svd_reference(self, data, k, shift, log_scale, frozen, seed, noise_dim):
        p = math.comb(k + REGRESSION_DEGREE, REGRESSION_DEGREE)
        n = data.draw(st.integers(p, 5000), label="n")
        frozen_at = data.draw(st.integers(0, k), label="frozen_at") if frozen else None
        x, targets = node_cloud(k, n, shift, 10.0**log_scale, frozen_at, seed, noise_dim)
        expected, expected_cond = reference_node_regression(x, targets, REGRESSION_DEGREE)
        fit = _node_regression(x, targets, REGRESSION_DEGREE)
        # fitted values through the SVD pseudo-inverse, and through the
        # coefficients, carry rounding errors of order eps * cond; Q (Q^T T)
        # does not (at n = p it returns the targets to a few eps)
        size = max(1.0, float(np.max(np.abs(expected))))
        slack = max(1e-12, 4 * np.finfo(float).eps * expected_cond) * size
        assert np.max(np.abs(fit.values - expected)) <= slack
        assert fit.cond == pytest.approx(expected_cond, rel=1e-8)
        assert np.max(np.abs(fit(x) - fit.values)) <= slack

    def test_ill_conditioned_cloud_takes_the_qr_path(self, monkeypatch):
        # a cluster with three far outliers: cond(Phi) about 1e3, above the
        # moment fit's limit and far below 1e12
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.standard_normal(2000), 50.0 + rng.standard_normal(3)])[:, None]
        targets = np.column_stack([np.sin(x[:, 0]), x[:, 0] * rng.standard_normal(x.shape[0])])
        expected, expected_cond = reference_node_regression(x, targets, REGRESSION_DEGREE)
        assert _MOMENT_FIT_COND < expected_cond <= 1e12
        factors = []
        qr = np.linalg.qr

        def recording_qr(a):
            q, r = qr(a)
            factors.append(r)
            return q, r

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        fit = _node_regression(x, targets, REGRESSION_DEGREE)
        assert len(factors) == 1
        singular = np.linalg.svd(factors[0], compute_uv=False)
        assert fit.cond == singular[0] / singular[-1]
        assert fit.cond == pytest.approx(expected_cond, rel=1e-8)
        size = max(1.0, float(np.max(np.abs(expected))))
        slack = max(1e-12, 4 * np.finfo(float).eps * expected_cond) * size
        assert np.max(np.abs(fit.values - expected)) <= slack

    @pytest.mark.parametrize("k", [1, 2])
    def test_gaussian_cloud_takes_the_moment_path(self, k, monkeypatch):
        x, targets = node_cloud(k, 10_000, 0.5, 2.0, None, 4 + k, 2)
        expected, expected_cond = reference_node_regression(x, targets, REGRESSION_DEGREE)

        def no_qr(*args, **kwargs):
            raise AssertionError("the QR fallback ran for a well-conditioned cloud")

        monkeypatch.setattr(np.linalg, "qr", no_qr)
        fit = _node_regression(x, targets, REGRESSION_DEGREE)
        assert fit.cond <= _MOMENT_FIT_COND
        assert fit.cond == pytest.approx(expected_cond, rel=1e-8)
        size = max(1.0, float(np.max(np.abs(expected))))
        slack = max(1e-12, 4 * np.finfo(float).eps * expected_cond) * size
        assert np.max(np.abs(fit.values - expected)) <= slack

    @pytest.mark.parametrize("k, frozen_at", [(1, None), (2, None), (3, 1)])
    def test_one_centred_copy_gives_the_bits_of_np_std(self, k, frozen_at, monkeypatch):
        # the fit standardizes with (x - mean) / np.std(x), bit for bit
        x, targets = node_cloud(k, 3000, 0.75, 1.5, frozen_at, 20 + k, 2)
        fit = _node_regression(x, targets, REGRESSION_DEGREE)
        xa = x[:, fit.active]
        mean, std = np.mean(xa, axis=0), np.std(xa, axis=0)
        basis = bsde.polynomial_basis

        def basis_of_np_std(_, degree, **kwargs):
            # the fit's own standardized state replaced by (x - mean) / np.std,
            # whatever keywords (out=) the fit passes on
            return basis((xa - mean) / std, degree, **kwargs)

        monkeypatch.setattr(bsde, "polynomial_basis", basis_of_np_std)
        reference = _node_regression(x, targets, REGRESSION_DEGREE)
        assert fit.mean.tobytes() == mean.tobytes()
        assert fit.std.tobytes() == std.tobytes()
        for field in ("coef", "values"):
            assert getattr(fit, field).tobytes() == getattr(reference, field).tobytes()
        assert fit.cond == reference.cond

    @pytest.mark.parametrize("k, frozen_at", [(2, None), (3, None), (3, 1)])
    def test_column_major_spread_gives_the_bits_of_the_row_major_one(self, k, frozen_at, monkeypatch):
        # max and min are exact, so reducing a column-major copy of the state
        # changes no bit of the spread, and no bit of the fit
        x, targets = node_cloud(k, 3000, 0.75, 1.5, frozen_at, 30 + k, 2)
        assert x.flags.c_contiguous and x.shape[1] >= 2
        copy = np.asfortranarray(x)
        assert copy.max(axis=0).tobytes() == x.max(axis=0).tobytes()
        assert copy.min(axis=0).tobytes() == x.min(axis=0).tobytes()
        fit = _node_regression(x, targets, REGRESSION_DEGREE)
        # the row-major formula: the spread read from the state as it is
        monkeypatch.setattr(np, "asfortranarray", lambda a: a)
        reference = _node_regression(x, targets, REGRESSION_DEGREE)
        assert fit.active.tolist() == reference.active.tolist()
        assert fit.active.tolist() == [j != frozen_at for j in range(x.shape[1])]
        for field in ("mean", "std", "coef", "values"):
            assert getattr(fit, field).tobytes() == getattr(reference, field).tobytes()
        assert fit.cond == reference.cond

    def test_basis_matches_reference(self):
        x = np.random.default_rng(1).standard_normal((200, 3))
        np.testing.assert_allclose(
            polynomial_basis(x, REGRESSION_DEGREE),
            reference_polynomial_basis(x, REGRESSION_DEGREE),
            rtol=4 * np.finfo(float).eps,
            atol=0.0,
        )

    @pytest.mark.parametrize("n, k, m", [(10_000, 1, 2), (2_000, 2, 3), (100_000, 1, 2), (10_000, 3, 4)])
    def test_moment_product_sums_row_blocks_in_order(self, n, k, m):
        # blocks of at most 2^18 multiply-adds; a product within one block
        # (every benchmark fit: at most 1e4 x 4 x 6) is the single product
        rng = np.random.default_rng(4)
        phi = polynomial_basis(rng.standard_normal((n, k)), REGRESSION_DEGREE)
        design = np.asfortranarray(np.hstack([phi, rng.standard_normal((n, m))]))
        phi = design[:, :phi.shape[1]]
        step = max(1, 2**18 // (phi.shape[1] * design.shape[1]))
        expected = phi[:step].T @ design[:step]
        for start in range(step, n, step):
            expected += phi[start:start + step].T @ design[start:start + step]
        moments = bsde._moment_product(phi, design)
        assert moments.tobytes() == expected.tobytes()
        if n <= step:
            assert moments.tobytes() == (phi.T @ design).tobytes()

    def test_cubic_targets_are_reproduced_at_new_states(self):
        rng = np.random.default_rng(2)
        x = np.column_stack([1.0 + 0.5 * rng.standard_normal(500), np.full(500, 3.0),
                             -2.0 + 2.0 * rng.standard_normal(500)])

        def cubic(s):
            return 0.5 - s[:, 0] + 2.0 * s[:, 0] ** 2 * s[:, 2] - 0.3 * s[:, 2] ** 3

        fit = _node_regression(x, cubic(x)[:, None], REGRESSION_DEGREE)
        assert fit.active.tolist() == [True, False, True]
        new = np.column_stack([rng.uniform(-1, 3, 50), np.full(50, -7.0), rng.uniform(-5, 1, 50)])
        np.testing.assert_allclose(fit(new)[:, 0], cubic(new), rtol=1e-9, atol=1e-9)

    def test_frozen_cloud_fits_the_means(self):
        x = np.full((40, 2), 0.25)
        targets = np.column_stack([np.arange(40.0), np.linspace(-1.0, 1.0, 40)])
        fit = _node_regression(x, targets, REGRESSION_DEGREE)
        assert np.array_equal(fit.values, np.tile(np.mean(targets, axis=0), (40, 1)))
        assert np.array_equal(fit(np.ones((3, 2))), np.tile(np.mean(targets, axis=0), (3, 1)))


def reference_ode_values(g, xi, horizon, n_steps):
    """Classical RK4 backward from xi, every step taken, no stop at a fixed point."""
    h = horizon / n_steps
    ys = np.empty(n_steps + 1)
    ys[-1] = y = float(xi)
    for i in range(n_steps, 0, -1):
        k1 = g(y)
        k2 = g(y + 0.5 * h * k1)
        k3 = g(y + 0.5 * h * k2)
        k4 = g(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys[i - 1] = y
    return ys


_QUARTIC = QuarticDriver(2.0, 1.0)
# the optimized quartic driver, normalized: g(0) = 0
QUARTIC_G = optimized_driver_fn(
    DeterministicSpec(_QUARTIC, _QUARTIC.interior_set(1.0), 1.0)
)


def _square(y):
    return y * y


def _equilibrium_at_half(y):
    return y * (y - 0.5)


class TestDeterministicIntegrator:
    @pytest.mark.parametrize(
        "g, xi, horizon, calls",
        [
            # one step, which returns 0.0
            (QUARTIC_G, 0.0, 1.0, 4),
            # from -0.0 the first step gives +0.0, whose sign differs; the second repeats it
            (QUARTIC_G, -0.0, 1.0, 8),
            (_equilibrium_at_half, 0.5, 1.0, 4),
            # the increment, about 2e-304, rounds away against 0.1
            (_square, 0.1, 1e-300, 4),
            (QUARTIC_G, 0.3, 1.0, 4 * 50),
            (_square, 0.1, 1.0, 4 * 50),
        ],
        ids=["quartic-zero", "quartic-negative-zero", "equilibrium", "increment-rounds-away",
             "quartic-moving", "square-moving"],
    )
    def test_stop_at_a_fixed_point_keeps_every_byte(self, g, xi, horizon, calls):
        n_steps = 50
        evaluations = []

        def counted(y):
            evaluations.append(y)
            return g(y)

        times, ys = solve_deterministic_ode(counted, xi, horizon, n_steps)
        assert ys.tobytes() == reference_ode_values(g, xi, horizon, n_steps).tobytes()
        assert times.tobytes() == np.linspace(0.0, horizon, n_steps + 1).tobytes()
        assert len(evaluations) == calls

    def test_zero_terminal_stays_zero(self):
        def g(y):
            return y * y

        _, ys = solve_deterministic_ode(g, 0.0, 1.0, 100)
        assert np.all(ys == 0.0)

    def test_oversized_step_count_rejected(self):
        # 8e20 bytes: more than numpy can index, so nothing is allocated
        with pytest.raises(UsageError, match="value path"):
            solve_deterministic_ode(lambda y: y, 0.5, 1.0, 10**20)

    def test_linear_driver_closed_form(self):
        lam0 = 0.7

        def g(y):
            return lam0 * y

        _, ys = solve_deterministic_ode(g, 0.5, 1.0, 200)
        # y' = -lam0 y backward from 0.5 gives y(0) = 0.5 e^{lam0}
        assert ys[0] == pytest.approx(0.5 * np.exp(lam0), rel=1e-9)

    def test_quadratic_driver_closed_form(self):
        def g(y):
            return y * y

        _, ys = solve_deterministic_ode(g, 0.1, 1.0, 500)
        assert ys[0] == pytest.approx(0.1 / 0.9, rel=1e-10)

    def test_fourth_order_convergence(self):
        def g(y):
            return y * y + 0.3 * np.sin(y)

        ref = solve_deterministic_ode(g, 0.2, 1.0, 4096)[1][0]
        errors = [abs(solve_deterministic_ode(g, 0.2, 1.0, n)[1][0] - ref) for n in (16, 32, 64)]
        r1 = errors[0] / errors[1]
        r2 = errors[1] / errors[2]
        assert 10.0 <= r1 <= 22.0
        assert 10.0 <= r2 <= 22.0

    def test_divergence_detected(self):
        def g(y):
            return y * y

        with pytest.raises(DivergenceError):
            solve_deterministic_ode(g, 2.0, 1.0, 100)

    def test_driver_overflow_is_divergence(self):
        # a Python float power raises OverflowError before the value turns non-finite
        def g(y):
            return y ** 2

        with pytest.raises(DivergenceError) as info:
            solve_deterministic_ode(g, 1e200, 1.0, 10)
        assert info.value.node == 9
        assert isinstance(info.value.__cause__, OverflowError)
