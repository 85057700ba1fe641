"""Turnkey reproductions of the two fully specified systems.

One scenario isolates the driver nonlinearity in the deterministic reduction
and reports its curvature and the additivity defects; the other solves the
ambiguous dynamical system side by side with its convexified variant to show
how the valuation reacts to the set geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coupling import picard_solve
from .errors import ConfigurationError, ParameterError, UsageError
from .optimizer import (
    LinearF0,
    QuadraticPenaltyDriver,
    QuarticDriver,
    concavity_audit,
)
from .properties import (
    DeterministicSpec,
    check_subadditivity,
    check_translation_invariance,
    theta_expectation,
)
from .sde import (
    AffineControlDrift,
    ConstantVolatility,
    LinearTerminal,
    ProblemSpec,
    SolutionPaths,
    TimeGrid,
)
from .uncertainty import AmbiguityMap, IntervalUnion, static_set


@dataclass(frozen=True)
class CounterexampleReport:
    lam: float
    gamma: float
    c: float
    horizon: float
    n_steps: int
    curvature_analytic: float
    curvature_numeric: float
    e_zero: float
    e_plus: float
    e_minus: float
    subadditivity_gap: float
    translation_defect: float
    concavity_modulus: float
    concavity_min_observed: float
    concavity_passed: bool

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def quartic_reduction(lam: float, gamma: float, c: float, horizon: float) -> DeterministicSpec:
    """Deterministic quartic reduction that both quartic suites value.

    The control set is the driver's interior set at 1 + |c|, so while a value
    path keeps |y| <= 1 + |c| its argmax is interior and each valuation is
    that of the problem over all of R.  The sub-additivity guard already
    stops a path at |y| > 0.5.
    """
    if not math.isfinite(c):
        raise ParameterError(f"c must be finite, got {c}")
    driver = QuarticDriver(lam, gamma)
    try:
        control_set = driver.interior_set(1.0 + abs(c))
    except ConfigurationError as exc:  # the set's radius overflowed
        raise ParameterError(
            f"c is too large: the control set radius at 1 + |c| = {1.0 + abs(c)} overflows"
        ) from exc
    return DeterministicSpec(driver, control_set, horizon)


def run_counterexample(
    lam: float, gamma: float, c: float = 0.1, horizon: float = 1.0, n_steps: int = 1000
) -> CounterexampleReport:
    """Deterministic quartic system: curvature and additivity diagnostics."""
    spec = quartic_reduction(lam, gamma, c, horizon)
    driver = spec.driver
    grid = TimeGrid(horizon, n_steps)

    sub = check_subadditivity(spec, c, grid)
    e_plus, _ = theta_expectation(spec, grid, xi=c)
    e_minus, _ = theta_expectation(spec, grid, xi=-c)
    audit = concavity_audit(driver)
    return CounterexampleReport(
        lam=lam,
        gamma=gamma,
        c=c,
        horizon=horizon,
        n_steps=n_steps,
        curvature_analytic=driver.curvature_at_zero,
        curvature_numeric=driver.numeric_curvature(),
        e_zero=sub.e_sum,
        e_plus=e_plus,
        e_minus=e_minus,
        subadditivity_gap=sub.gap,
        translation_defect=check_translation_invariance(spec, 0.0, c, grid),
        concavity_modulus=driver.kappa,
        concavity_min_observed=audit.min_modulus,
        concavity_passed=audit.passed,
    )


@dataclass(frozen=True, eq=False)
class ApplicationReport:
    control_nonconvex: float
    control_hull: float
    multiplier_nonconvex: float      # 1 + 3 w on the original set
    multiplier_hull: float
    y0_nonconvex: float
    y0_hull: float
    y0_gap: float
    x_terminal_mean_nonconvex: float
    x_terminal_mean_hull: float
    x_terminal_std_nonconvex: float
    x_terminal_std_hull: float
    iterations_nonconvex: int
    iterations_hull: int
    solution_nonconvex: SolutionPaths
    solution_hull: SolutionPaths

    def to_dict(self) -> dict:
        skip = {"solution_nonconvex", "solution_hull"}
        return {k: getattr(self, k) for k in self.__dataclass_fields__ if k not in skip}


def build_application_spec(
    C0,
    C1,
    sigma,
    kappa: float,
    w0: float,
    f0,
    ambiguity: AmbiguityMap,
    x0,
    horizon: float,
    terminal=None,
) -> ProblemSpec:
    """Problem bundle for the ambiguous dynamical system."""
    drift = AffineControlDrift(np.asarray(C0, float), np.asarray(C1, float))
    vol = ConstantVolatility(np.asarray(sigma, float))
    driver = QuadraticPenaltyDriver(kappa=kappa, w0=w0, f0=f0 if f0 is not None else LinearF0(0.0))
    if terminal is None:
        terminal = LinearTerminal(np.ones(drift.C0.size))
    return ProblemSpec(
        horizon=horizon,
        x0=np.asarray(x0, float),
        drift=drift,
        volatility=vol,
        driver=driver,
        terminal=terminal,
        ambiguity=ambiguity,
    )


def run_application(
    spec: ProblemSpec, grid: TimeGrid, n_particles: int, seed: int = 0, **solver
) -> ApplicationReport:
    """Solve the system on its set and on the set's convex hull, and compare.

    ``solver`` holds the keyword arguments of :func:`picard_solve` (``tol``,
    ``max_iter``, ``damping``) and reaches both solves.  The hull
    comparison is defined for static ambiguity; a law-dependent map has no
    single convexification.  Each reported control is its solve's own: the
    quadratic penalty driver's argmax reads no state and the set is static,
    so one control holds at every node and particle.  The reported drift
    multipliers ``1 + 3 w`` take the control rule of that driver.
    """
    if not spec.ambiguity.is_static:
        raise UsageError("the convexified comparison needs a static set")
    if not isinstance(spec.driver, QuadraticPenaltyDriver):
        raise UsageError("the convexified comparison needs the quadratic penalty driver")
    base = spec.ambiguity.realize_at(spec.ambiguity.theta_bounds[0])
    hull = base.convex_hull()
    spec_hull = replace(spec, ambiguity=static_set(hull.intervals))
    sol, rep = picard_solve(spec, grid, n_particles, seed=seed, **solver)
    sol_h, rep_h = picard_solve(spec_hull, grid, n_particles, seed=seed, **solver)

    w_star = float(sol.A[0, 0])
    w_hull = float(sol_h.A[0, 0])
    xt = sol.X[-1].ravel() if sol.X.shape[2] == 1 else np.linalg.norm(sol.X[-1], axis=1)
    xt_h = sol_h.X[-1].ravel() if sol_h.X.shape[2] == 1 else np.linalg.norm(sol_h.X[-1], axis=1)
    return ApplicationReport(
        control_nonconvex=w_star,
        control_hull=w_hull,
        multiplier_nonconvex=1.0 + 3.0 * w_star,
        multiplier_hull=1.0 + 3.0 * w_hull,
        y0_nonconvex=sol.y0,
        y0_hull=sol_h.y0,
        y0_gap=sol.y0 - sol_h.y0,
        x_terminal_mean_nonconvex=float(np.mean(xt)),
        x_terminal_mean_hull=float(np.mean(xt_h)),
        x_terminal_std_nonconvex=float(np.std(xt)),
        x_terminal_std_hull=float(np.std(xt_h)),
        iterations_nonconvex=rep.iterations,
        iterations_hull=rep_h.iterations,
        solution_nonconvex=sol,
        solution_hull=sol_h,
    )


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AssumptionLedger:
    checks: tuple[AssumptionCheck, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
        }


def verify_global_assumptions(
    C1, ambiguity: AmbiguityMap | IntervalUnion, kappa: float, f0_lipschitz: float
) -> AssumptionLedger:
    """Checkable hypotheses for long-horizon well-posedness of the system.

    A failed ledger does not forbid a short-horizon solve; it only withdraws
    the dissipativity argument that covers arbitrary horizons.
    """
    if isinstance(ambiguity, IntervalUnion):
        ambiguity = static_set(ambiguity.intervals)
    c1 = np.atleast_2d(np.asarray(C1, dtype=float))
    checks = []

    symmetric = bool(np.allclose(c1, c1.T, atol=1e-12))
    checks.append(
        AssumptionCheck("C1_symmetric", symmetric, f"max asymmetry {np.max(np.abs(c1 - c1.T)):.2e}")
    )
    if symmetric:
        eig_min = float(np.min(np.linalg.eigvalsh(c1)))
    else:
        eig_min = float(np.min(np.real(np.linalg.eigvals(c1))))
    checks.append(
        AssumptionCheck(
            "C1_positive_definite", eig_min > 0.0, f"smallest eigenvalue {eig_min:.6g}"
        )
    )

    w_lo, w_hi = ambiguity.control_range()
    delta = 1.0 + 3.0 * w_lo
    mult_ok = delta > 0.0
    detail = f"min(1 + 3w) = {delta:.6g} over controls [{w_lo:.6g}, {w_hi:.6g}]"
    if not mult_ok:
        detail += "; long-horizon hypotheses fail, short-horizon solves remain allowed"
    checks.append(AssumptionCheck("drift_multiplier_positive", mult_ok, detail))

    checks.append(
        AssumptionCheck("concavity_modulus_positive", kappa > 0.0, f"kappa = {kappa:.6g}")
    )
    f0_ok = math.isfinite(f0_lipschitz)
    checks.append(
        AssumptionCheck("f0_lipschitz_finite", f0_ok, f"bound = {f0_lipschitz:.6g}")
    )
    return AssumptionLedger(tuple(checks), all(c.passed for c in checks))
