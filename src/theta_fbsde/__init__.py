"""Solver stack for fully coupled forward-backward systems whose backward
drift is a pointwise maximum over a law-dependent union of intervals."""

from .bsde import solve_backward, solve_deterministic_ode
from .coupling import PicardReport, picard_solve, weighted_delta
from .errors import (
    ConcavityError,
    ConfigurationError,
    DivergenceError,
    GridError,
    NoConvergenceError,
    NonContractionError,
    NumericalError,
    ParameterError,
    RegressionBasisError,
    UsageError,
)
from .measures import EmpiricalMeasure, moments, w2
from .optimizer import (
    ConcavityAudit,
    DriverState,
    GenericDriver,
    LinearF0,
    OptimizerResult,
    QuadraticPenaltyDriver,
    QuarticDriver,
    TableF0,
    concavity_audit,
    driver_sup,
    maximize_batch,
    maximize_over,
)
from .pde import (
    FeynmanKacReport,
    Grid1D,
    check_stability,
    default_grid,
    feynman_kac_check,
    flow_from_solution,
    solve_hjb,
    write_surface_csv,
)
from .properties import (
    DeterministicSolution,
    DeterministicSpec,
    MartingaleReport,
    MonotonicityCheck,
    SubadditivityCheck,
    check_dynamic_consistency,
    check_monotonicity,
    check_subadditivity,
    check_translation_invariance,
    martingale_diagnostics,
    subadditivity_gate,
    theta_expectation,
    translation_defect_gate,
    y0_standard_error,
)
from .scenarios import (
    ApplicationReport,
    AssumptionLedger,
    CounterexampleReport,
    build_application_spec,
    quartic_reduction,
    run_application,
    run_counterexample,
    verify_global_assumptions,
)
from .sde import (
    AffineControlDrift,
    CallableDrift,
    CallableTerminal,
    CallableVolatility,
    ConstantTerminal,
    ConstantVolatility,
    LinearTerminal,
    ProblemSpec,
    QuadraticTerminal,
    SolutionPaths,
    TimeGrid,
    brownian_increments,
    simulate_forward,
    write_paths_csv,
)
from .uncertainty import (
    AmbiguityMap,
    IntervalUnion,
    hausdorff,
    static_set,
)

__version__ = "0.1.0"
