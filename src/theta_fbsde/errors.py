"""Exception types shared across the solver stack.

``UsageError``-family exceptions signal bad inputs (CLI exit code 1);
``NumericalError`` subclasses signal run-time failures of the numerics
(CLI exit code 2).
"""


class UsageError(ValueError):
    """The caller violated an operation contract."""


class ConfigurationError(UsageError):
    """A configuration value is structurally invalid."""


class ParameterError(UsageError):
    """A numeric parameter is outside its admissible range."""


class GridError(UsageError):
    """A discretization grid violates a stability or shape constraint."""


class NumericalError(RuntimeError):
    """Base class for failures of the numerical machinery at run time."""


class ConcavityError(NumericalError):
    """The driver failed a strong-concavity check."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class DivergenceError(NumericalError):
    """A state or value became non-finite during integration; the message
    ends with the ``node`` where it did, when one is given."""

    def __init__(self, message, node=None):
        super().__init__(message if node is None else f"{message} at node {node}")
        self.node = node


class RegressionBasisError(NumericalError):
    """The regression design matrix is numerically rank deficient."""


class NonContractionError(NumericalError):
    """Fixed-point deltas stopped contracting."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NoConvergenceError(NumericalError):
    """The iteration budget was exhausted before the tolerance was met."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
