"""Exception types shared across the package.

The hierarchy is flat; the CLI (cli.py) maps the classes to exit codes:

    2  ConfigurationError
    4  FormatError
    5  DivergenceError, SolverError
    6  every other SpinflowError: PreconditionError, DomainError,
       OutOfDomainError, ExtractionError, DecayError, DegenerateFitError

Exit 3 is an OSError, not a SpinflowError.
"""


class SpinflowError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(SpinflowError):
    """Inconsistent setup: component-count mismatch, bad chart/spec pairing,
    non-invertible operator configuration, mismatched charts across inputs."""


class DomainError(SpinflowError):
    """Operation not supported on this chart kind (e.g. spectral mode off-torus)."""


class OutOfDomainError(SpinflowError):
    """A resampling request needs points outside the source chart."""


class PreconditionError(SpinflowError):
    """Input violates a documented precondition (support, geometry, ranges)."""


class DivergenceError(SpinflowError):
    """Fixed-point iteration diverged. Carries the iteration history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class SolverError(SpinflowError):
    """Linear solver failed to converge. Carries the residual history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class ExtractionError(SpinflowError):
    """Bubble extraction could not bracket the target concentration energy."""


class DecayError(SpinflowError):
    """Field does not decay fast enough for the requested chart transfer."""


class DegenerateFitError(SpinflowError):
    """A log-log fit was requested on data containing zeros."""


class FormatError(SpinflowError):
    """A serialized file does not match the expected binary/text format."""
