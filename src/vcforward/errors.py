"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration/usage problems exit 1,
data problems exit 2, numerical failures exit 3.
"""


class ConfigError(ValueError):
    """Invalid configuration or conflicting options."""


class DataError(ValueError):
    """Malformed or unusable input data."""


class NumericalError(RuntimeError):
    """Numerical failure that prevents a result."""


class OverparameterizedError(NumericalError):
    """Requested fit has more coefficients than observations."""


class SingularDesignError(NumericalError):
    """Design matrix is numerically rank deficient under the rank rule."""


class DegenerateCandidateError(Exception):
    """Candidate block is (numerically) collinear with the current model.

    Control-flow signal: the selector skips the candidate.
    """


class NoCandidateError(Exception):
    """Every candidate in the pool is degenerate; selection cannot proceed."""
