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
    """Design matrix is numerically rank deficient under the rank rule.

    ``covariate_index`` is the covariate whose block failed the rule, when
    the raiser knows it.
    """

    def __init__(self, message: str, covariate_index: int | None = None) -> None:
        super().__init__(message)
        self.covariate_index = covariate_index
