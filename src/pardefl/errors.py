"""Exception types shared across the package.

Each class carries the process exit code the command line returns for it
as `exit_code`: configuration problems exit with 2, numerical failures
with 3, data-format and batch-source problems with 4 (as does `OSError`).
"""


class PardeflError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 3


class ConfigError(PardeflError, ValueError):
    """Invalid argument, configuration, or violated precondition."""
    exit_code = 2


class CapacityError(ConfigError):
    """A requested allocation exceeds the configured memory cap."""


class NumericalError(PardeflError, ArithmeticError):
    """Numerical failure: degenerate input, lost convergence, domain error."""


class DegenerateSpectrumError(NumericalError):
    """Eigenvalue structure too degenerate for the requested operation."""


class CoverageError(NumericalError):
    """A recorded run is too short for the requested schedule check."""


class DataFormatError(PardeflError, ValueError):
    """Malformed data file."""
    exit_code = 4


class StreamError(PardeflError, RuntimeError):
    """A batch source failed or ran out mid-run."""
    exit_code = 4
