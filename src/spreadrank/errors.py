"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: a :class:`ParameterError` (an
out-of-range setting, an unknown measure id, an unusable dataset name)
exits with 2, a :class:`ConvergenceError` with 4, and every other toolkit
error, like a missing input file, with 3.
"""


class SpreadrankError(Exception):
    """Base class for all toolkit errors."""


class ParseError(SpreadrankError):
    """An input file line could not be parsed."""


class ValidationError(SpreadrankError):
    """Input data violates a documented precondition or invariant."""


class ParameterError(SpreadrankError):
    """A user-supplied parameter is outside its valid range or names nothing known."""


class ConvergenceError(SpreadrankError):
    """An iterative solver failed to converge."""

    def __init__(self, message: str, residual: float | None = None):
        if residual is not None:
            message = f"{message} (residual={residual:.3e})"
        super().__init__(message)
        self.residual = residual


class UndefinedCorrelationError(SpreadrankError):
    """Rank correlation is undefined, e.g. one ranking is constant."""


class DataError(SpreadrankError):
    """Stored artifacts are inconsistent with each other or the config."""
