"""Exception types shared across the package.

The CLI maps these onto exit codes: input/parse problems exit 1,
precondition violations exit 2, and internal property failures exit 3.
"""


class DiatomicError(Exception):
    """Base class for all package errors."""


class InputError(DiatomicError):
    """Malformed input file or unparseable argument."""


class DomainError(DiatomicError):
    """A parameter is outside its admissible range."""


class StructuralError(DiatomicError):
    """Array shapes or index ranges do not line up."""


class PreconditionError(DiatomicError):
    """A documented operation precondition does not hold."""


class ConvergenceError(DiatomicError):
    """Fixed-point iteration exhausted max_iter above tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class ResourceError(DiatomicError):
    """A configured size or enumeration budget was exceeded."""


class PropertyFailure(DiatomicError):
    """A mathematical identity that should hold was violated."""


class SolverError(DiatomicError):
    """Numerical breakdown inside the LP solver."""
