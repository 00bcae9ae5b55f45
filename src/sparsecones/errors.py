"""Exception types shared across the library."""


class NumericalError(RuntimeError):
    """An iterative kernel (the phase-1 simplex) failed to converge."""


class PreconditionError(ValueError):
    """An input violates a documented precondition; the message names it."""
