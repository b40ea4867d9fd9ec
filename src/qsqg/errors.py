"""Exception types shared across the package."""


class GridMismatchError(ValueError):
    """Operands live on different grids."""


class DivergenceError(RuntimeError):
    """An iteration or time integration produced NaN or overflow."""

    def __init__(self, message, *, iteration=None, time=None):
        super().__init__(message)
        self.iteration = iteration
        self.time = time


class NonFiniteError(ValueError):
    """An estimator met a non-finite input or produced a non-finite
    intermediate (an overflowed or NaN density)."""
