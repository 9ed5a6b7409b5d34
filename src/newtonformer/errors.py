"""Exception types shared across the package."""

__all__ = [
    "ShapeMismatchError",
    "SymmetryError",
    "DefinitenessError",
    "ConvergenceError",
    "BudgetError",
    "ScanAnomalyError",
]


class ShapeMismatchError(ValueError):
    """Operands have incompatible shapes."""


class SymmetryError(ValueError):
    """A matrix required to be symmetric is not."""


class DefinitenessError(ValueError):
    """A matrix required to be positive definite is not."""


class ConvergenceError(RuntimeError):
    """An iteration exhausted its step budget before reaching tolerance.

    The partial run (residual history or iterate trace) is attached as
    ``trace`` so callers can inspect how far the iteration got.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class BudgetError(ValueError):
    """A width/depth budget is insufficient or overflows its ceiling.

    ``bound`` names the specific budget field or bound that failed.
    """

    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class ScanAnomalyError(RuntimeError):
    """The decrease scan hit a point outside the domain of its formula.

    ``location`` is the offending ``(x, c, c_prime)`` triple.
    """

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location
