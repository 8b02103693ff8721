"""Exception types shared across the package."""


class SeidelSpecError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SeidelSpecError, ValueError):
    """Matrix input is not square (or rows have uneven length)."""


class ExactDivisionError(SeidelSpecError, ArithmeticError):
    """Exact polynomial division was requested but the divisor does not divide."""


class NonMonicError(SeidelSpecError, ValueError):
    """Operation requires a monic polynomial."""


class ZeroPolynomialError(SeidelSpecError, ValueError):
    """Operation is undefined for the zero polynomial."""


class CapExceededError(SeidelSpecError, ValueError):
    """Input size exceeds the documented cap for this operation."""


class InvalidPartitionError(SeidelSpecError, ValueError):
    """Partition text or part sizes are not valid."""


class EmptyPartitionError(InvalidPartitionError):
    """A partition needs at least one part."""


class GraphFormatError(SeidelSpecError, ValueError):
    """Malformed graph6 input."""


class AsymmetryError(SeidelSpecError, ValueError):
    """Matrix is not symmetric within tolerance."""


class NonFiniteError(SeidelSpecError, ValueError):
    """A matrix entry, or an eigenvalue it implies, is not a finite float."""


class ConvergenceError(SeidelSpecError, RuntimeError):
    """Iterative eigenvalue computation failed to converge."""


class ConsistencyError(SeidelSpecError):
    """Two views of the same quantity disagree (exact and numeric beyond
    tolerance, or a replayed certificate and its target)."""


class TheoremViolationError(ConsistencyError):
    """A property that must hold for every input was violated; hard failure."""
