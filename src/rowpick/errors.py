"""Exception types shared across the library."""


class RowpickError(Exception):
    """Base class for every error raised by this library."""


class EmptyMatrixError(RowpickError, ValueError):
    """A matrix argument has zero columns (or rows) where content is required."""


class DimensionMismatchError(RowpickError, ValueError):
    """Operand shapes are incompatible."""


class RankDeficientError(RowpickError, ValueError):
    """A factor that must have full numerical rank does not."""


class RankDeficientUpdateError(RankDeficientError):
    """An appended column lies numerically in the span of the absorbed ones."""


class InvalidSparsityError(RowpickError, ValueError):
    """Row sparsity does not divide the embedding dimension, or exceeds it."""


class InvalidParamError(RowpickError, ValueError):
    """A scalar parameter is out of its documented range."""


class NotOrthonormalError(RowpickError, ValueError):
    """An input required to have orthonormal columns does not."""


class NotPSDError(RowpickError, ValueError):
    """A kernel matrix has an eigenvalue materially below zero."""


class TooLargeError(RowpickError, ValueError):
    """An enumeration guard tripped; the instance is beyond desk scale."""


class MaxRoundsExceededError(RowpickError, RuntimeError):
    """The block rejection sampler hit its round cap without completing."""

