"""Exception types shared across the package.

Every error raised on purpose derives from FormcError so callers (and the
command line driver) can catch one type and print a diagnostic.
"""


class FormcError(Exception):
    """Base class for all errors raised by this package."""


# --- reference elements ---------------------------------------------------


class UnsupportedShape(FormcError):
    """Cell shape is not one of interval, triangle, tetrahedron."""


class UnsupportedDegree(FormcError):
    """Polynomial degree outside the supported range."""


class PointOutsideCell(FormcError):
    """Evaluation point lies outside the closed reference cell."""


class IncompatibleCells(FormcError):
    """Operands built on different cell shapes were combined."""


# --- form language --------------------------------------------------------


class FormSyntaxError(FormcError):
    """Malformed form file input.

    Carries the 1-based line and column of the offending token.
    """

    def __init__(self, message, line=None, col=None):
        if line is not None and col is not None:
            message = "%s (line %d, column %d)" % (message, line, col)
        elif line is not None:
            message = "%s (line %d)" % (message, line)
        super().__init__(message)
        self.line = line
        self.col = col


class UndefinedName(FormcError):
    """Identifier used before being declared."""


class ArityError(FormcError):
    """A term is not linear in every argument of the form."""


class MissingMeasure(FormcError):
    """A top-level term does not end with the measure dx."""


# --- index classification -------------------------------------------------


class IndexOccursOnce(FormcError):
    """A free index appears only once in a monomial."""


class IndexOccursThrice(FormcError):
    """A free index appears three or more times in a monomial."""


class UnsupportedDerivative(FormcError, NotImplementedError):
    """A factor carries more than one derivative."""


# --- runtime ---------------------------------------------------------------


class DegenerateCell(FormcError):
    """Cell with zero Jacobian determinant."""


class DuplicateCell(FormcError):
    """Two mesh cells share the same vertex set."""


class DimensionMismatch(FormcError):
    """Mesh and element dimensions disagree."""


class NonFiniteValue(FormcError):
    """A vertex coordinate or coefficient value is NaN or infinite."""


class MaxIterations(FormcError):
    """Iterative solver failed to converge within the iteration budget."""


class NotSymmetric(FormcError):
    """Matrix handed to the CG solver fails the symmetry spot check."""


# --- benchmarking ----------------------------------------------------------


class ValueMismatch(FormcError):
    """Tensor and quadrature paths disagree before timing."""
