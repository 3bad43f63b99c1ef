"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class,
and each class carries its stable CLI exit code as the class attribute
exit_code. All inherit from OreShapeError.
"""


class OreShapeError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 1


class ParseError(OreShapeError):
    """Malformed operator text or ideal file."""
    exit_code = 2

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)


class ArityError(OreShapeError):
    """A symbol refers to a parameter index outside 1..nvars, or operator

    arities are mixed within one computation."""
    exit_code = 2


class DivisionByZero(OreShapeError, ZeroDivisionError):
    """Division by the zero polynomial or zero rational function."""
    exit_code = 3


class PoleAtPoint(OreShapeError):
    """A rational function was evaluated where its denominator vanishes."""
    exit_code = 3


class PoleAtOrigin(PoleAtPoint):
    """A coefficient has no power series expansion at the origin."""


class NonOrdinaryOrigin(OreShapeError):
    """A matrix of the quotient action has a pole at 0, so the solutions have
    no canonical basis there; raised before any series walk."""
    exit_code = 3


class NotZeroDimensional(OreShapeError):
    """The quotient by the ideal is not finite dimensional over K."""
    exit_code = 3


class NotNormalPosition(OreShapeError):
    """The elimination operator has order below the quotient dimension, so
    no shape basis exists for this ideal as given (from normalize: sheared)."""
    exit_code = 3


class NotCyclic(OreShapeError):
    """The proposed vector does not generate the quotient under the action
    of the main derivative."""
    exit_code = 3


class DegreeCapExceeded(OreShapeError):
    """Groebner completion produced an operator above the configured order
    cap; raised instead of looping on pathological input."""
    exit_code = 4


class ResourceLimit(OreShapeError):
    """A result or a search past its bound: a printed number with more than
    arith.MAX_DIGITS digits in its numerator or denominator, a series walk
    of more than series.MAX_SERIES_MONOMIALS monomials, or a check-dradical
    system or normalize shear grid past series.MAX_DEPENDENCE_WORK or
    shape.MAX_SHEAR_WORK, refused before it starts."""
    exit_code = 4


class TruncationTooSmall(OreShapeError):
    """A series computation cannot guarantee even one correct coefficient at
    the requested truncation order."""
    exit_code = 4


class InternalError(OreShapeError):
    """An internal self-check failed: a result did not pass the test that
    certifies it.  This is a bug, never a property of the input."""
