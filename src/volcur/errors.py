"""Exception hierarchy.

Three top-level families map onto the CLI exit codes: ValidationError (1,
bad inputs), NumericalError (2, computation cannot proceed or failed), and
CapExceededError (3, a work cap would be blown).
"""
import operator


class VolcurError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(VolcurError, ValueError):
    """Input violates a documented precondition or file format."""


class NumericalError(VolcurError, ArithmeticError):
    """A numerical computation is undefined or did not succeed."""


class CapExceededError(VolcurError):
    """Requested work exceeds a hard enumeration or size cap."""


class DegenerateTailError(ValidationError):
    """Head/tail split requested at a pivot eigenvalue that is zero."""


class BoundInapplicableError(ValidationError):
    """A majorant bound was requested but domination fails; the message
    names the first violating index."""


class RankDeficiencyError(NumericalError):
    """An ESP ratio e_{k+1}/e_k is undefined because e_k = 0."""


class SingularPivotError(NumericalError):
    """A pivot block is numerically singular: its pivoted Cholesky meets a
    pivot at or below PIVOT_REL_TOL (1e-14) times the block's largest
    diagonal entry."""


class DegenerateDistributionError(NumericalError):
    """Volume sampling at rank k is degenerate: every k-subset has zero
    volume (k exceeds the matrix rank)."""


class EigensolverError(NumericalError):
    """The eigensolver failed to converge."""


def checked_int(value, name: str, minimum: int, maximum: int | None = None) -> int:
    """value as a Python int (numpy integers too), the one integer check.

    ValidationError unless value is an integer (2.5 and "3" are not) of at
    least minimum, which is 0 ("nonnegative") or 1 ("positive"), and, when
    maximum is given, at most maximum; that error names the bound and value.
    """
    try:
        value = operator.index(value)
    except TypeError:
        value = None
    if value is None or value < minimum:
        kind = "positive" if minimum else "nonnegative"
        raise ValidationError(f"{name} must be a {kind} integer")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{name} must be at most {maximum}, got {value}")
    return value
