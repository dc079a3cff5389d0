"""Exception hierarchy: one class per CLI exit code.

Every failure raises one of three families, whose exit_code is the CLI's
exit status for it: ValidationError 1 (bad inputs), NumericalError 2
(computation cannot proceed or failed), CapExceededError 3 (a work cap
would be blown).  VolcurError is their base, with exit code 2.  The
message says which precondition or step failed.
"""
import operator

__all__ = [
    "VolcurError",
    "ValidationError",
    "NumericalError",
    "CapExceededError",
]


class VolcurError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class ValidationError(VolcurError, ValueError):
    """Input violates a documented precondition or file format."""

    exit_code = 1


class NumericalError(VolcurError, ArithmeticError):
    """A numerical computation is undefined or did not succeed."""


class CapExceededError(VolcurError):
    """Requested work exceeds a hard enumeration or size cap."""

    exit_code = 3


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
