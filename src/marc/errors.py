"""Exception taxonomy shared by the library and the command line tool, and
the one check of integer-valued fields.

The CLI maps these onto exit codes: validation problems exit 2, file and
format problems exit 3, numerical failures exit 4.
"""
import numbers


class MarcError(Exception):
    """Base class for everything raised deliberately by this package."""


class ValidationError(MarcError, ValueError):
    """Invalid argument, shape, label, mask, or configuration."""


class DegenerateMatrixError(ValidationError):
    """An input matrix has no usable structure (e.g. an all-zero span)."""


class FormatError(MarcError, ValueError):
    """A file does not follow one of the on-disk formats."""


class NumericalError(MarcError, RuntimeError):
    """A solver or factorization failed to produce finite results."""


def check_integer(value: object, what: str, minimum: int = 0) -> None:
    """Raise ValidationError, naming the field `what`, unless `value` is a
    Python or numpy integer (not a bool or a float) of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        bound = "a non-negative integer" if minimum == 0 else f">= {minimum}"
        raise ValidationError(f"{what} must be {bound}, got {value!r}")
