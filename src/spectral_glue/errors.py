"""Exception types shared across the package."""

from collections.abc import Mapping


class SpectralGlueError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidInputError(SpectralGlueError, ValueError):
    """An argument violates a precondition (unknown prime, foreign poset, ...)."""


class FiltrationOrderError(SpectralGlueError):
    """A would-be filtration fails the decreasing condition X_n >= X_{n+1}."""


class IncompatibleFamilyError(SpectralGlueError):
    """A local family fails the pairwise gluing condition.

    Carries the offending degree and a witness triple (m, m', p) when known.
    """

    def __init__(self, message, degree=None, witness=None):
        super().__init__(message)
        self.degree = degree
        self.witness = witness


class UnsupportedRingError(SpectralGlueError):
    """The operation is not defined for this ring kind (usually the Z adapter)."""


def json_object(value, what: str) -> Mapping:
    """``value`` if it is a JSON object; otherwise an error naming ``what``."""
    # a JSON object is a dict; the Mapping check is the slow path
    if type(value) is not dict and not isinstance(value, Mapping):
        raise InvalidInputError(f"{what} must be a JSON object, got {value!r}")
    return value


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; otherwise an error naming ``what``."""
    # bool is a subclass of int, but JSON true is not a number
    if type(value) is not int:
        raise InvalidInputError(f"{what} must be an integer, got {value!r}")
    return value


def json_list(value, what: str) -> list:
    """``value`` if it is a JSON array; otherwise an error naming ``what``."""
    if type(value) is not list:
        raise InvalidInputError(f"{what} must be a JSON array, got {value!r}")
    return value
