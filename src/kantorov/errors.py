"""Exception types shared across the package, and the argument checks
for the operator index, the norm exponent and other counts that raise
one."""

from __future__ import annotations

import math
import numbers


class KantorovError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(KantorovError, ValueError):
    """An argument or a run configuration is invalid; a ``ValueError`` too."""


class NumericError(KantorovError):
    """A numeric evaluation produced a non-finite value.

    Carries the offending point (if known) in ``point``.
    """

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


def check_count(value, what: str) -> None:
    """Raise :class:`ConfigError` naming ``what`` unless ``value`` is an
    integer >= 1 (``True`` is not a count)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ConfigError(f"{what} must be an integer >= 1, got {value!r}")


def check_n(n) -> None:
    """:func:`check_count` of the operator index ``n``."""
    check_count(n, "operator index n")


def check_p(p) -> None:
    """Raise :class:`ConfigError` unless the norm exponent ``p`` is a
    finite real number >= 1 (``True`` is not a number)."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 1.0 <= p < math.inf:
        raise ConfigError(f"p must be >= 1 and finite, got {p!r}")
