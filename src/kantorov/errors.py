"""Exception types shared across the package, and the operator index
check that raises one."""

from __future__ import annotations

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


def check_n(n) -> None:
    """Raise :class:`ConfigError` unless the operator index ``n`` is an
    integer >= 1 (``True`` is not an index)."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise ConfigError(f"operator index n must be an integer >= 1, got {n!r}")
