"""Exception hierarchy shared across the package."""

from __future__ import annotations


class IndepkitError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(IndepkitError):
    """Invalid schema, tuple, or attribute reference."""


class ParseError(IndepkitError):
    """Malformed constraint or relation text, with an optional position."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at column {position + 1})"
        super().__init__(message)
        self.position = position


class OracleInfeasibleError(IndepkitError):
    """The grounding oracle would exceed its configured bound."""


class SaturationLimitError(IndepkitError):
    """The attribute universe is too large for closure computation."""


class FragmentError(IndepkitError):
    """A decider was queried outside the fragment it is exact for."""


class SearchBoundsError(IndepkitError):
    """A counterexample search request exceeds the configured bounds."""
