"""Exception types shared across the package; every check raises one of them.

An :class:`InputError` (the CLI exits 2) means the caller's input is
invalid: ParseError, UnitMismatch, TooFewPoints, DegenerateFit, and
InvalidRange (also a ValueError) with its subclass NonMonotonicFlux.  The
rest (ZeroFlux, WindowTooSmall, NearDegeneracy, InsufficientSignal,
NotDetected, EmptySeries) are plain NcRingErrors, and the CLI exits 1.
:func:`check_integer` is the one check that a size or seed is an integer.
"""

import operator


class NcRingError(Exception):
    """Base class for all errors raised by this package."""


class InputError(NcRingError):
    """The caller's input is invalid; the CLI exits 2."""


class ZeroFlux(NcRingError):
    """A signature was requested at f = 0, where both signatures diverge."""


class WindowTooSmall(NcRingError):
    """The filling oracle's fixed level window cannot hold the filling at this flux."""


class NearDegeneracy(NcRingError):
    """A finite-difference stencil straddles a ground-state level crossing."""


class InvalidRange(InputError, ValueError):
    """A parameter, flux range or grid request violates its preconditions."""


class TooFewPoints(InputError):
    """Not enough samples for the requested differentiation scheme."""


class DegenerateFit(InputError):
    """The trace has no usable negative slope; electron count is undefined."""


class InsufficientSignal(NcRingError):
    """Fewer than the minimum usable points above the noise floor.

    This is a meaningful outcome, not a failure: downstream classification
    treats the affected signature as non-divergent.
    """


class NotDetected(NcRingError):
    """Parameter estimation requested for a verdict without a detection."""


class ParseError(InputError):
    """A file could not be parsed; carries the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonMonotonicFlux(InvalidRange):
    """Trace flux values are not strictly increasing."""


class UnitMismatch(InputError):
    """A trace's units or ring disagree with the scales needed to interpret it."""


class EmptySeries(NcRingError):
    """A plot was requested with no series or with a degenerate series."""


def check_integer(name: str, value) -> int:
    """`value` as an int; InvalidRange for a bool, a float or any other non-integral type."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):  # index(True) is 1
        raise InvalidRange(f"{name} must be an integer, got {value!r}")
    return operator.index(value)
