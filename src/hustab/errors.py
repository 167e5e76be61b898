"""Exception types shared across the package."""


class StabilityToolError(Exception):
    """Base class for every error this package raises on purpose."""


class ZeroCoefficient(StabilityToolError):
    """A coefficient rule produced a_n = 0; reciprocal products need a_n != 0."""


class EmptyPeriod(StabilityToolError):
    """A periodic or table spec has no entries."""


class PastEnd(StabilityToolError):
    """A table spec with an error-past-end tail was read beyond its last entry."""


class InvalidSpec(StabilityToolError, ValueError):
    """A spec document or spec value is malformed: not a JSON object, a
    missing field, a pair that is not four numbers, or a non-finite
    coefficient or formula parameter."""


class UnknownExample(StabilityToolError):
    """Requested builtin example name does not exist."""


class IndexOutOfRange(StabilityToolError):
    """Index lies outside the materialized horizon."""


class TailNotConvergent(StabilityToolError):
    """Reciprocal-product tail cannot be bounded at this horizon."""


class NotPeriodic(StabilityToolError):
    """Exact cycle classification needs a constant or periodic spec."""


class HorizonTooSmall(StabilityToolError):
    """Ledger horizon is shorter than the configured classification horizon."""


class NotUnstable(StabilityToolError):
    """Witness plans exist only for Unstable criteria."""
