"""Exception types shared across the package."""


class StabilityToolError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidSpec(StabilityToolError, ValueError):
    """A spec document or spec value is malformed: not a JSON object, a
    missing field, a pair that is not four numbers, no listed entry, a zero
    a_n, a non-finite coefficient or formula parameter, or an unknown
    builtin or formula family."""


class IndexOutOfRange(StabilityToolError):
    """Index lies outside the materialized horizon, or past the end of a
    table whose tail rule is "error"."""


class TailNotConvergent(StabilityToolError):
    """The series shadow's start z_1 = w_1 + sum_j r_j / p(j+1, 1) is past float range."""
