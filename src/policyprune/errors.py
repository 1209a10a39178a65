"""Exception hierarchy shared across the package.

Three failure classes map to distinct CLI exit codes: usage (bad inputs,
bad shapes, malformed requests), storage (files missing or unreadable),
and numerical (NaN rewards, divergent training, degenerate statistics).
"""


class PolicyPruneError(Exception):
    """Base class for all package errors."""


class UsageError(PolicyPruneError):
    """Caller violated a precondition (bad argument, missing prerequisite)."""

    exit_code = 2


class DimensionError(UsageError):
    """Operands have incompatible shapes."""


class StorageError(PolicyPruneError):
    """An artifact file is missing, unreadable, or malformed."""

    exit_code = 3


class NumericalError(PolicyPruneError):
    """A computation produced non-finite or degenerate values."""

    exit_code = 4


class DegenerateScaleError(NumericalError):
    """All scale-estimation inputs were zero, so the importance scale would be 0."""


class RewardError(NumericalError):
    """A reward evaluation returned NaN."""


class TrainingDivergedError(NumericalError):
    """Training loss became non-finite."""


class ProbePurityError(NumericalError):
    """Parameters changed across a candidate probe that must restore them."""


def require_real(name: str, value) -> None:
    """Raise `UsageError` unless `value` is an int or a float: the type rule
    of every real-valued setting; a bool, a string and a NumPy scalar are
    not."""
    if type(value) not in (int, float):
        raise UsageError(f"{name} must be an int or a float, got {value!r}")


def require_positive_int(name: str, value) -> None:
    """Raise `UsageError` unless `value` is an int of at least 1; a bool, a
    float such as 2.0 and a NumPy integer are not."""
    if type(value) is not int or value < 1:
        raise UsageError(f"{name} must be a positive integer, got {value!r}")
