"""Exception hierarchy for softplex, and the one rule for integer counts.

Every count the library takes (n points, face dimensions, replications,
samples, seeds) goes through ``count`` once where the library takes it, so
integer-valued numbers such as 1e6 or 2.0 are read as ints and everything
else is refused, never truncated.
"""

import numbers


class SoftplexError(Exception):
    """Base class for all softplex errors."""


class ConfigurationError(SoftplexError):
    """A configuration value is missing, malformed, or unsupported."""


class InputError(SoftplexError, ValueError):
    """An argument violates a precondition (dimension mismatch, empty set, ...)."""


class DegenerateSampleError(SoftplexError):
    """A sample is statistically degenerate (e.g. zero empirical variance)."""


class MemoryGuardError(SoftplexError):
    """Predicted instance size exceeds the configured cap; run refused."""


def count(value, what: str, least: int | None = 0, error: type = InputError) -> int:
    """value as an int, raising ``error`` unless it is an integer-valued number >= least.

    1e6 is 1000000 and 2.0 is 2; bools, fractions, infinities, NaN and
    non-numbers fail.  ``least=None`` sets no lower bound.
    """
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not integral:
        raise error(f"{what} must be an integer-valued number, got {value!r}")
    if least is not None and value < least:
        raise error(f"{what} must be >= {least}, got {value!r}")
    return int(value)
