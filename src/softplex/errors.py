"""Exception hierarchy for softplex, and the one rule each for counts, reals and boxes.

The library checks each number once, where it takes it: a count (points,
dimensions, replications, samples, seeds) with ``count``, which reads 1e6 as
an int and never truncates; any other number with ``real``, which takes only
finite ints and floats; the bounds of a box with ``box``.
"""

import numbers
import sys

import numpy as np


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


def real(value, what: str, least: float | None = None, error: type = InputError) -> float:
    """float(value), raising ``error`` unless value is a finite int or float >= least.

    ``least=0`` is strict: the value must be positive.  Bools, strings, None,
    NaN, infinities and ints too large for a float fail.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{what} must be a real number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, ints beyond the float range
        raise error(f"{what} must be finite, got {value!r}")
    number = float(value)
    if least is not None and not (number > 0 if least == 0 else number >= least):
        bound = "positive" if least == 0 else f">= {least}"
        raise error(f"{what} must be {bound}, got {value!r}")
    return number


def box(lo, hi, what: str) -> tuple[np.ndarray, np.ndarray]:
    """lo and hi as equal-length nonempty float64 vectors, hi > lo (NaN fails, ±inf passes)."""
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    if lo.ndim != 1 or lo.size == 0 or lo.shape != hi.shape or not np.all(hi > lo):
        raise ConfigurationError(f"{what} lo/hi must be equal-length nonempty vectors with hi > lo")
    return lo, hi
