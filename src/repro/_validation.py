"""Small validation helpers used across the library.

These helpers centralise the repetitive ``if not ...: raise`` checks that
guard public entry points, so that every module reports errors with the same
exception types (:mod:`repro.errors`) and consistent, descriptive messages.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DimensionError


def ensure_positive(name: str, value: float) -> float:
    """Return ``value`` if strictly positive, otherwise raise.

    Parameters
    ----------
    name:
        Parameter name used in the error message.
    value:
        Numeric value to check.
    """
    if not np.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def ensure_non_negative(name: str, value: float) -> float:
    """Return ``value`` if ``>= 0`` and finite, otherwise raise."""
    if not np.isfinite(value) or value < 0:
        raise ConfigurationError(f"{name} must be a finite non-negative number, got {value!r}")
    return float(value)


def ensure_probability(name: str, value: float) -> float:
    """Return ``value`` if it lies in the closed interval ``[0, 1]``."""
    if not np.isfinite(value) or value < 0.0 or value > 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def ensure_int(name: str, value: int, minimum: int | None = None) -> int:
    """Return ``value`` as ``int`` after checking it is integral and bounded."""
    if not float(value).is_integer():
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
    return value


def ensure_seed(name: str, value) -> int:
    """Return ``value`` as ``int`` if it is a non-negative integer RNG seed.

    Floats, strings and booleans are rejected rather than truncated or
    coerced, so a seed can never silently become a different stream.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ConfigurationError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def as_command_array(name: str, commands: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    """Coerce ``commands`` into a 2-D ``float64`` array of shape ``(n, d)``.

    A single command (1-D input) is promoted to shape ``(1, d)``.  Anything
    with more than two dimensions, or containing NaN / infinity, is rejected.
    """
    array = np.asarray(commands, dtype=float)
    if array.ndim == 1:
        array = array.reshape(1, -1)
    if array.ndim != 2:
        raise DimensionError(f"{name} must be a 2-D array of commands, got ndim={array.ndim}")
    if array.size == 0:
        raise DimensionError(f"{name} must contain at least one command")
    if not np.isfinite(array).all():
        raise DimensionError(f"{name} contains NaN or infinite values")
    return array


def rng_from(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Build a :class:`numpy.random.Generator` from a seed or pass one through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
