"""Random variate distributions for the discrete-event simulator.

Every distribution exposes the same tiny interface:

* :meth:`Distribution.sample` draws one variate (optionally a vector of them),
* :meth:`Distribution.mean` returns the analytical mean where it exists.

The hyper-exponential distribution is the work-horse of the reproduction: the
paper models the IEEE 802.11 access-point service time as a hyper-exponential
whose phases correspond to the number of retransmissions a frame needed
(phase *j* occurs with probability ``a_j`` and has rate ``1 / E_j[delta_W]``).
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from .._validation import ensure_positive
from ..errors import ConfigurationError


class Distribution(abc.ABC):
    """Abstract base class for random variate generators."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size: int | None = None) -> float | np.ndarray:
        """Draw one variate (``size=None``) or an array of ``size`` variates."""

    @abc.abstractmethod
    def mean(self) -> float:
        """Analytical mean of the distribution."""

    def sample_many(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` variates as a 1-D array (convenience wrapper)."""
        return np.asarray(self.sample(rng, size=size), dtype=float).reshape(size)


class Deterministic(Distribution):
    """Degenerate distribution that always returns ``value``.

    Used for the periodic command arrival process (one command every Ω ms).
    """

    def __init__(self, value: float) -> None:
        if value < 0:
            raise ConfigurationError(f"Deterministic value must be >= 0, got {value}")
        self.value = float(value)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> float | np.ndarray:
        if size is None:
            return self.value
        return np.full(size, self.value)

    def mean(self) -> float:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deterministic({self.value})"


class Exponential(Distribution):
    """Exponential distribution parameterised by its *rate* (1 / mean)."""

    def __init__(self, rate: float) -> None:
        self.rate = ensure_positive("rate", rate)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> float | np.ndarray:
        return rng.exponential(1.0 / self.rate, size=size)

    def mean(self) -> float:
        return 1.0 / self.rate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Exponential(rate={self.rate})"


class UniformDistribution(Distribution):
    """Continuous uniform distribution on ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if high < low:
            raise ConfigurationError(f"Uniform requires high >= low, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> float | np.ndarray:
        return rng.uniform(self.low, self.high, size=size)

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)


class HyperExponential(Distribution):
    """Mixture of exponentials: phase ``i`` w.p. ``probs[i]``, rate ``rates[i]``.

    The wireless model maps retransmission count *j* to a phase, so a sample
    from this distribution is the service time of one command at the 802.11
    access point conditioned on the command eventually being delivered.
    """

    def __init__(self, probs: Sequence[float], rates: Sequence[float]) -> None:
        probs_arr = np.array(probs, dtype=float)
        rates_arr = np.array(rates, dtype=float)
        if probs_arr.ndim != 1 or rates_arr.ndim != 1 or probs_arr.size != rates_arr.size:
            raise ConfigurationError("probs and rates must be 1-D sequences of equal length")
        if probs_arr.size == 0:
            raise ConfigurationError("HyperExponential requires at least one phase")
        if np.any(probs_arr < 0) or not np.isclose(probs_arr.sum(), 1.0, atol=1e-6):
            raise ConfigurationError("phase probabilities must be non-negative and sum to 1")
        if np.any(rates_arr <= 0):
            raise ConfigurationError("phase rates must be strictly positive")
        self.probs = probs_arr / probs_arr.sum()
        self.rates = rates_arr
        # The phase CDF and the per-phase scales that ``Generator.choice(p=)``
        # and ``Generator.exponential(scale=)`` would rebuild on every call.
        # All four arrays are read-only, so they cannot drift apart; the
        # inputs were copied above, so a caller's array is never frozen.
        self._cdf = self.probs.cumsum()
        self._cdf /= self._cdf[-1]
        self._scales = 1.0 / self.rates
        for array in (self.probs, self.rates, self._cdf, self._scales):
            array.setflags(write=False)

    @property
    def n_phases(self) -> int:
        """Number of mixture phases."""
        return self.probs.size

    def sample(self, rng: np.random.Generator, size: int | None = None) -> float | np.ndarray:
        """Draw one variate (``size=None``) or an array of ``size`` variates.

        Bit for bit, and with the same stream consumption, this is
        ``phases = rng.choice(n_phases, size=n, p=probs)`` followed by
        ``rng.exponential(1 / rates[phases])``: NumPy's ``choice`` draws
        ``rng.random(n)`` and looks each uniform up in ``cumsum(p) / sum``
        with ``searchsorted(side="right")``, and ``exponential(scale)`` is
        ``scale * standard_exponential``.  Both are done here with the CDF
        and the scales built once, in ``__init__``.
        """
        n = 1 if size is None else int(size)
        phases = self._cdf.searchsorted(rng.random(n), side="right")
        values = rng.standard_exponential(n) * self._scales[phases]
        if size is None:
            return float(values[0])
        return values

    def sample_with_phase(self, rng: np.random.Generator) -> tuple[float, int]:
        """Draw one variate and also return the phase index that produced it."""
        phase = int(self._cdf.searchsorted(rng.random(), side="right"))
        value = float(rng.standard_exponential() * self._scales[phase])
        return value, phase

    def mean(self) -> float:
        return float(np.sum(self.probs / self.rates))

    def variance(self) -> float:
        """Analytical variance of the mixture."""
        second_moment = float(np.sum(self.probs * 2.0 / self.rates ** 2))
        return second_moment - self.mean() ** 2

    def squared_coefficient_of_variation(self) -> float:
        """``Var(X) / E[X]^2`` — always >= 1 for a hyper-exponential."""
        return self.variance() / self.mean() ** 2
