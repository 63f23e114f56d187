"""Summary statistics over repeated simulation runs.

Fig. 8 averages 40 repetitions per heatmap cell; the tables report mean ±
standard deviation over repeated timing runs.  These helpers centralise the
mean / confidence-interval computations so every experiment reports them the
same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionError


@dataclass
class ConfidenceInterval:
    """Mean with a symmetric confidence interval."""

    mean: float
    half_width: float
    level: float
    n_samples: int

    @property
    def low(self) -> float:
        """Lower bound of the interval."""
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        """Upper bound of the interval."""
        return self.mean + self.half_width

    def __str__(self) -> str:  # pragma: no cover - formatting helper
        return f"{self.mean:.3f} ± {self.half_width:.3f} ({int(self.level * 100)}% CI, n={self.n_samples})"


def mean_confidence_interval(samples: np.ndarray, level: float = 0.95) -> ConfidenceInterval:
    """Student-t confidence interval of the sample mean.

    scipy is imported here, not at module level: nothing else in the library
    needs it, and importing it costs every process ~0.8 s and ~65 MB.
    """
    from scipy import stats as scipy_stats

    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise DimensionError("cannot summarise an empty sample set")
    mean = float(samples.mean())
    if samples.size == 1:
        return ConfidenceInterval(mean=mean, half_width=0.0, level=level, n_samples=1)
    sem = float(samples.std(ddof=1) / np.sqrt(samples.size))
    t_value = float(scipy_stats.t.ppf(0.5 + level / 2.0, df=samples.size - 1))
    return ConfidenceInterval(mean=mean, half_width=t_value * sem, level=level, n_samples=samples.size)


def summarize(samples: np.ndarray) -> dict[str, float]:
    """Mean, standard deviation, min, max and selected percentiles."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size == 0:
        raise DimensionError("cannot summarise an empty sample set")
    return {
        "mean": float(samples.mean()),
        "std": float(samples.std(ddof=1)) if samples.size > 1 else 0.0,
        "min": float(samples.min()),
        "max": float(samples.max()),
        "p50": float(np.percentile(samples, 50)),
        "p95": float(np.percentile(samples, 95)),
    }
