"""Summary statistics over repeated simulation runs.

Fig. 8 averages 40 repetitions per heatmap cell; the tables report mean ±
standard deviation over repeated timing runs.  :func:`summarize` centralises
those summaries so every experiment reports them the same way.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError


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
