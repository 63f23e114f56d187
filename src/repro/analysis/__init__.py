"""Analysis utilities: result aggregation, profiling and hardware scaling.

* :mod:`repro.analysis.heatmap` — the interference-probability × duration
  result grids of Fig. 8 (per robot count, with and without FoReCo).
* :mod:`repro.analysis.profiling` — the calibrated hardware scale factors
  used to reproduce Tables I and II (the paper measures Raspberry Pi 3,
  Jetson Nano, a laptop and an edge server; we measure on the current host
  and report the paper's relative platform ordering).
* :mod:`repro.analysis.statistics` — small summary-statistics helpers
  (mean, spread and percentiles over repeated runs).
* :mod:`repro.analysis.sweeps` — renderers turning scenario
  :class:`~repro.scenarios.SweepResult` tables into heatmaps.
"""

from .heatmap import HeatmapCell, HeatmapGrid
from .sweeps import heatmap_from_sweep, load_sweep
from .profiling import (
    HARDWARE_PROFILES,
    HardwareProfile,
    scale_timings_to_hardware,
)
from .statistics import summarize

__all__ = [
    "HeatmapCell",
    "HeatmapGrid",
    "heatmap_from_sweep",
    "load_sweep",
    "HARDWARE_PROFILES",
    "HardwareProfile",
    "scale_timings_to_hardware",
    "summarize",
]
