"""Shared infrastructure for the experiment modules.

The paper's evaluation always starts from the same two artefacts — the
experienced-operator training dataset and the inexperienced-operator test
dataset — and then varies the channel.  Dataset construction, sizing scales
and caching all live in the scenario layer now
(:mod:`repro.scenarios`); this module re-exports them for the experiment
modules and hosts the paper's sweep constants plus small helpers shared by
the figures.

The dataset cache is keyed by the *full* :class:`ExperimentScale` value plus
seed (not just the scale name), so passing a custom scale object can never
silently return data sized for a different scale.
"""

from __future__ import annotations

from ..core import ForecoConfig
from ..scenarios import (
    ExperimentScale,
    ForecoSpec,
    ScenarioSpec,
    SharedDatasets,
    build_datasets,
    get_scale,
)

__all__ = [
    "ExperimentScale",
    "SharedDatasets",
    "build_datasets",
    "get_scale",
    "base_scenario",
    "FIG8_PROBABILITIES",
    "FIG8_DURATIONS",
    "FIG8_ROBOT_COUNTS",
    "FIG9_BURST_LENGTHS",
]

#: Interference sweep of Fig. 8 (probability in [0, 1], duration in slots).
FIG8_PROBABILITIES: tuple[float, ...] = (0.01, 0.025, 0.05)
FIG8_DURATIONS: tuple[int, ...] = (10, 50, 100)
FIG8_ROBOT_COUNTS: tuple[int, ...] = (5, 15, 25)

#: Consecutive-loss burst lengths of Fig. 9.
FIG9_BURST_LENGTHS: tuple[int, ...] = (5, 10, 25)


def base_scenario(
    name: str,
    scale: str | ExperimentScale = "ci",
    seed: int = 42,
    config: ForecoConfig | None = None,
    **fields,
) -> ScenarioSpec:
    """The scenario spec an experiment starts from.

    ``config`` (a runtime :class:`ForecoConfig`) is frozen into the spec's
    :class:`~repro.scenarios.ForecoSpec`; extra ``fields`` are forwarded to
    :class:`~repro.scenarios.ScenarioSpec` (e.g. ``use_pid=True``).
    """
    foreco = ForecoSpec.from_config(config) if config is not None else ForecoSpec()
    return ScenarioSpec(name=name, scale=scale, seed=int(seed), foreco=foreco, **fields)
