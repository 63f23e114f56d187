"""Unified scenario runtime: declarative specs plus a parallel sweep engine.

This package is the single entry point every evaluation workload goes
through — the seven paper experiments, the examples, the benchmark harness
and the ``foreco-experiments`` CLI all describe work as
:class:`ScenarioSpec` values and execute them through the
:class:`SessionEngine` / :class:`SweepExecutor` pair:

* :mod:`repro.scenarios.spec` — frozen, hashable scenario descriptions
  (operator, channel model + params, FoReCo config, scale, seed,
  repetitions) and the channel-spec helpers;
* :mod:`repro.scenarios.registry` — named presets (``clean``,
  ``bursty-loss``, ``jammer``, ``congested-ap``, ``jammer-congestion``,
  ``operator-mix``, ``random-loss``, ``markov-interference``, ``handover``,
  ``trace-replay``);
* :mod:`repro.scenarios.engine` — resolves one spec into
  :class:`repro.core.RemoteControlSimulation` runs with dataset /
  forecaster / result caching keyed by the spec hash;
* :mod:`repro.scenarios.sweep` — fans lists/grids of specs out over worker
  threads and returns a uniform :class:`SweepResult` table;
* :mod:`repro.scenarios.store` — persistent, content-addressed
  :class:`ResultStore` (spec hash + :data:`ENGINE_EPOCH`) making sweeps
  resumable: executors compute only the specs missing from the store;
* :mod:`repro.scenarios.grammar` — bounded combinator grammar enumerating
  and mutating channel/FoReCo knobs into frozen candidate specs;
* :mod:`repro.scenarios.search` — budgeted coverage-guided search scoring
  candidates by worst-case recovery and promoting the top discoveries to
  named ``adversarial-*`` presets.
"""

from .engine import (
    ENGINE_EPOCH,
    SessionEngine,
    SessionResult,
    SharedDatasets,
    build_datasets,
    compound_stage_seed,
    kernel_group_key,
    repetition_seed,
    sample_channel_delays,
    sample_channel_delays_batch,
)
from .grammar import Knob, ScenarioGrammar
from .registry import (
    get_scenario,
    register_scenario,
    scenario_catalog,
    scenario_names,
)
from .search import (
    ScenarioSearch,
    SearchConfig,
    SearchProbe,
    SearchResult,
    adversarial_score,
    p99_recovery,
    run_search,
)
from .spec import (
    CHANNEL_KIND_SUMMARIES,
    CHANNEL_KINDS,
    OPERATORS,
    ChannelSpec,
    ExperimentScale,
    ForecoSpec,
    ScenarioSpec,
    clean_channel,
    compound_channel,
    freeze_params,
    get_scale,
    handover_channel,
    jammer_channel,
    loss_burst_channel,
    markov_interference_channel,
    periodic_loss_channel,
    random_loss_channel,
    scale_names,
    trace_channel,
    wireless_channel,
)
from .store import ResultStore, StoreStats
from .sweep import SweepExecutor, SweepResult, scenario_grid

__all__ = [
    "CHANNEL_KIND_SUMMARIES",
    "CHANNEL_KINDS",
    "ENGINE_EPOCH",
    "OPERATORS",
    "ChannelSpec",
    "ExperimentScale",
    "ForecoSpec",
    "Knob",
    "ResultStore",
    "ScenarioGrammar",
    "ScenarioSearch",
    "ScenarioSpec",
    "SearchConfig",
    "SearchProbe",
    "SearchResult",
    "SessionEngine",
    "SessionResult",
    "SharedDatasets",
    "StoreStats",
    "SweepExecutor",
    "SweepResult",
    "adversarial_score",
    "build_datasets",
    "clean_channel",
    "compound_channel",
    "compound_stage_seed",
    "freeze_params",
    "get_scale",
    "get_scenario",
    "handover_channel",
    "jammer_channel",
    "kernel_group_key",
    "loss_burst_channel",
    "markov_interference_channel",
    "p99_recovery",
    "periodic_loss_channel",
    "random_loss_channel",
    "register_scenario",
    "repetition_seed",
    "run_search",
    "sample_channel_delays",
    "sample_channel_delays_batch",
    "scale_names",
    "scenario_catalog",
    "scenario_grid",
    "scenario_names",
    "trace_channel",
    "wireless_channel",
]
