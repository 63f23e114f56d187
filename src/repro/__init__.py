"""repro — a reproduction of FoReCo (forecast-based recovery for teleoperation).

FoReCo (Groshev et al., 2022) is a recovery mechanism for real-time remote
control of robotic manipulators over IEEE 802.11: when a control command is
delayed beyond the robot's tolerance or lost to interference, FoReCo
forecasts the missing command from the recent command history with an ML
model (VAR in the prototype) and injects the forecast into the robot driver,
keeping the executed trajectory close to the operator's intent.

Package layout
--------------
``repro.core``
    The FoReCo contribution: configuration, command dataset, training
    pipeline, runtime recovery engine and the end-to-end simulation used by
    the evaluation.
``repro.forecasting``
    The forecasting algorithms (VAR, MA, seq2seq, plus VARMA and exponential
    smoothing extensions) behind a pluggable interface.
``repro.nn``
    NumPy neural-network substrate (LSTM encoder–decoder, Adam) backing the
    seq2seq forecaster.
``repro.wireless``
    IEEE 802.11 analytical model with electromagnetic interference, the
    access-point queueing model, a bursty jammer and controlled-loss
    injectors.
``repro.des``
    Discrete-event simulation substrate (random variates and the event
    engine behind the live service's virtual clock).
``repro.robot``
    Niryo-One-like manipulator: DH kinematics, joint limits, PID control
    and trajectory metrics.
``repro.teleop``
    Pick-and-place task, operator models and the 50 Hz remote controller.
``repro.analysis``
    Result aggregation (heatmaps), statistics and hardware-profiling helpers.
``repro.scenarios``
    The unified scenario runtime: declarative, hashable scenario specs,
    named presets, a caching session engine and a parallel sweep executor —
    the layer every experiment, example and benchmark goes through.
``repro.fleet``
    Fleet-scale service simulation on top of the scenario layer: N
    concurrent operators with arrival processes, AP admission control and
    shared-backlog contention coupling (see ``docs/fleet.md``).
``repro.service``
    Live service mode: online admission control (static-cap,
    utilization-threshold, forecast-aware) over fleet workloads on a
    virtual clock, with an incremental snapshot metric stream.
``repro.experiments``
    One module per paper figure/table plus a CLI runner
    (``foreco-experiments``).

Facade
------
The five entry points most users need are exposed directly on the package,
with uniform keyword names (``store=``, ``jobs=``):

* :func:`run_scenario` — one scenario preset/spec to a session result;
* :func:`run_fleet` — one fleet preset/spec to a fleet result;
* :func:`sweep` — a list of scenario/fleet/service specs, in parallel;
* :func:`serve` — one live-service preset/spec to a service result;
* :func:`plan` — one capacity-plan preset/spec to a :class:`CapacityPlan`.

Quickstart
----------
>>> from repro import quick_demo
>>> outcome = quick_demo(seed=7)          # doctest: +SKIP
>>> outcome.improvement_factor > 1.0      # doctest: +SKIP
True
"""

from __future__ import annotations

from .core import (
    CommandDataset,
    ForecoConfig,
    ForecoRecovery,
    RemoteControlSimulation,
    SimulationOutcome,
    TrainingPipeline,
    compare_baseline_and_foreco,
)
from .errors import (
    ChannelError,
    ConfigurationError,
    DatasetError,
    DimensionError,
    NotFittedError,
    ReproError,
    RobotError,
    SimulationError,
    StoreError,
)
from .forecasting import (
    Forecaster,
    MovingAverageForecaster,
    Seq2SeqForecaster,
    VarForecaster,
    make_forecaster,
)
from .fleet import (
    FLEETS,
    PLANS,
    CapacityPlan,
    CapacityPlanner,
    FleetEngine,
    FleetSpec,
    PlanSpec,
    get_fleet,
    get_plan,
)
from .robot import NiryoOneArm
from .scenarios import (
    SCENARIOS,
    ResultStore,
    ScenarioSpec,
    SessionEngine,
    SweepExecutor,
    SweepResult,
    get_scenario,
    scenario_names,
)
from .service import SERVICES, ServiceEngine, ServiceResult, ServiceSpec, get_service
from .teleop import OperatorModel, RemoteController, experienced_operator, inexperienced_operator
from .wireless import ConsecutiveLossInjector, GilbertElliottJammer, InterferenceSource, WirelessChannel

__version__ = "1.0.0"

__all__ = [
    "CommandDataset",
    "ForecoConfig",
    "ForecoRecovery",
    "RemoteControlSimulation",
    "SimulationOutcome",
    "TrainingPipeline",
    "compare_baseline_and_foreco",
    "ReproError",
    "ConfigurationError",
    "NotFittedError",
    "DimensionError",
    "SimulationError",
    "DatasetError",
    "ChannelError",
    "RobotError",
    "StoreError",
    "Forecaster",
    "MovingAverageForecaster",
    "Seq2SeqForecaster",
    "VarForecaster",
    "make_forecaster",
    "NiryoOneArm",
    "OperatorModel",
    "RemoteController",
    "experienced_operator",
    "inexperienced_operator",
    "ConsecutiveLossInjector",
    "GilbertElliottJammer",
    "InterferenceSource",
    "WirelessChannel",
    "CapacityPlan",
    "CapacityPlanner",
    "FleetEngine",
    "FleetSpec",
    "PlanSpec",
    "ResultStore",
    "ScenarioSpec",
    "ServiceEngine",
    "ServiceResult",
    "ServiceSpec",
    "SessionEngine",
    "SweepExecutor",
    "SweepResult",
    "get_fleet",
    "get_plan",
    "get_scenario",
    "get_service",
    "scenario_names",
    "run_scenario",
    "run_fleet",
    "serve",
    "sweep",
    "plan",
    "quick_demo",
    "__version__",
]


def _as_store(store) -> ResultStore | None:
    """Resolve the facade's ``store=`` keyword: ``None``, a path, or a store."""
    if store is None or isinstance(store, ResultStore):
        return store
    return ResultStore(str(store))


def _run_one(spec, store, jobs: int = 1):
    """Run one resolved spec as a one-row sweep (the facade's one dispatch)."""
    return SweepExecutor(jobs=jobs, store=_as_store(store)).run([spec])[0]


def run_scenario(spec_or_preset, *, seed=None, store=None, jobs: int = 1):
    """Run one scenario and return its :class:`~repro.scenarios.SessionResult`.

    ``spec_or_preset`` is a :class:`ScenarioSpec` or a registered preset
    name (see :func:`scenario_names`).  ``seed`` overrides the spec's seed;
    ``store`` is a :class:`ResultStore` or a directory path (results are
    loaded from it when present, written back otherwise); ``jobs`` is
    accepted for keyword symmetry with :func:`sweep` (a single scenario
    always runs in-process).

    >>> result = run_scenario("clean")            # doctest: +SKIP
    >>> result.improvement_factor > 1.0              # doctest: +SKIP
    True
    """
    spec = SCENARIOS.resolve(spec_or_preset)
    return _run_one(spec if seed is None else spec.with_(seed=int(seed)), store, jobs)


def run_fleet(spec_or_preset, *, seed=None, store=None, jobs: int = 1):
    """Run one fleet and return its :class:`~repro.fleet.FleetResult`.

    ``spec_or_preset`` is a :class:`FleetSpec` or a registered fleet preset
    name (see :func:`repro.fleet.fleet_names`).  ``seed`` overrides the
    per-operator template's seed; ``store``/``jobs`` behave exactly as in
    :func:`run_scenario`.  Both fleet tiers are supported (one
    :class:`~repro.fleet.FleetEngine` runs either).

    >>> result = run_fleet("shared-ap")              # doctest: +SKIP
    >>> result.dropped_sessions >= 0                 # doctest: +SKIP
    True
    """
    spec = FLEETS.resolve(spec_or_preset)
    return _run_one(spec if seed is None else spec.with_template(seed=int(seed)), store, jobs)


def sweep(specs, *, jobs: int = 1, store=None) -> SweepResult:
    """Run a list of specs in parallel and return the ordered result table.

    ``specs`` may mix :class:`ScenarioSpec`, :class:`FleetSpec` and
    :class:`ServiceSpec` values; each routes through the right engine.
    ``jobs`` worker processes fan the list out; with a ``store``,
    already-persisted results are loaded instead of recomputed and the
    sweep is resumable.  Results are bit-identical for any worker count.

    >>> table = sweep([get_scenario("clean")], jobs=4)   # doctest: +SKIP
    >>> len(table)                                          # doctest: +SKIP
    1
    """
    executor = SweepExecutor(jobs=jobs, store=_as_store(store))
    return executor.run(specs)


def serve(service_spec, *, until=None, store=None) -> ServiceResult:
    """Run one live service and return its :class:`ServiceResult`.

    ``service_spec`` is a :class:`ServiceSpec` or a registered ``service-*``
    preset name (see :func:`repro.service.service_names`).  ``until`` bounds
    the virtual clock in seconds — arrivals after the horizon never enter
    the service; note the horizon is part of the spec's identity, so a
    truncated run stores under its own address.  ``store`` behaves as in
    :func:`run_scenario`.  Live runs are deterministic: serving the same
    spec twice yields bit-identical results, snapshot stream included.

    >>> result = serve("service-shared-ap", until=60.0)     # doctest: +SKIP
    >>> result.drop_rate <= 1.0                             # doctest: +SKIP
    True
    """
    spec = SERVICES.resolve(service_spec)
    return _run_one(spec if until is None else spec.with_(until_s=float(until)), store)


def plan(plan_spec, *, jobs: int = 1, store=None, **overrides) -> CapacityPlan:
    """Run one capacity-planning search and return its :class:`CapacityPlan`.

    ``plan_spec`` is a :class:`PlanSpec` or a registered ``plan-*`` preset
    name (see :func:`repro.fleet.plan_names`).  Keyword ``overrides``
    (``slo_p99=``, ``slo_drop=``, ``budget=``, ``method=``, ...) replace
    plan-level fields before the search runs.  ``store``/``jobs`` behave
    exactly as in :func:`sweep`: every capacity probe memoizes through the
    store, the finished plan persists under its own content address, and
    the plan is bit-identical for any worker count.

    >>> report = plan("plan-shared-ap")              # doctest: +SKIP
    >>> report.capacity                              # doctest: +SKIP
    3
    """
    spec = PLANS.override(PLANS.resolve(plan_spec), **overrides)
    planner = CapacityPlanner(jobs=jobs, store=_as_store(store))
    return planner.run(spec)


def quick_demo(seed: int = 0, n_repetitions: int = 4, n_robots: int = 5) -> SimulationOutcome:
    """Run a miniature end-to-end FoReCo demonstration.

    Generates small experienced/inexperienced operator datasets, trains the
    VAR forecaster, subjects the inexperienced stream to an interference-prone
    802.11 channel and returns the baseline-vs-FoReCo comparison.  Used by the
    README quickstart and smoke tests; the full-size experiments live in
    :mod:`repro.experiments`.
    """
    controller = RemoteController()
    experienced = controller.stream_from_operator(
        OperatorModel(profile=experienced_operator(), seed=seed), n_repetitions=n_repetitions
    )
    inexperienced = controller.stream_from_operator(
        OperatorModel(profile=inexperienced_operator(), seed=seed + 1),
        n_repetitions=max(1, n_repetitions // 2),
    )
    channel = WirelessChannel(
        n_robots=n_robots,
        interference=InterferenceSource(probability=0.05, duration_slots=100),
        seed=seed,
    )
    trace = channel.sample_trace(len(inexperienced))
    return compare_baseline_and_foreco(
        experienced.commands, inexperienced.commands, trace.delays()
    )
