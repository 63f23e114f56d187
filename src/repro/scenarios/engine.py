"""Session engine: resolve a :class:`ScenarioSpec` into simulation runs.

The engine owns every piece of shared, cacheable state the scenario layer
needs:

* the operator datasets, cached per *full* :class:`ExperimentScale` value
  plus seed (not just the scale name, so custom scales never alias);
* trained master forecasters, cached per process like the datasets and
  keyed by forecaster class plus training identity (algorithm, record,
  options, train fraction, scale, seed) — the fitted master is never
  predicted on directly; every session gets a deep copy, because
  forecasters may carry predict-time state (VARMA's residual window, or a
  registered custom class);
* finished :class:`SessionResult` objects, in a :class:`ResultMemo` keyed
  by the spec hash (the same memo class every fleet, service and plan
  engine and the sweep's store partition use).

All caches are guarded by locks, so a caller may drive one engine from its
own threads.
Determinism is by construction: every random draw is seeded from the spec
hash and the repetition index, never from execution order, so a sweep
produces bit-identical results with 1 or N workers.

Repetitions execute through the **session kernel**: all of a spec's
channel realisations advance as one stacked NumPy computation
(:class:`repro.core.BatchedRemoteControlSimulation`), bit-identical to
running them one at a time (the tests keep that serial path as their
oracle).  :meth:`SessionEngine.run_many` stacks further: specs sharing a
:func:`kernel_group_key` (same command stream, recovery engine and robot
stack; any channel) run their repetitions through one kernel pass, and each
still gets its own result, cache entry and shard.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store imports engine)
    from .store import ResultStore

from ..core.recovery import ForecoRecovery
from ..core.simulation import (
    BatchedRemoteControlSimulation,
    MetricColumns,
    RemoteControlSimulation,
    SimulationBatch,
    SimulationOutcome,
)
from ..errors import ConfigurationError
from ..forecasting import Forecaster, make_forecaster
from ..forecasting.base import _forecaster_class
from ..teleop import (
    OperatorModel,
    RemoteController,
    experienced_operator,
    inexperienced_operator,
)
from ..teleop.controller import CommandStream
from .._validation import ensure_int, ensure_positive, ensure_seed, rng_from
from ..wireless import (
    ConsecutiveLossInjector,
    HandoverConfig,
    InterferenceSource,
    JammerConfig,
    LossPattern,
    MarkovChannelConfig,
    PeriodicLossInjector,
    RandomLossInjector,
    WirelessChannel,
    sample_handover_delays_batch,
    sample_jammer_delays_batch,
    sample_markov_delays_batch,
    sample_wireless_delays_batch,
)
from .spec import ChannelSpec, ExperimentScale, ScenarioSpec, _hash_seed, get_scale

#: Engine/code epoch for persisted results.  Two runs may only share a
#: :class:`~repro.scenarios.store.ResultStore` entry when both the spec hash
#: AND this epoch match — bump it whenever a code change alters the results
#: produced for an *unchanged* spec hash (PR 3's compound-seed fix is the
#: canonical example: spec hashes survived, compound delay traces did not).
#: Pure refactors, new channel kinds and performance work do NOT bump it.
#: Epoch 5: the fleet record schema gained mandatory tier metadata and fleet
#: spec hashes moved to the tier-aware canonical form, so epoch-4 fleet
#: shards are unreadable by (and invisible to) the hybrid-tier engines.
#: Epoch 6: the live-service layer landed — a third record kind
#: (``"service"``: admission counters, migration, snapshot streams) joined
#: the store, and service modules joined the epoch manifest's tracked set.
ENGINE_EPOCH = 6


# ------------------------------------------------------------------- datasets
@dataclass
class SharedDatasets:
    """The two operator command streams every scenario starts from."""

    experienced: CommandStream
    inexperienced: CommandStream

    @property
    def n_joints(self) -> int:
        """Command dimensionality (6 for the Niryo One)."""
        return self.experienced.n_joints


@lru_cache(maxsize=16)
def _cached_datasets(scale: ExperimentScale, seed: int) -> SharedDatasets:
    controller = RemoteController()
    experienced = controller.stream_from_operator(
        OperatorModel(profile=experienced_operator(), seed=seed),
        n_repetitions=scale.train_repetitions,
    )
    inexperienced = controller.stream_from_operator(
        OperatorModel(profile=inexperienced_operator(), seed=seed + 1),
        n_repetitions=scale.test_repetitions,
    )
    return SharedDatasets(experienced=experienced, inexperienced=inexperienced)


def build_datasets(scale: str | ExperimentScale = "ci", seed: int = 42) -> SharedDatasets:
    """Build (or fetch from the in-process cache) the shared operator datasets.

    The cache key is the *entire* scale value, so a custom
    :class:`ExperimentScale` with a reused name still gets its own datasets.
    """
    return _cached_datasets(get_scale(scale), int(seed))


# ---------------------------------------------------------------- forecasters
#: Fitted masters kept per process, least recently used evicted first.
_MAX_MASTERS = 32
_masters: OrderedDict[tuple, Forecaster] = OrderedDict()
_masters_lock = threading.Lock()
_training_locks: dict[tuple, threading.Lock] = {}


def _master_forecaster(spec: ScenarioSpec) -> Forecaster:
    """The process-wide fitted master for ``spec``'s training identity.

    Keyed by the forecaster class as well, so re-registering a custom name
    with a new class never serves the old class's master.  Distinct keys
    train in parallel; concurrent requests for one key serialise on a
    per-key lock, so each master is fitted once.
    """
    foreco = spec.foreco
    key = (_forecaster_class(foreco.algorithm), foreco.training_identity(), spec.scale, int(spec.seed))
    with _masters_lock:
        master = _masters.get(key)
        if master is not None:
            _masters.move_to_end(key)
            return master
        training_lock = _training_locks.setdefault(key, threading.Lock())
    with training_lock:
        with _masters_lock:
            master = _masters.get(key)
        if master is None:
            try:
                master = make_forecaster(foreco.algorithm, record=foreco.record, **foreco.options())
                master.fit(build_datasets(spec.scale, seed=spec.seed).experienced.commands)
                with _masters_lock:
                    _masters[key] = master
                    if len(_masters) > _MAX_MASTERS:
                        _masters.popitem(last=False)
            finally:
                with _masters_lock:
                    _training_locks.pop(key, None)
    return master


# ------------------------------------------------------------------- channels
def repetition_seed(spec: ScenarioSpec, repetition: int, stage: int = 0) -> int:
    """Deterministic per-repetition RNG seed for the channel samplers.

    Derived from the spec's *channel identity* (see
    :meth:`ScenarioSpec.channel_identity`): distinct channels decorrelate,
    while specs that differ only in recovery-side knobs (record length,
    tolerance, fallback, …) replay the exact same delay trace.  Independent
    of worker scheduling, so parallel sweeps reproduce serial ones exactly.

    ``stage`` opens a hash-decorrelated sub-stream axis for callers that need
    several independent draws per repetition; compound channels derive their
    per-stage seeds through the same sha256 scheme (see
    :func:`compound_stage_seed`), keyed on stage *content* rather than stage
    position so superposition stays order-invariant.
    """
    return _identity_seed(spec.channel_identity_json, repetition, stage)


def _identity_seed(identity_json: str, repetition: int, stage: int = 0) -> int:
    """:func:`repetition_seed` of the spec whose channel identity encodes as ``identity_json``."""
    return _hash_seed(identity_json, int(repetition), int(stage))


def kernel_group_key(spec: ScenarioSpec) -> tuple:
    """The identity of the stacked kernel pass a spec can share with others.

    Specs with equal keys replay the same command stream (scale, seed,
    operator, run length) through the same recovery engine (the full FoReCo
    spec, which includes the forecaster's training identity) and robot
    stack (``use_pid``); they differ at most in channel, repetition count
    and ``fallback``, which changes no result at ``ENGINE_EPOCH`` 6.  :meth:`SessionEngine.run_many` concatenates such
    specs' repetitions into one ``(ΣB, n)`` kernel pass.
    """
    return (
        spec.foreco,
        spec.scale,
        int(spec.seed),
        spec.operator,
        spec.resolved_run_seconds,
        bool(spec.use_pid),
    )


def compound_stage_seed(seed: int, stage: ChannelSpec, occurrence: int = 0) -> int:
    """Hash-derived RNG seed for one stage of a compound channel.

    Feeds the base seed, the stage's *content* (its cached
    :attr:`~repro.scenarios.spec.ChannelSpec.identity_json`) and its
    occurrence count among identical stages through the same ``_hash_seed``
    construction as :func:`repetition_seed`.  Keying on content instead of
    position makes superposition order-invariant: reordering the stages of a
    compound channel permutes only the summation order, never the per-stage
    realisations or the union of losses.
    """
    return _hash_seed(int(seed), stage.identity_json, int(occurrence))


def _compound_stage_seeds(stages, seed: int) -> list[int]:
    """Per-stage seeds for one compound realisation (content-keyed)."""
    occurrences: dict[ChannelSpec, int] = {}
    stage_seeds: list[int] = []
    for stage in stages:
        occurrence = occurrences.get(stage, 0)
        occurrences[stage] = occurrence + 1
        stage_seeds.append(compound_stage_seed(seed, stage, occurrence))
    return stage_seeds


def _wireless_from_options(
    options: dict, command_period_ms: float, seed=None
) -> WirelessChannel:
    """Materialise a :class:`WirelessChannel` from frozen spec options."""
    interference = InterferenceSource(
        probability=float(options.pop("probability", 0.0)),
        duration_slots=int(options.pop("duration_slots", 0)),
    )
    return WirelessChannel(
        n_robots=int(options.pop("n_robots", 5)),
        interference=interference,
        command_period_ms=command_period_ms,
        seed=seed,
        **options,
    )


@lru_cache(maxsize=64)
def _batch_wireless_model(channel: ChannelSpec, command_period_ms: float) -> WirelessChannel:
    """The seedless model the batched sampler draws a wireless spec's rows from.

    A bounded per-process memo: the model is a pure function of its arguments
    and batched sampling passes each row's generator explicitly.
    """
    return _wireless_from_options(channel.options(), command_period_ms)


def _trace_replay(options: dict, n_commands: int, seeds) -> np.ndarray:
    """``(B, n)`` replay of a recorded delay trace with per-seed phase offsets."""
    recorded = np.asarray(options.get("delays_ms", ()), dtype=float)
    if recorded.ndim != 1 or recorded.size == 0:
        raise ConfigurationError("trace channel needs a non-empty delays_ms recording")
    cycle_offsets = bool(options.get("cycle_offsets", True))
    if cycle_offsets:
        offsets = np.array([int(rng_from(seed).integers(recorded.size)) for seed in seeds])
    else:
        offsets = np.zeros(len(seeds), dtype=int)
    indices = (np.arange(n_commands)[None, :] + offsets[:, None]) % recorded.size
    return recorded[indices]


def sample_channel_delays(
    channel: ChannelSpec,
    n_commands: int,
    seed: int,
    command_period_ms: float = 20.0,
) -> np.ndarray:
    """Sample one realisation of per-command delays (ms, ``inf`` = lost).

    The one-seed case of :func:`sample_channel_delays_batch`.
    """
    return sample_channel_delays_batch(channel, n_commands, [seed], command_period_ms)[0]


def sample_channel_delays_batch(
    channel: ChannelSpec | Sequence[ChannelSpec],
    n_commands: int,
    seeds,
    command_period_ms: float = 20.0,
) -> np.ndarray:
    """Sample ``B`` independent delay realisations as one ``(B, n)`` array.

    ``channel`` is one :class:`ChannelSpec` shared by every row, or a
    sequence aligned with ``seeds`` (one channel per row).  Row ``b`` depends
    only on ``channels[b]`` and ``seeds[b]`` — each row consumes its own
    seed's RNG stream exactly as the channel model's own one-realisation
    sampler does — but the heavy samplers (the 802.11 AP queue, the Markov chains,
    the loss injectors) advance every row together in NumPy arrays and
    expensive derived state (the Bianchi DCF fixed point, service
    distributions) is built once per DCF parameter set per process instead
    of once per row.  With per-row channels, every wireless row (whatever its station
    count, interference or queue capacity) shares one AP-queue pass
    (:func:`repro.wireless.sample_wireless_delays_batch`); rows of other
    kinds are sampled once per distinct channel and scattered back into row
    order.  This is the entry point every session's repetitions sample through.
    """
    n_commands = ensure_int("n_commands", n_commands, minimum=1)
    command_period_ms = ensure_positive("command_period_ms", command_period_ms)
    seeds = [ensure_seed(f"seeds[{row}]", seed) for row, seed in enumerate(seeds)]
    if not seeds:
        raise ConfigurationError("sample_channel_delays_batch needs at least one seed")
    channels = [channel] * len(seeds) if isinstance(channel, ChannelSpec) else list(channel)
    if len(channels) != len(seeds):
        raise ConfigurationError(
            f"got {len(channels)} channels for {len(seeds)} seeds; pass one channel per seed"
        )
    rows_by_channel: dict[ChannelSpec, list[int]] = {}
    for row, spec in enumerate(channels):
        rows_by_channel.setdefault(spec, []).append(row)
    delays = np.empty((len(seeds), n_commands))
    wireless_rows: list[int] = []
    wireless_models: list[WirelessChannel] = []
    for spec, rows in rows_by_channel.items():
        if spec.kind == "wireless":
            model = _batch_wireless_model(spec, command_period_ms)
            wireless_rows.extend(rows)
            wireless_models.extend([model] * len(rows))
        else:
            delays[rows] = _sample_one_channel(
                spec, n_commands, [seeds[row] for row in rows], command_period_ms
            )
    if wireless_rows:
        delays[wireless_rows] = sample_wireless_delays_batch(
            wireless_models, n_commands, [seeds[row] for row in wireless_rows]
        )
    return delays


#: Loss injector per loss channel kind; delivered commands get the nominal delay.
_LOSS_INJECTORS: dict[str, Callable[..., LossPattern]] = {
    "loss-burst": ConsecutiveLossInjector,
    "periodic-loss": PeriodicLossInjector,
    "random-loss": RandomLossInjector,
}


def _sample_one_channel(
    channel: ChannelSpec, n_commands: int, seeds: list[int], command_period_ms: float
) -> np.ndarray:
    """``(B, n)`` realisations of one non-wireless channel.

    Wireless rows never come here: :func:`sample_channel_delays_batch`
    stacks all of them into one AP-queue pass.
    """
    batch = len(seeds)
    options = channel.options()
    if channel.kind == "clean":
        return np.full((batch, n_commands), float(options.get("nominal_delay_ms", 1.0)))
    if channel.kind == "jammer":
        return sample_jammer_delays_batch(JammerConfig(**options), n_commands, seeds)
    if channel.kind in _LOSS_INJECTORS:
        nominal = float(options.pop("nominal_delay_ms", 1.0))
        injector = _LOSS_INJECTORS[channel.kind](**options)
        return np.where(injector.lost_mask_batch(n_commands, seeds), np.inf, nominal)
    if channel.kind == "trace":
        return _trace_replay(options, n_commands, seeds)
    if channel.kind == "markov-interference":
        return sample_markov_delays_batch(MarkovChannelConfig(**options), n_commands, seeds)
    if channel.kind == "handover":
        return sample_handover_delays_batch(HandoverConfig(**options), n_commands, seeds)
    if channel.kind == "compound":
        stages = options.get("stages", ())
        if not stages:
            raise ConfigurationError("compound channel has no stages")
        per_seed_stage_seeds = [_compound_stage_seeds(stages, seed) for seed in seeds]
        total = np.zeros((batch, n_commands))
        for index, stage in enumerate(stages):
            stage_seeds = [row[index] for row in per_seed_stage_seeds]
            total = total + sample_channel_delays_batch(
                stage, n_commands, stage_seeds, command_period_ms
            )
        return total
    raise ConfigurationError(f"unknown channel kind {channel.kind!r}")


# -------------------------------------------------------------------- results
@dataclass
class SessionResult(MetricColumns):
    """Uniform per-scenario result row produced by the engine.

    Scalar metric tuples hold one entry per repetition; ``delays_ms`` keeps
    the *last* repetition's delay trace as an array of its own.  A result
    is data: it holds no trajectory, and
    :meth:`SessionEngine.trajectories` replays the kept trace when a
    trajectory plot or transient analysis (Figs. 9/10) needs one.
    """

    spec: ScenarioSpec
    spec_hash: str
    n_commands: int
    rmse_no_forecast_mm: tuple[float, ...]
    rmse_foreco_mm: tuple[float, ...]
    late_fraction: tuple[float, ...]
    recovery_fraction: tuple[float, ...]
    delays_ms: np.ndarray | None = field(repr=False, default=None)

    def to_dict(self) -> dict:
        """JSON-safe summary row (raw delays excluded).

        A non-finite :attr:`improvement_factor` (the documented ``inf`` for
        a ~zero FoReCo RMSE) is serialised as ``None`` — ``json.dumps``
        would otherwise emit the literal ``Infinity``, which RFC 8259
        consumers reject.
        """
        factor = self.improvement_factor
        return {
            "scenario": self.spec.name,
            "spec_hash": self.spec_hash,
            "channel": self.spec.channel.describe(),
            "operator": self.spec.operator,
            "scale": self.spec.scale.name,
            "seed": self.spec.seed,
            "repetitions": self.repetitions,
            "n_commands": self.n_commands,
            "rmse_no_forecast_mm": [float(v) for v in self.rmse_no_forecast_mm],
            "rmse_foreco_mm": [float(v) for v in self.rmse_foreco_mm],
            "mean_rmse_no_forecast_mm": self.mean_rmse_no_forecast_mm,
            "mean_rmse_foreco_mm": self.mean_rmse_foreco_mm,
            "improvement_factor": factor if np.isfinite(factor) else None,
            "mean_late_fraction": self.mean_late_fraction,
            "mean_recovery_fraction": self.mean_recovery_fraction,
        }


# ----------------------------------------------------------------------- memo
def for_spec(result, spec):
    """``result`` under the caller's ``spec`` (a shallow copy when the spec differs).

    Specs differing only in name share a hash and one memoized result; each
    caller gets it labelled with its own spec, exactly as a store hit is.
    """
    if result is None or result.spec is spec:
        return result
    return replace(result, spec=spec)


class ResultMemo:
    """Finished results by spec hash, in front of an optional result store.

    The one memory -> store -> compute -> write-back lookup: every engine
    (session, fleet, service, capacity plan) owns one, and
    :class:`~repro.scenarios.sweep.SweepExecutor` partitions a sweep
    through the same memos.  :meth:`lookup` reads memory, then the store,
    promoting a store hit into memory; :meth:`record` keeps a computed
    result and writes it back, and :meth:`adopt` keeps a row a sweep
    worker computed and stored.  Every row they return carries the spec
    the caller passed (see :func:`for_spec`).  A store miss is remembered
    until the next lookup of that key or until the key is kept, so the
    engine that computes a spec right after a sweep's partition missed it
    does not read the shard again; :meth:`note_miss` hands such a miss to a
    sweep worker's memo.
    """

    def __init__(self, store: "ResultStore | None" = None) -> None:
        self.store = store
        self._results: dict[str, Any] = {}
        self._missed: set[str] = set()
        self._lock = threading.Lock()

    def lookup(self, spec) -> tuple[Any, bool]:
        """``(result, loaded from the store)``, or ``(None, False)`` on a miss."""
        key = spec.spec_hash()
        with self._lock:
            result = self._results.get(key)
            if result is not None or self.store is None:
                return for_spec(result, spec), False
            if key in self._missed:
                self._missed.discard(key)
                return None, False
        stored = self.store.get(spec)
        with self._lock:
            if stored is None:
                self._missed.add(key)
                return None, False
            return for_spec(self._results.setdefault(key, stored), spec), True

    def record(self, spec, result):
        """Keep a computed result (the first one recorded wins) and store it."""
        result = self.adopt(spec, result)
        if self.store is not None:
            self.store.put(spec, result)
        return result

    def fetch(self, spec, compute: Callable[[Any], Any]):
        """The memoized result for ``spec``, computed and recorded on a miss."""
        result, _ = self.lookup(spec)
        return result if result is not None else self.record(spec, compute(spec))

    def adopt(self, spec, result):
        """Keep a result computed and stored elsewhere (the first one kept wins)."""
        key = spec.spec_hash()
        result = for_spec(result, spec)  # a worker's row carries an unpickled copy
        with self._lock:
            self._missed.discard(key)
            return for_spec(self._results.setdefault(key, result), spec)

    def note_miss(self, spec) -> None:
        """Remember a store miss another process already read for ``spec``."""
        with self._lock:
            self._missed.add(spec.spec_hash())

    def cached(self, spec):
        """The result held in memory for this spec, if any."""
        with self._lock:
            return self._results.get(spec.spec_hash())

    def clear(self) -> None:
        """Drop every result held in memory (the store keeps its shards)."""
        with self._lock:
            self._results.clear()
            self._missed.clear()


# --------------------------------------------------------------------- engine
class SessionEngine:
    """Resolves scenario specs into simulation runs, with caching.

    Parameters
    ----------
    store:
        Optional persistent :class:`~repro.scenarios.store.ResultStore`,
        held by the engine's :attr:`memo`.  Finished results are kept by
        spec hash, so re-running the same spec (e.g. across sweep rounds)
        is free; lookups go memory cache → disk store → compute, and
        computed results are written back immediately, so an interrupted
        sweep has persisted everything it finished.  A store hit equals
        the cold result bit for bit (summary row and delay trace), so
        :meth:`trajectories` replays it exactly as it replays a computed
        one.  The forecaster and dataset caches are always on — they are
        pure functions of the spec.
    """

    def __init__(self, store: "ResultStore | None" = None) -> None:
        self.memo = ResultMemo(store)

    # ------------------------------------------------------------- datasets
    def datasets(self, spec: ScenarioSpec) -> SharedDatasets:
        """The operator datasets this spec resolves to."""
        return build_datasets(spec.scale, seed=spec.seed)

    def test_commands(self, spec: ScenarioSpec) -> np.ndarray:
        """The command stream replayed through the channel for this spec."""
        datasets = self.datasets(spec)
        seconds = spec.resolved_run_seconds
        if spec.operator == "experienced":
            return datasets.experienced.head_seconds(seconds).commands
        if spec.operator == "inexperienced":
            return datasets.inexperienced.head_seconds(seconds).commands
        # "mix": an operator handover halfway through the run.
        half = seconds / 2.0
        first = datasets.experienced.head_seconds(half).commands
        second = datasets.inexperienced.head_seconds(half).commands
        return np.vstack([first, second])

    # ----------------------------------------------------------- forecaster
    def trained_forecaster(self, spec: ScenarioSpec):
        """The fitted master forecaster for this spec's training identity.

        Shared by every engine in the process and never predicted on —
        sessions run against deep copies (see :meth:`session_forecaster`)
        because forecasters may carry predict-time state.
        """
        return _master_forecaster(spec)

    def session_forecaster(self, spec: ScenarioSpec):
        """A private fitted forecaster for one session (deep copy of the master).

        The copy makes every session start from pristine fitted state, so
        stateful forecasters (VARMA's residual window, custom registered
        classes) cannot leak state across repetitions, sessions or caller
        threads — results stay independent of execution order.
        """
        return copy.deepcopy(self.trained_forecaster(spec))

    def recovery(self, spec: ScenarioSpec) -> ForecoRecovery:
        """A fresh recovery engine around a private copy of the trained forecaster."""
        return ForecoRecovery(config=spec.foreco.to_config(), forecaster=self.session_forecaster(spec))

    def trajectories(self, result: SessionResult) -> SimulationOutcome:
        """The last repetition's trajectories, replayed from ``result.delays_ms``.

        One ``B = 1`` kernel pass, bit-identical to that repetition's row of
        the pass that computed the result, whichever cache the result came
        from.  A result without a delay trace raises ``ConfigurationError``.
        """
        if result.delays_ms is None:
            raise ConfigurationError(f"result {result.spec_hash[:12]} keeps no delay trace to replay")
        spec = result.spec
        simulation = RemoteControlSimulation(self.recovery(spec), use_pid=spec.use_pid)
        return simulation.run(self.test_commands(spec), result.delays_ms)

    # ------------------------------------------------------------- sessions
    def run(self, spec: ScenarioSpec) -> SessionResult:
        """Run one scenario (all its repetitions) and return the result row.

        The one-spec case of :meth:`run_many`.
        """
        return self.run_many([spec])[0]

    def run_many(self, specs: Sequence[ScenarioSpec]) -> list[SessionResult]:
        """Run several scenarios, one stacked kernel pass per kernel group.

        Each spec is looked up on its own (memory cache, then store).  The
        pending specs are grouped by :func:`kernel_group_key`; a group's
        repetitions — across all its specs — are sampled in one
        :func:`sample_channel_delays_batch` call with per-row channels and
        run through one :class:`BatchedRemoteControlSimulation` pass over
        the concatenated ``(ΣB, n)`` delays.  The metric columns are split back
        into one :class:`SessionResult` per spec, each cached and stored
        under its own spec hash.  The kernel is batch-invariant (every row
        is bit-identical to a run of that repetition alone), so a spec's
        result does not depend on which other specs shared its pass.

        Returns the results in input order, each carrying its own spec.
        """
        specs = list(specs)
        results: list[SessionResult | None] = [None] * len(specs)
        groups: dict[tuple, dict[str, list[int]]] = {}
        for index, spec in enumerate(specs):
            known, _ = self.memo.lookup(spec)
            if known is not None:
                results[index] = known
            else:
                group = groups.setdefault(kernel_group_key(spec), {})
                group.setdefault(spec.spec_hash(), []).append(index)
        for group in groups.values():
            group_specs = [specs[indices[0]] for indices in group.values()]
            computed = self._run_group(group_specs)
            for indices, result in zip(group.values(), computed):
                for index in indices:
                    results[index] = for_spec(result, specs[index])
        return results  # type: ignore[return-value]

    def _run_group(self, specs: list[ScenarioSpec]) -> list[SessionResult]:
        """Compute one kernel group (distinct spec hashes) and record each row."""
        commands = self.test_commands(specs[0])
        batch, delays_batch = self._simulate(specs, commands)
        results = []
        stop = 0
        for spec in specs:
            start, stop = stop, stop + spec.repetitions
            result = SessionResult(
                spec=spec,
                spec_hash=spec.spec_hash(),
                n_commands=int(commands.shape[0]),
                rmse_no_forecast_mm=batch.rmse_no_forecast_mm[start:stop],
                rmse_foreco_mm=batch.rmse_foreco_mm[start:stop],
                late_fraction=batch.late_fraction[start:stop],
                recovery_fraction=batch.recovery_fraction[start:stop],
                delays_ms=delays_batch[stop - 1].copy(),
            )
            results.append(self.memo.record(spec, result))
        return results

    def _simulate(
        self, specs: list[ScenarioSpec], commands: np.ndarray
    ) -> tuple[SimulationBatch, np.ndarray]:
        """The session kernel: every repetition of a kernel group in one pass.

        Channel realisations come from the vectorized batch sampler with
        each spec's own channel and spec-derived per-repetition seeds, and
        one private fitted forecaster serves the whole stack (the kernel
        gives each row its own copy when the forecaster cannot batch), so
        every spec's rows equal one fresh session per repetition, bit for
        bit.  Returns the batch and the ``(ΣB, n)`` delays, rows in spec
        order.
        """
        first = specs[0]
        channels: list[ChannelSpec] = []
        seeds: list[int] = []
        for spec in specs:
            channels.extend([spec.channel] * spec.repetitions)
            seeds.extend(repetition_seed(spec, rep) for rep in range(spec.repetitions))
        delays_batch = sample_channel_delays_batch(
            channels,
            commands.shape[0],
            seeds,
            command_period_ms=first.foreco.command_period_ms,
        )
        simulation = BatchedRemoteControlSimulation(self.recovery(first), use_pid=first.use_pid)
        return simulation.run(commands, delays_batch), delays_batch
