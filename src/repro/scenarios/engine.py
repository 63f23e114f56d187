"""Session engine: resolve a :class:`ScenarioSpec` into simulation runs.

The engine owns every piece of shared, cacheable state the scenario layer
needs:

* the operator datasets, cached per *full* :class:`ExperimentScale` value
  plus seed (not just the scale name, so custom scales never alias);
* trained forecasters, cached per training identity (algorithm, record,
  options, train fraction, scale, seed) — the fitted master is never
  predicted on directly; every session gets a deep copy, because
  forecasters may carry predict-time state (VARMA's residual window, or a
  registered custom class);
* finished :class:`SessionResult` objects, cached by the spec hash.

All caches are guarded by locks so the :class:`~repro.scenarios.sweep.
SweepExecutor` can call :meth:`SessionEngine.run_many` from worker threads.
Determinism is by construction: every random draw is seeded from the spec
hash and the repetition index, never from execution order, so a sweep
produces bit-identical results with 1 or N workers.

Repetitions execute through the **batched session kernel** by default: all
of a spec's channel realisations advance as one stacked NumPy computation
(:class:`repro.core.BatchedRemoteControlSimulation`) instead of a serial
Python loop, which is several times faster at equal results — the serial
path is kept behind the ``batch=False`` escape hatch and doubles as the
bit-equality oracle in the tests.  :meth:`SessionEngine.run_many` stacks
further: specs sharing a :func:`kernel_group_key` (same command stream,
recovery engine and robot stack; any channel) run their repetitions through
one kernel pass, and each still gets its own result, cache entry and shard.
"""

from __future__ import annotations

import copy
import hashlib
import json
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store imports engine)
    from .store import ResultStore

from ..core.recovery import ForecoRecovery
from ..core.simulation import (
    BatchedRemoteControlSimulation,
    RemoteControlSimulation,
    SimulationOutcome,
)
from ..errors import ConfigurationError
from ..forecasting import make_forecaster
from ..teleop import (
    OperatorModel,
    RemoteController,
    experienced_operator,
    inexperienced_operator,
)
from ..teleop.controller import CommandStream
from .._validation import rng_from
from ..wireless import (
    ConsecutiveLossInjector,
    GilbertElliottJammer,
    HandoverChannel,
    HandoverConfig,
    InterferenceSource,
    JammerConfig,
    MarkovChannelConfig,
    MarkovModulatedChannel,
    PeriodicLossInjector,
    RandomLossInjector,
    WirelessChannel,
    sample_handover_delays_batch,
    sample_jammer_delays_batch,
    sample_markov_delays_batch,
    sample_wireless_delays_batch,
)
from .spec import ChannelSpec, ExperimentScale, ScenarioSpec, _jsonify, get_scale

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


# ------------------------------------------------------------------- channels
def _hash_seed(payload: str) -> int:
    """32-bit seed derived from a payload string (shared hashing scheme)."""
    return int.from_bytes(hashlib.sha256(payload.encode("utf-8")).digest()[:4], "big")


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
    identity = json.dumps(spec.channel_identity(), sort_keys=True, separators=(",", ":"))
    return _hash_seed(f"{identity}::{int(repetition)}::{int(stage)}")


def kernel_group_key(spec: ScenarioSpec) -> tuple:
    """The identity of the stacked kernel pass a spec can share with others.

    Specs with equal keys replay the same command stream (scale, seed,
    operator, run length) through the same recovery engine (the full FoReCo
    spec, which includes the forecaster's training identity) and robot
    stack (``use_pid``, ``fallback``); they differ at most in channel and
    repetition count.  :meth:`SessionEngine.run_many` concatenates such
    specs' repetitions into one ``(ΣB, n)`` kernel pass.
    """
    return (
        spec.foreco,
        spec.scale,
        int(spec.seed),
        spec.operator,
        spec.resolved_run_seconds,
        bool(spec.use_pid),
        spec.fallback,
    )


def compound_stage_seed(seed: int, stage: ChannelSpec, occurrence: int = 0) -> int:
    """Hash-derived RNG seed for one stage of a compound channel.

    The old additive scheme (``seed + 9973 * (index + 1)``) could collide or
    correlate across dense 32-bit repetition seeds; this derivation feeds the
    base seed, the stage's *content* (kind + parameters) and its occurrence
    count among identical stages through the same sha256 construction as
    :func:`repetition_seed`.  Keying on content instead of position makes
    superposition order-invariant: reordering the stages of a compound
    channel permutes only the summation order, never the per-stage
    realisations or the union of losses.

    Compatibility: spec hashes are unchanged (seed derivation is not part of
    the hashing domain), but compound-channel delay traces differ from those
    produced before this scheme — cached ``SessionResult`` rows for compound
    specs from older runs are not comparable.
    """
    identity = json.dumps(
        {"kind": stage.kind, "params": _jsonify(stage.params)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return _hash_seed(f"{int(seed)}::{identity}::{int(occurrence)}")


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

    This is the serial reference path — one repetition at a time, kept as
    the bit-equality oracle for :func:`sample_channel_delays_batch`.
    """
    options = channel.options()
    if channel.kind == "clean":
        return np.full(n_commands, float(options.get("nominal_delay_ms", 1.0)))
    if channel.kind == "wireless":
        wireless = _wireless_from_options(options, command_period_ms, seed=seed)
        return wireless.sample_trace(n_commands).delays()
    if channel.kind == "jammer":
        jammer = GilbertElliottJammer(config=JammerConfig(**options), seed=seed)
        return jammer.sample_trace(n_commands).delays()
    if channel.kind == "loss-burst":
        nominal = float(options.pop("nominal_delay_ms", 1.0))
        injector = ConsecutiveLossInjector(seed=seed, **options)
        return injector.to_delays(n_commands, nominal_delay_ms=nominal)
    if channel.kind == "periodic-loss":
        nominal = float(options.pop("nominal_delay_ms", 1.0))
        injector = PeriodicLossInjector(**options)
        return injector.to_delays(n_commands, nominal_delay_ms=nominal)
    if channel.kind == "random-loss":
        nominal = float(options.pop("nominal_delay_ms", 1.0))
        injector = RandomLossInjector(seed=seed, **options)
        return injector.to_delays(n_commands, nominal_delay_ms=nominal)
    if channel.kind == "trace":
        return _trace_replay(options, n_commands, [seed])[0]
    if channel.kind == "markov-interference":
        markov = MarkovModulatedChannel(config=MarkovChannelConfig(**options), seed=seed)
        return markov.sample_delays(n_commands)
    if channel.kind == "handover":
        handover = HandoverChannel(config=HandoverConfig(**options), seed=seed)
        return handover.sample_delays(n_commands)
    if channel.kind == "compound":
        stages = options.get("stages", ())
        if not stages:
            raise ConfigurationError("compound channel has no stages")
        total = np.zeros(n_commands)
        for stage, stage_seed in zip(stages, _compound_stage_seeds(stages, seed)):
            total = total + sample_channel_delays(
                stage, n_commands, stage_seed, command_period_ms
            )
        return total
    raise ConfigurationError(f"unknown channel kind {channel.kind!r}")


def sample_channel_delays_batch(
    channel: ChannelSpec | Sequence[ChannelSpec],
    n_commands: int,
    seeds,
    command_period_ms: float = 20.0,
) -> np.ndarray:
    """Sample ``B`` independent delay realisations as one ``(B, n)`` array.

    ``channel`` is one :class:`ChannelSpec` shared by every row, or a
    sequence aligned with ``seeds`` (one channel per row).  Row ``b`` is
    bit-identical to
    ``sample_channel_delays(channels[b], n_commands, seeds[b], command_period_ms)``
    — each row consumes its own seed's RNG stream exactly as the serial path
    does — but the heavy samplers (the 802.11 AP queue, the Markov chains,
    the loss injectors) advance every row in lockstep NumPy arrays and
    expensive derived state (the Bianchi DCF fixed point, service
    distributions) is built once per distinct channel instead of once per
    row.  With per-row channels, every wireless row (whatever its station
    count, interference or queue capacity) shares one AP-queue lockstep pass
    (:func:`repro.wireless.sample_wireless_delays_batch`); rows of other
    kinds are sampled once per distinct channel and scattered back into row
    order.  This is the entry point :class:`SessionEngine` routes batched
    repetitions through.
    """
    seeds = [int(seed) for seed in seeds]
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
            model = _wireless_from_options(spec.options(), command_period_ms)
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
    if channel.kind == "loss-burst":
        nominal = float(options.pop("nominal_delay_ms", 1.0))
        injector = ConsecutiveLossInjector(**options)
        return np.where(injector.lost_mask_batch(n_commands, seeds), np.inf, nominal)
    if channel.kind == "periodic-loss":
        nominal = float(options.pop("nominal_delay_ms", 1.0))
        injector = PeriodicLossInjector(**options)
        return np.where(injector.lost_mask_batch(n_commands, seeds), np.inf, nominal)
    if channel.kind == "random-loss":
        nominal = float(options.pop("nominal_delay_ms", 1.0))
        injector = RandomLossInjector(**options)
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
class SessionResult:
    """Uniform per-scenario result row produced by the engine.

    Scalar metric tuples hold one entry per repetition; ``outcome`` and
    ``delays_ms`` keep the *last* repetition's full detail for trajectory
    plots and transient analyses (Figs. 9/10).
    """

    spec: ScenarioSpec
    spec_hash: str
    n_commands: int
    rmse_no_forecast_mm: tuple[float, ...]
    rmse_foreco_mm: tuple[float, ...]
    late_fraction: tuple[float, ...]
    recovery_fraction: tuple[float, ...]
    outcome: SimulationOutcome | None = field(repr=False, default=None)
    delays_ms: np.ndarray | None = field(repr=False, default=None)

    @property
    def repetitions(self) -> int:
        """Number of repetitions actually run."""
        return len(self.rmse_foreco_mm)

    @property
    def mean_rmse_no_forecast_mm(self) -> float:
        """Baseline trajectory RMSE averaged over repetitions."""
        return float(np.mean(self.rmse_no_forecast_mm))

    @property
    def mean_rmse_foreco_mm(self) -> float:
        """FoReCo trajectory RMSE averaged over repetitions."""
        return float(np.mean(self.rmse_foreco_mm))

    @property
    def mean_late_fraction(self) -> float:
        """Late/lost command share averaged over repetitions."""
        return float(np.mean(self.late_fraction))

    @property
    def mean_recovery_fraction(self) -> float:
        """Share of missing slots FoReCo filled, averaged over repetitions."""
        return float(np.mean(self.recovery_fraction))

    @property
    def improvement_factor(self) -> float:
        """Mean baseline RMSE over mean FoReCo RMSE (the paper's ×18 / ×2).

        Contract: when the FoReCo RMSE denominator is zero or numerically
        negligible (< 1e-12 mm — e.g. a clean channel where FoReCo replays
        the defined trajectory exactly), the factor is ``float("inf")``
        rather than a NaN, an exception, or an arbitrary huge float.
        Callers that tabulate or JSON-encode results must expect ``inf``.
        """
        denominator = self.mean_rmse_foreco_mm
        if denominator < 1e-12:
            return float("inf")
        return self.mean_rmse_no_forecast_mm / denominator

    def to_dict(self) -> dict:
        """JSON-safe summary row (trajectories and raw delays excluded).

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


# --------------------------------------------------------------------- engine
class SessionEngine:
    """Resolves scenario specs into simulation runs, with caching.

    Parameters
    ----------
    cache_results:
        Keep finished :class:`SessionResult` objects keyed by spec hash, so
        re-running the same spec (e.g. across sweep rounds) is free.  The
        forecaster and dataset caches are always on — they are pure
        functions of the spec.
    batch:
        Execute a spec's repetitions through the batched session kernel
        (:class:`repro.core.BatchedRemoteControlSimulation`) whenever the
        spec has more than one repetition and its forecaster supports
        batched prediction.  The kernel is bit-identical to the serial
        repetition loop; ``batch=False`` is the escape hatch that forces the
        serial path (and is what the equality tests compare against).
    store:
        Optional persistent :class:`~repro.scenarios.store.ResultStore`.
        Lookups go memory cache → disk store → compute; computed results are
        written back immediately, so an interrupted sweep has persisted
        everything it finished.  Store hits carry ``outcome=None`` (full
        trajectories are not persisted — see the store module docs); the
        summary row and delay trace round-trip bit-for-bit.
    """

    def __init__(
        self,
        cache_results: bool = True,
        batch: bool = True,
        store: "ResultStore | None" = None,
    ) -> None:
        self.cache_results = bool(cache_results)
        self.batch = bool(batch)
        self.store = store
        self._results: dict[str, SessionResult] = {}
        self._forecasters: dict[tuple, object] = {}
        self._results_lock = threading.Lock()
        self._forecaster_lock = threading.Lock()
        self._training_locks: dict[tuple, threading.Lock] = {}

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

        Cached and never predicted on by the engine itself — sessions run
        against deep copies (see :meth:`session_forecaster`) because
        forecasters may carry predict-time state.  Training for distinct
        identities proceeds in parallel; concurrent requests for the same
        identity serialise on a per-key lock so the model is fitted once.
        """
        key = (spec.foreco.training_identity(), spec.scale, int(spec.seed))
        with self._forecaster_lock:
            forecaster = self._forecasters.get(key)
            if forecaster is not None:
                return forecaster
            training_lock = self._training_locks.setdefault(key, threading.Lock())
        with training_lock:
            with self._forecaster_lock:
                forecaster = self._forecasters.get(key)
                if forecaster is not None:
                    return forecaster
            forecaster = make_forecaster(
                spec.foreco.algorithm,
                record=spec.foreco.record,
                **spec.foreco.options(),
            )
            forecaster.fit(self.datasets(spec).experienced.commands)
            with self._forecaster_lock:
                self._forecasters[key] = forecaster
            return forecaster

    def session_forecaster(self, spec: ScenarioSpec):
        """A private fitted forecaster for one session (deep copy of the master).

        The copy makes every session start from pristine fitted state, so
        stateful forecasters (VARMA's residual window, custom registered
        classes) cannot leak state across repetitions, sessions or worker
        threads — results stay independent of execution order.
        """
        return copy.deepcopy(self.trained_forecaster(spec))

    def recovery(self, spec: ScenarioSpec) -> ForecoRecovery:
        """A fresh recovery engine around a private copy of the trained forecaster."""
        return ForecoRecovery(config=spec.foreco.to_config(), forecaster=self.session_forecaster(spec))

    # ------------------------------------------------------------- sessions
    def run(self, spec: ScenarioSpec, batch: bool | None = None) -> SessionResult:
        """Run one scenario (all its repetitions) and return the result row.

        The one-spec case of :meth:`run_many`.  ``batch`` is a per-call
        override of the engine's :attr:`batch` setting: ``False`` forces the
        serial repetition loop, ``True`` requests the batched kernel (still
        subject to the forecaster supporting it).  Both paths produce
        bit-identical results, so cached rows are shared between them.
        """
        return self.run_many([spec], batch=batch)[0]

    def run_many(
        self, specs: Sequence[ScenarioSpec], batch: bool | None = None
    ) -> list[SessionResult]:
        """Run several scenarios, one stacked kernel pass per kernel group.

        Each spec is looked up on its own (memory cache, then store).  The
        pending specs are grouped by :func:`kernel_group_key`; a group's
        repetitions — across all its specs — are sampled in one
        :func:`sample_channel_delays_batch` call with per-row channels and
        run through one :class:`BatchedRemoteControlSimulation` pass over
        the concatenated ``(ΣB, n)`` delays.  The outcomes are split back
        into one :class:`SessionResult` per spec, each cached and stored
        under its own spec hash.  The kernel is batch-invariant (every row
        is bit-identical to its own serial run), so a spec's result does not
        depend on which other specs shared its pass.

        Returns the results in input order.
        """
        specs = list(specs)
        results: list[SessionResult | None] = [None] * len(specs)
        groups: dict[tuple, dict[str, list[int]]] = {}
        for index, spec in enumerate(specs):
            known = self._lookup(spec)
            if known is not None:
                results[index] = known
            else:
                group = groups.setdefault(kernel_group_key(spec), {})
                group.setdefault(spec.spec_hash(), []).append(index)
        use_batch = self.batch if batch is None else bool(batch)
        for group in groups.values():
            group_specs = [specs[indices[0]] for indices in group.values()]
            computed = self._run_group(group_specs, use_batch)
            for indices, result in zip(group.values(), computed):
                for index in indices:
                    results[index] = result
        return results  # type: ignore[return-value]

    def _lookup(self, spec: ScenarioSpec) -> SessionResult | None:
        """The memoized result for this spec: memory cache, then store."""
        key = spec.spec_hash()
        if self.cache_results:
            with self._results_lock:
                cached = self._results.get(key)
            if cached is not None:
                return cached
        if self.store is not None:
            stored = self.store.get(spec)
            if stored is not None:
                if self.cache_results:
                    with self._results_lock:
                        stored = self._results.setdefault(key, stored)
                return stored
        return None

    def _run_group(self, specs: list[ScenarioSpec], use_batch: bool) -> list[SessionResult]:
        """Compute one kernel group (distinct spec hashes) and memoize each row."""
        first = specs[0]
        commands = self.test_commands(first)
        master = self.trained_forecaster(first)  # ensure the master is fitted once
        if (
            use_batch
            and sum(spec.repetitions for spec in specs) > 1
            and getattr(master, "supports_batch_predict", False)
        ):
            computed = self._run_batched(specs, commands)
        else:
            computed = [self._run_serial(spec, commands) for spec in specs]

        results = []
        for spec, (outcomes, delays) in zip(specs, computed):
            key = spec.spec_hash()
            result = SessionResult(
                spec=spec,
                spec_hash=key,
                n_commands=int(commands.shape[0]),
                rmse_no_forecast_mm=tuple(o.rmse_no_forecast_mm for o in outcomes),
                rmse_foreco_mm=tuple(o.rmse_foreco_mm for o in outcomes),
                late_fraction=tuple(o.late_fraction for o in outcomes),
                recovery_fraction=tuple(o.recovery_fraction for o in outcomes),
                outcome=outcomes[-1],
                delays_ms=delays,
            )
            if self.cache_results:
                with self._results_lock:
                    self._results.setdefault(key, result)
            if self.store is not None:
                self.store.put(spec, result)
            results.append(result)
        return results

    def _sample_delays(self, spec: ScenarioSpec, n_commands: int, repetition: int) -> np.ndarray:
        """One repetition's channel realisation (seeded from the spec)."""
        return sample_channel_delays(
            spec.channel,
            n_commands,
            seed=repetition_seed(spec, repetition),
            command_period_ms=spec.foreco.command_period_ms,
        )

    def _run_serial(
        self, spec: ScenarioSpec, commands: np.ndarray
    ) -> tuple[list[SimulationOutcome], np.ndarray]:
        """The reference path: one full simulation per repetition.

        Kept verbatim as the equality oracle for the batched kernel (and as
        the fallback for forecasters without batched prediction).
        """
        outcomes: list[SimulationOutcome] = []
        delays: np.ndarray | None = None
        for repetition in range(spec.repetitions):
            recovery = ForecoRecovery(
                config=spec.foreco.to_config(), forecaster=self.session_forecaster(spec)
            )
            simulation = RemoteControlSimulation(
                recovery, use_pid=spec.use_pid, fallback=spec.fallback
            )
            delays = self._sample_delays(spec, commands.shape[0], repetition)
            outcomes.append(simulation.run(commands, delays))
        assert delays is not None  # repetitions >= 1 by spec validation
        return outcomes, delays

    def _run_batched(
        self, specs: list[ScenarioSpec], commands: np.ndarray
    ) -> list[tuple[list[SimulationOutcome], np.ndarray]]:
        """The batched kernel: every repetition of a kernel group in one pass.

        Channel realisations come from the vectorized batch sampler with
        each spec's own channel and spec-derived per-repetition seeds, and
        one private fitted forecaster serves the whole stack (the
        ``supports_batch_predict`` contract makes that equivalent to the
        serial path's per-repetition deep copies), so every spec's outcomes
        are bit-identical to :meth:`_run_serial`.  Returns ``(outcomes,
        last repetition's delays)`` per spec.
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
        recovery = ForecoRecovery(
            config=first.foreco.to_config(), forecaster=self.session_forecaster(first)
        )
        simulation = BatchedRemoteControlSimulation(
            recovery, use_pid=first.use_pid, fallback=first.fallback
        )
        outcomes = simulation.run(commands, delays_batch)
        split = []
        stop = 0
        for spec in specs:
            start, stop = stop, stop + spec.repetitions
            split.append((outcomes[start:stop], delays_batch[stop - 1].copy()))
        return split

    def cached_result(self, spec: ScenarioSpec) -> SessionResult | None:
        """The cached result for this spec, if any."""
        with self._results_lock:
            return self._results.get(spec.spec_hash())

    def clear(self) -> None:
        """Drop the session-result cache (forecaster cache is kept)."""
        with self._results_lock:
            self._results.clear()
