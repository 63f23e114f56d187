"""Declarative scenario specifications.

A :class:`ScenarioSpec` captures *everything* needed to reproduce one
remote-control session — the operator profiles, the channel model and its
parameters, the FoReCo configuration, the sizing scale, the seed and the
repetition count — as a frozen, hashable value object.  Because the spec is
a pure value:

* two equal specs always produce identical results, so the
  :class:`~repro.scenarios.engine.SessionEngine` can cache sessions by
  :meth:`ScenarioSpec.spec_hash`;
* a sweep is just a list of specs, which the
  :class:`~repro.scenarios.sweep.SweepExecutor` can fan out over worker
  processes without any shared mutable state;
* experiments, examples, benchmarks and the CLI all describe workloads in
  the same vocabulary instead of hand-wiring channels and recovery engines.

The module also hosts :class:`ExperimentScale` (the ci/standard/full sizing
knobs previously private to :mod:`repro.experiments.common`) because the
scale is part of the scenario identity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

from ..errors import ConfigurationError
from ..core.config import ForecoConfig


# --------------------------------------------------------------------- scales
@dataclass(frozen=True)
class ExperimentScale:
    """Sizing knobs shared by every experiment and scenario.

    Attributes
    ----------
    name:
        Scale label ("ci", "standard", "full").
    train_repetitions / test_repetitions:
        Pick-and-place cycles generated for the experienced (training) and
        inexperienced (test) operators.
    heatmap_repetitions:
        Simulation repetitions averaged per Fig. 8 heatmap cell (paper: 40).
    run_seconds:
        Length of each Fig. 9 / Fig. 10 experiment run (paper: 30 s).
    forecast_windows_ms:
        Forecasting windows evaluated for Fig. 7 (paper: 20–1000 ms).
    forecast_evaluations:
        Number of rolling evaluations per Fig. 7 point.
    seq2seq_units:
        (encoder, decoder) sizes for the seq2seq forecaster; the paper's
        200/30 is used at full scale only, smaller sizes keep the NumPy BPTT
        affordable at CI scale.
    seq2seq_epochs:
        Training epochs for the seq2seq forecaster.
    """

    name: str
    train_repetitions: int
    test_repetitions: int
    heatmap_repetitions: int
    run_seconds: float
    forecast_windows_ms: tuple[int, ...]
    forecast_evaluations: int
    seq2seq_units: tuple[int, int]
    seq2seq_epochs: int


_SCALES: dict[str, ExperimentScale] = {
    "ci": ExperimentScale(
        name="ci",
        train_repetitions=6,
        test_repetitions=2,
        heatmap_repetitions=2,
        run_seconds=30.0,
        forecast_windows_ms=(20, 100, 300, 600, 1000),
        forecast_evaluations=30,
        seq2seq_units=(16, 8),
        seq2seq_epochs=2,
    ),
    "standard": ExperimentScale(
        name="standard",
        train_repetitions=20,
        test_repetitions=4,
        heatmap_repetitions=10,
        run_seconds=30.0,
        forecast_windows_ms=(20, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000),
        forecast_evaluations=120,
        seq2seq_units=(64, 16),
        seq2seq_epochs=4,
    ),
    "full": ExperimentScale(
        name="full",
        train_repetitions=100,
        test_repetitions=10,
        heatmap_repetitions=40,
        run_seconds=30.0,
        forecast_windows_ms=(20, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000),
        forecast_evaluations=400,
        seq2seq_units=(200, 30),
        seq2seq_epochs=10,
    ),
}


def get_scale(scale: str | ExperimentScale = "ci") -> ExperimentScale:
    """Resolve a scale by name (or pass an :class:`ExperimentScale` through)."""
    if isinstance(scale, ExperimentScale):
        return scale
    try:
        return _SCALES[scale]
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(
            f"unknown experiment scale {scale!r}; available: {sorted(_SCALES)}"
        ) from exc


def scale_names() -> list[str]:
    """Names of the registered scales (for CLI choices)."""
    return sorted(_SCALES)


# ------------------------------------------------------------------- freezing
def freeze_params(params: dict) -> tuple:
    """Convert a parameter dict into a canonical hashable tuple of pairs.

    Values are frozen recursively: dicts become sorted ``(key, value)``
    tuples, lists/tuples become tuples.  Anything left unhashable is
    rejected so specs stay usable as cache keys.
    """
    frozen = tuple(sorted((str(key), _freeze_value(value)) for key, value in params.items()))
    return frozen


def _freeze_value(value):
    if isinstance(value, dict):
        return tuple(sorted((str(k), _freeze_value(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(v) for v in value)
    try:
        hash(value)
    except TypeError as exc:
        raise ConfigurationError(
            f"scenario parameter values must be hashable, got {type(value).__name__}"
        ) from exc
    return value


def _thaw(value):
    """Inverse of :func:`_freeze_value` for pair-tuples produced by it."""
    if isinstance(value, tuple):
        if value and all(
            isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str)
            for item in value
        ):
            return {key: _thaw(item) for key, item in value}
        return tuple(_thaw(v) for v in value)
    return value


# ------------------------------------------------------------------- channels
#: Channel model kinds understood by the session engine.
CHANNEL_KINDS: tuple[str, ...] = (
    "clean",
    "wireless",
    "jammer",
    "loss-burst",
    "periodic-loss",
    "random-loss",
    "trace",
    "markov-interference",
    "handover",
    "compound",
)

#: One-line summary per channel kind (rendered into the docs reference).
CHANNEL_KIND_SUMMARIES: dict[str, str] = {
    "clean": "lossless channel with a constant nominal delay",
    "wireless": "802.11 AP queue with Bianchi contention and ON/OFF interference (Fig. 8)",
    "jammer": "Gilbert-Elliott two-state bursty jammer (Fig. 10)",
    "loss-burst": "random bursts of consecutive losses on a healthy channel (Fig. 9)",
    "periodic-loss": "deterministic loss burst every `period` commands",
    "random-loss": "memoryless i.i.d. Bernoulli losses",
    "trace": "replay of a recorded delay/loss array, cycled with per-repetition phase offsets",
    "markov-interference": "K-state Markov-modulated delay/loss regimes (superposable interference)",
    "handover": "periodic AP-roaming outages with decaying delay spikes",
    "compound": "superposition of stages: delays add, losses union",
}


@dataclass(frozen=True)
class ChannelSpec:
    """Declarative description of a channel model.

    ``kind`` selects the model (see :data:`CHANNEL_KINDS`) and ``params``
    holds its keyword arguments as a frozen tuple of pairs (use
    :meth:`ChannelSpec.make` to build one from plain keywords).  A
    ``"compound"`` channel composes stages: a command traverses every stage,
    its delays add up and it is lost if any stage loses it.
    """

    kind: str = "clean"
    params: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in CHANNEL_KINDS:
            raise ConfigurationError(
                f"unknown channel kind {self.kind!r}; available: {sorted(CHANNEL_KINDS)}"
            )

    @classmethod
    def make(cls, kind: str, **params) -> "ChannelSpec":
        """Build a spec from plain keyword parameters."""
        return cls(kind=kind, params=freeze_params(params))

    def options(self) -> dict:
        """Parameters as a plain dict (inverse of :meth:`make`)."""
        return {key: _thaw(value) for key, value in self.params}

    def updated(self, **params) -> "ChannelSpec":
        """A copy with ``params`` merged over the existing parameters."""
        merged = self.options()
        merged.update(params)
        return ChannelSpec.make(self.kind, **merged)

    @cached_property
    def identity_json(self) -> str:
        """:func:`canonical_json` of the kind and parameters, once per instance."""
        return canonical_json(_jsonify(self))

    def describe(self) -> str:
        """Compact one-line rendering, e.g. ``wireless(n_robots=25, ...)``."""
        if self.kind == "compound":
            stages = self.options().get("stages", ())
            inner = " + ".join(stage.describe() for stage in stages)
            return f"compound[{inner}]"
        inner = ", ".join(f"{key}={value}" for key, value in self.params)
        return f"{self.kind}({inner})"


def clean_channel(nominal_delay_ms: float = 1.0) -> ChannelSpec:
    """A lossless channel with a constant nominal delay."""
    return ChannelSpec.make("clean", nominal_delay_ms=nominal_delay_ms)


def wireless_channel(
    n_robots: int = 5,
    probability: float = 0.0,
    duration_slots: int = 0,
    **extra,
) -> ChannelSpec:
    """The 802.11 access-point channel of the Fig. 8 sweep.

    ``probability``/``duration_slots`` parameterise the non-802.11
    interference source; extra keywords are forwarded to
    :class:`repro.wireless.WirelessChannel` (e.g. ``queue_capacity``).
    """
    return ChannelSpec.make(
        "wireless",
        n_robots=n_robots,
        probability=probability,
        duration_slots=duration_slots,
        **extra,
    )


def jammer_channel(**config) -> ChannelSpec:
    """The Gilbert–Elliott bursty jammer of Fig. 10.

    Keywords are :class:`repro.wireless.JammerConfig` fields.
    """
    return ChannelSpec.make("jammer", **config)


def loss_burst_channel(
    burst_length: int,
    n_bursts: int = 5,
    min_gap: int = 60,
    nominal_delay_ms: float = 1.0,
) -> ChannelSpec:
    """The controlled consecutive-loss channel of Fig. 9."""
    return ChannelSpec.make(
        "loss-burst",
        burst_length=burst_length,
        n_bursts=n_bursts,
        min_gap=min_gap,
        nominal_delay_ms=nominal_delay_ms,
    )


def random_loss_channel(loss_probability: float, nominal_delay_ms: float = 1.0) -> ChannelSpec:
    """I.i.d. Bernoulli losses on an otherwise healthy channel."""
    return ChannelSpec.make(
        "random-loss", loss_probability=loss_probability, nominal_delay_ms=nominal_delay_ms
    )


def periodic_loss_channel(
    period: int, burst_length: int, nominal_delay_ms: float = 1.0
) -> ChannelSpec:
    """Deterministic periodic loss bursts (regression-friendly)."""
    return ChannelSpec.make(
        "periodic-loss",
        period=period,
        burst_length=burst_length,
        nominal_delay_ms=nominal_delay_ms,
    )


def trace_channel(delays_ms, cycle_offsets: bool = True) -> ChannelSpec:
    """Replay a recorded per-command delay array (``inf`` marks a loss).

    The trace cycles when the run is longer than the recording; with
    ``cycle_offsets=True`` (default) every repetition starts the replay at a
    seed-derived phase offset, so repeated sessions sample different windows
    of the capture instead of replaying it verbatim.  This is the bridge
    between the synthetic channel models and real packet captures.
    """
    values = tuple(float(d) for d in delays_ms)
    if not values:
        raise ConfigurationError("a trace channel needs at least one recorded delay")
    for value in values:
        if value != value or value < 0.0:  # NaN or negative
            raise ConfigurationError(
                f"trace delays must be >= 0 ms (inf = lost), got {value!r}"
            )
    return ChannelSpec.make("trace", delays_ms=values, cycle_offsets=bool(cycle_offsets))


def markov_interference_channel(
    transition=None,
    delay_means_ms=None,
    loss_probabilities=None,
    start_state: int = 0,
) -> ChannelSpec:
    """``K``-state Markov-modulated delay/loss regimes.

    Defaults model an idle / contended / swamped 2.4 GHz band (see
    :class:`repro.wireless.MarkovChannelConfig`).  Superpose several sources
    with :func:`compound_channel` to express heterogeneous interference whose
    burstiness survives aggregation.
    """
    params: dict = {"start_state": int(start_state)}
    if transition is not None:
        params["transition"] = tuple(tuple(float(p) for p in row) for row in transition)
    if delay_means_ms is not None:
        params["delay_means_ms"] = tuple(float(d) for d in delay_means_ms)
    if loss_probabilities is not None:
        params["loss_probabilities"] = tuple(float(p) for p in loss_probabilities)
    return ChannelSpec.make("markov-interference", **params)


def handover_channel(
    period: int = 250,
    outage: int = 15,
    spike_delay_ms: float = 30.0,
    spike_decay_commands: float = 10.0,
    nominal_delay_ms: float = 2.0,
) -> ChannelSpec:
    """Periodic AP-roaming profile: loss gaps plus decaying delay spikes.

    Keywords are :class:`repro.wireless.HandoverConfig` fields; each
    repetition shifts the schedule by a seed-derived phase offset.
    """
    return ChannelSpec.make(
        "handover",
        period=period,
        outage=outage,
        spike_delay_ms=spike_delay_ms,
        spike_decay_commands=spike_decay_commands,
        nominal_delay_ms=nominal_delay_ms,
    )


def compound_channel(*stages: ChannelSpec) -> ChannelSpec:
    """Superpose several channel models (delays add, losses union)."""
    if len(stages) < 2:
        raise ConfigurationError("a compound channel needs at least two stages")
    return ChannelSpec.make("compound", stages=tuple(stages))


# --------------------------------------------------------------------- foreco
@dataclass(frozen=True)
class ForecoSpec:
    """Hashable mirror of :class:`repro.core.ForecoConfig`.

    ``algorithm_options`` is a frozen tuple of pairs (see
    :meth:`ForecoSpec.make`); :meth:`to_config` materialises the mutable
    runtime configuration.
    """

    command_period_ms: float = 20.0
    tolerance_ms: float = 0.0
    record: int = 10
    train_fraction: float = 0.8
    algorithm: str = "var"
    algorithm_options: tuple = ()
    max_history: int | None = 200_000
    feedback: str = "forecast"
    max_step_rad: float | None = 0.04

    @classmethod
    def make(cls, **kwargs) -> "ForecoSpec":
        """Build a spec, freezing a plain ``algorithm_options`` dict if given."""
        options = kwargs.pop("algorithm_options", None)
        if isinstance(options, dict):
            kwargs["algorithm_options"] = freeze_params(options)
        elif options is not None:
            kwargs["algorithm_options"] = tuple(options)
        return cls(**kwargs)

    @classmethod
    def from_config(cls, config: ForecoConfig) -> "ForecoSpec":
        """Derive a frozen spec from a runtime configuration (the fields share names)."""
        values = {f.name: getattr(config, f.name) for f in fields(cls)}
        return cls.make(**{**values, "algorithm_options": dict(config.algorithm_options)})

    def options(self) -> dict:
        """``algorithm_options`` as a plain dict."""
        return {key: _thaw(value) for key, value in self.algorithm_options}

    def training_identity(self) -> tuple:
        """The fields that determine forecaster training.

        Recovery-only knobs (tolerance, feedback, clamp, history cap) are
        excluded so sweeps over them reuse one fitted model instead of
        refitting identical forecasters.
        """
        return (self.algorithm, self.record, self.algorithm_options, self.train_fraction)

    def to_config(self) -> ForecoConfig:
        """Materialise the runtime :class:`ForecoConfig` (validates values)."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return ForecoConfig(**{**values, "algorithm_options": self.options()})


#: Operator roles a scenario can replay as the *test* stream.
OPERATORS: tuple[str, ...] = ("inexperienced", "experienced", "mix")


# ------------------------------------------------------------------ scenarios
class SpecIdentity:
    """Identity of a frozen spec: one canonical string per instance.

    Spec classes define :meth:`canonical`, which runs at most once per (immutable)
    instance; its :func:`canonical_json` string feeds the hash and the stored form.
    """

    def canonical(self) -> dict:
        """JSON-safe canonical representation (the hashing domain)."""
        raise NotImplementedError

    @cached_property
    def _canonical_json(self) -> str:
        return canonical_json(self.canonical())

    def spec_hash(self) -> str:
        """Stable short hash of the canonical form.

        The ``name`` label is deliberately excluded: renaming a preset
        must not invalidate cached results.
        """
        return self._spec_hash

    @cached_property
    def _spec_hash(self) -> str:
        return hashlib.sha256(self._canonical_json.encode("utf-8")).hexdigest()[:16]

    @cached_property
    def stored_canonical(self) -> dict:
        """:meth:`canonical` as a store shard holds it (``inf`` as ``"Infinity"``).

        Shared by every caller of this instance: read it, never mutate it.
        """
        return json.loads(self._canonical_json, parse_constant=str)


@dataclass(frozen=True)
class ScenarioSpec(SpecIdentity):
    """One fully-specified remote-control scenario.

    Attributes
    ----------
    name:
        Human-readable label (preset name or experiment id); not part of the
        physical configuration but included in reports.
    channel:
        The channel model (see the ``*_channel`` helpers).
    foreco:
        The recovery-engine configuration.
    scale:
        Dataset/repetition sizing (ci / standard / full); a scale name is
        resolved to its :class:`ExperimentScale` on construction.
    operator:
        Which operator's stream is replayed through the channel:
        ``"inexperienced"`` (the paper's test operator), ``"experienced"``,
        or ``"mix"`` — an operator handover halfway through the run.
    seed:
        Master seed; dataset generation and per-repetition channel seeds all
        derive from it deterministically.
    repetitions:
        Number of simulation repetitions (distinct channel realisations).
    run_seconds:
        Replayed stream length; ``None`` uses ``scale.run_seconds``.
    use_pid:
        Execute through the PID joint controller (Fig. 10 mode).
    fallback:
        Robot fallback policy for missing commands (``"hold"`` or
        ``"stop"``).  Part of the spec hash, but it changes no result at
        ``ENGINE_EPOCH`` 6: the baseline replays the last arrived command and
        FoReCo fills every missing slot, so neither ever falls back (the
        session kernel, :class:`~repro.core.BatchedRemoteControlSimulation`,
        takes no fallback).
    """

    name: str = "custom"
    channel: ChannelSpec = field(default_factory=clean_channel)
    foreco: ForecoSpec = field(default_factory=ForecoSpec)
    scale: ExperimentScale = field(default_factory=lambda: get_scale("ci"))
    operator: str = "inexperienced"
    seed: int = 42
    repetitions: int = 1
    run_seconds: float | None = None
    use_pid: bool = False
    fallback: str = "hold"

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", get_scale(self.scale))
        if self.operator not in OPERATORS:
            raise ConfigurationError(
                f"unknown operator {self.operator!r}; available: {sorted(OPERATORS)}"
            )
        if self.fallback not in ("hold", "stop"):
            raise ConfigurationError("fallback must be 'hold' or 'stop'")
        if int(self.repetitions) < 1:
            raise ConfigurationError("repetitions must be >= 1")

    # ------------------------------------------------------------- identity
    def canonical(self) -> dict:
        """JSON-safe canonical representation (the hashing domain)."""
        return {
            "channel": _jsonify(self.channel),
            "foreco": _jsonify(self.foreco),
            "scale": _jsonify(self.scale),
            "operator": self.operator,
            "seed": int(self.seed),
            "repetitions": int(self.repetitions),
            "run_seconds": self.run_seconds,
            "use_pid": bool(self.use_pid),
            "fallback": self.fallback,
        }

    def channel_identity(self) -> dict:
        """The part of the spec that determines the channel realisation.

        Recovery-side knobs (forecaster, tolerance, fallback, PID) are
        excluded on purpose: two specs that differ only in how they *react*
        to the channel see the exact same delay trace, so ablations compare
        like with like.  The command period is included because it
        parameterises the delay samplers.
        """
        return {
            "channel": _jsonify(self.channel),
            "operator": self.operator,
            "scale": _jsonify(self.scale),
            "seed": int(self.seed),
            "run_seconds": self.resolved_run_seconds,
            "command_period_ms": self.foreco.command_period_ms,
        }

    @cached_property
    def channel_identity_split(self) -> tuple[str, str]:
        """:attr:`channel_identity_json` split around its seed value: ``(head, tail)``.

        Specs that differ only in ``seed`` share both parts, so the identity of
        any seed is ``head + str(seed) + tail`` without re-encoding (``json``
        writes an int as its ``str``); fleets seed their operators this way.
        The seed slot is found by encoding a marker in its place; a channel
        that holds the marker itself raises.
        """
        identity = self.channel_identity()
        identity["seed"] = _SEED_MARK
        parts = canonical_json(identity).split(canonical_json(_SEED_MARK))
        if len(parts) != 2:
            raise ConfigurationError(
                f"channel identity holds the seed marker {len(parts) - 1} times, expected once"
            )
        return parts[0], parts[1]

    @cached_property
    def channel_identity_json(self) -> str:
        """:func:`canonical_json` of :meth:`channel_identity`, once per instance."""
        return canonical_json(self.channel_identity())

    # ------------------------------------------------------------ resolving
    @property
    def resolved_run_seconds(self) -> float:
        """The replay length actually used (spec override or scale default)."""
        return float(self.run_seconds) if self.run_seconds is not None else self.scale.run_seconds

    # ------------------------------------------------------------- builders
    def with_(self, **changes) -> "ScenarioSpec":
        """A copy with top-level fields replaced (``scale`` may be a name)."""
        return replace(self, **changes)

    #: A scenario is its own per-operator template (every spec kind has
    #: ``with_template``; preset registries send ``scale``/``seed`` there).
    with_template = with_

    def with_channel(self, **params) -> "ScenarioSpec":
        """A copy with channel parameters merged over the current ones."""
        return replace(self, channel=self.channel.updated(**params))

    def with_foreco(self, **changes) -> "ScenarioSpec":
        """A copy with FoReCo fields replaced (options dicts are frozen)."""
        options = changes.pop("algorithm_options", None)
        foreco = replace(self.foreco, **changes)
        if options is not None:
            foreco = replace(foreco, algorithm_options=freeze_params(dict(options)))
        return replace(self, foreco=foreco)

    def describe(self) -> str:
        """One-line summary used by sweep tables and the CLI."""
        pid = ", pid" if self.use_pid else ""
        return (
            f"{self.name}: {self.channel.describe()} | {self.foreco.algorithm}"
            f"(R={self.foreco.record}) | {self.operator} op, scale={self.scale.name}, "
            f"seed={self.seed}, reps={self.repetitions}{pid}"
        )


def canonical_json(value) -> str:
    """The one canonical encoding: sorted keys, no whitespace (``inf`` as ``Infinity``)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


#: Stand-in for the seed value while :attr:`ScenarioSpec.channel_identity_split` encodes.
_SEED_MARK = "\x00seed\x00"


def _hash_seed(*parts) -> int:
    """32-bit seed from ``parts`` joined with ``"::"`` (every engine's seeding scheme)."""
    return int.from_bytes(hashlib.sha256("::".join(map(str, parts)).encode("utf-8")).digest()[:4], "big")


#: The frozen spec values :func:`_jsonify` renders as the dict of their fields.
_SPEC_VALUES = frozenset({ChannelSpec, ForecoSpec, ExperimentScale})


def _jsonify(value):
    """Render frozen values as JSON-safe structures (a spec value as the dict of its fields).

    The one rendering of channels, FoReCo specs and scales in every identity.
    """
    if isinstance(value, tuple):
        return [_jsonify(v) for v in value]
    if type(value) in _SPEC_VALUES:
        return {f.name: _jsonify(getattr(value, f.name)) for f in fields(value)}
    return value
