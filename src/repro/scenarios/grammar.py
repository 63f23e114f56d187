"""Combinator grammar over scenario parameters for coverage-guided search.

The preset registry names a dozen hand-picked workloads; this module spans
the space *between* them.  A :class:`ScenarioGrammar` is a bounded combinator
grammar over :class:`~repro.scenarios.spec.ChannelSpec` /
:class:`~repro.scenarios.spec.ForecoSpec` parameters — channel kinds with
per-kind knob grids (loss/jammer knobs, Markov regime matrices, handover
profiles), compound stage compositions, and a couple of recovery-side axes —
from which candidates are produced two ways:

* **bounded enumeration** (:meth:`ScenarioGrammar.enumerate_specs`): the
  cross-product of every kind's knob grid, interleaved round-robin across
  kinds so a small budget still samples diverse channel families, in a
  deterministic order;
* **random-neighborhood expansion** (:meth:`ScenarioGrammar.random_spec`,
  :meth:`ScenarioGrammar.neighbors`): draw a fresh point uniformly inside
  the knob bounds, or perturb one knob of an existing candidate within its
  bounds — the refinement move of the search harness in
  :mod:`repro.scenarios.search`.

Every candidate is a frozen, hashable
:class:`~repro.scenarios.spec.ScenarioSpec`, so the search memoizes probes
through the content-addressed :class:`~repro.scenarios.store.ResultStore`
and stays bit-deterministic across worker counts.  Invalid
grammar configurations and out-of-range knobs raise
:class:`~repro.errors.ConfigurationError` — never a bare ``ValueError`` —
matching the spec layer's validation contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from .spec import (
    ChannelSpec,
    ScenarioSpec,
    compound_channel,
    handover_channel,
    jammer_channel,
    loss_burst_channel,
    markov_interference_channel,
    periodic_loss_channel,
    random_loss_channel,
    wireless_channel,
)

#: Channel kinds the grammar composes over.  ``clean`` and ``trace`` are
#: deliberately excluded: the search targets adversarial conditions, and a
#: trace channel is parameterised by a recording, not by knobs.
GRAMMAR_KINDS: tuple[str, ...] = (
    "wireless",
    "jammer",
    "loss-burst",
    "periodic-loss",
    "random-loss",
    "markov-interference",
    "handover",
    "compound",
)

#: Primitive kinds a compound candidate may compose (two distinct stages).
COMPOUND_STAGE_KINDS: tuple[str, ...] = (
    "wireless",
    "jammer",
    "markov-interference",
    "handover",
)


@dataclass(frozen=True)
class Knob:
    """One bounded numeric channel parameter of a grammar kind.

    Attributes
    ----------
    name:
        Channel parameter name the knob maps onto.
    grid:
        Values used by bounded enumeration (small, hand-bounded).
    low / high:
        Inclusive mutation bounds for neighborhood expansion.
    integer:
        Round mutated values to integers (e.g. burst lengths, robot counts).
    """

    name: str
    grid: tuple
    low: float
    high: float
    integer: bool = False

    def jitter(self, value: float, rng: np.random.Generator) -> float:
        """One mutated value near ``value``, clamped into ``[low, high]``.

        The step is a Gaussian with 15 % of the bound span as its scale;
        integer knobs are rounded and nudged by one when the rounded step
        would be a no-op, so a mutation always moves the knob when the
        bounds leave it any room.
        """
        span = float(self.high - self.low)
        mutated = float(value) + float(rng.normal(0.0, 0.15 * span))
        mutated = min(float(self.high), max(float(self.low), mutated))
        if self.integer:
            mutated = float(round(mutated))
            if mutated == float(value):
                step = 1.0 if rng.random() < 0.5 else -1.0
                mutated = min(float(self.high), max(float(self.low), mutated + step))
        return mutated

    def sample(self, rng: np.random.Generator) -> float:
        """One value drawn uniformly inside the knob bounds."""
        value = float(rng.uniform(float(self.low), float(self.high)))
        return float(round(value)) if self.integer else value


#: Per-kind knob tables: enumeration grids double as mutation bounds.
_KIND_KNOBS: dict[str, tuple[Knob, ...]] = {
    "wireless": (
        Knob("n_robots", (15, 30), 5, 35, integer=True),
        Knob("probability", (0.02, 0.06), 0.0, 0.08),
        Knob("duration_slots", (60, 120), 10, 150, integer=True),
    ),
    "jammer": (
        Knob("p_good_to_jammed", (0.04, 0.10), 0.01, 0.2),
        Knob("p_jammed_to_good", (0.03, 0.08), 0.02, 0.3),
        Knob("delay_jammed_ms", (40.0, 80.0), 10.0, 120.0),
    ),
    "loss-burst": (
        Knob("burst_length", (5, 10, 20), 2, 45, integer=True),
        Knob("n_bursts", (2, 3), 1, 4, integer=True),
    ),
    "periodic-loss": (
        Knob("period", (50, 120), 20, 200, integer=True),
        Knob("burst_length", (10, 30), 1, 45, integer=True),
    ),
    "random-loss": (
        Knob("loss_probability", (0.1, 0.25, 0.4), 0.01, 0.5),
    ),
    "handover": (
        Knob("period", (120, 250), 60, 400, integer=True),
        Knob("outage", (15, 40), 2, 60, integer=True),
        Knob("spike_delay_ms", (30.0, 60.0), 5.0, 90.0),
    ),
}

#: Burst spacing of grammar loss-burst channels, and the run length (in
#: commands) every grammar candidate must stay placeable in: the default
#: base runs 6 s at 50 Hz.  The loss-burst knob bounds are sized so the
#: worst corner (4 bursts of 45 with gap 30) fits exactly.
_LOSS_BURST_MIN_GAP = 30
_GRAMMAR_MIN_COMMANDS = 300

#: Markov-regime axes: diagonal stickiness of the transition matrix and a
#: severity factor scaling the contended/swamped regime delays.
_MARKOV_STICKINESS = Knob("stickiness", (0.9, 0.97), 0.6, 0.99)
_MARKOV_SEVERITY = Knob("severity", (1.0, 2.5), 0.5, 4.0)

#: Recovery-side (ForecoSpec) mutation axes for neighborhood expansion.
_FORECO_KNOBS: tuple[Knob, ...] = (
    Knob("record", (10, 5), 2, 30, integer=True),
    Knob("tolerance_ms", (0.0,), 0.0, 40.0),
)

#: ForecoSpec variants crossed into the enumerated frontier (the first is
#: the base spec's own configuration).
_FORECO_VARIANTS: tuple[dict, ...] = ({}, {"record": 5})


def _markov_channel(stickiness: float, severity: float) -> ChannelSpec:
    """A three-regime Markov channel from the grammar's two Markov axes.

    ``stickiness`` is the shared diagonal of the row-stochastic transition
    matrix (off-diagonal mass split evenly); ``severity`` scales the
    contended/swamped regime delays of the default 2.4 GHz band model.
    """
    s = float(stickiness)
    if not 0.0 < s < 1.0:
        raise ConfigurationError(f"markov stickiness must be in (0, 1), got {s!r}")
    f = float(severity)
    if f <= 0.0:
        raise ConfigurationError(f"markov severity must be > 0, got {f!r}")
    off = (1.0 - s) / 2.0
    transition = (
        (s, off, off),
        (off, s, off),
        (off, off, s),
    )
    delays = (2.0, min(200.0, 12.0 * f), min(200.0, 45.0 * f))
    return markov_interference_channel(
        transition=transition,
        delay_means_ms=delays,
        loss_probabilities=(0.002, 0.05, 0.6),
    )


def _primitive_channel(kind: str, values: dict) -> ChannelSpec:
    """Materialise one primitive (non-compound) channel from knob values."""
    if kind == "markov-interference":
        return _markov_channel(values["stickiness"], values["severity"])
    builders = {
        "wireless": wireless_channel,
        "jammer": jammer_channel,
        "loss-burst": loss_burst_channel,
        "periodic-loss": periodic_loss_channel,
        "random-loss": random_loss_channel,
        "handover": handover_channel,
    }
    try:
        builder = builders[kind]
    except KeyError as exc:
        raise ConfigurationError(f"unknown grammar kind {kind!r}") from exc
    cast = {
        knob.name: (int(values[knob.name]) if knob.integer else float(values[knob.name]))
        for knob in _KIND_KNOBS[kind]
    }
    # Cross-knob feasibility: some injectors validate against the run length
    # or between knobs only when the scenario executes, so normalise here and
    # keep every grammar candidate runnable (base runs are >= 300 commands).
    if kind == "loss-burst":
        cast["min_gap"] = _LOSS_BURST_MIN_GAP
        capacity = _GRAMMAR_MIN_COMMANDS // (cast["burst_length"] + _LOSS_BURST_MIN_GAP)
        cast["n_bursts"] = max(1, min(cast["n_bursts"], capacity))
    elif kind == "periodic-loss":
        cast["burst_length"] = min(cast["burst_length"], cast["period"] - 1)
    elif kind == "handover":
        cast["outage"] = min(cast["outage"], cast["period"] - 1)
    return builder(**cast)


def _mid_values(kind: str) -> dict:
    """The middle-of-grid knob values for a kind (compound stage prototype)."""
    if kind == "markov-interference":
        return {
            "stickiness": _MARKOV_STICKINESS.grid[len(_MARKOV_STICKINESS.grid) // 2],
            "severity": _MARKOV_SEVERITY.grid[len(_MARKOV_SEVERITY.grid) // 2],
        }
    return {knob.name: knob.grid[len(knob.grid) // 2] for knob in _KIND_KNOBS[kind]}


def _kind_knobs(kind: str) -> tuple[Knob, ...]:
    """The mutation knobs of one primitive kind."""
    if kind == "markov-interference":
        return (_MARKOV_STICKINESS, _MARKOV_SEVERITY)
    return _KIND_KNOBS[kind]


def _enumerate_kind(kind: str):
    """Yield every grid point of one kind's knob cross-product, in order."""
    if kind == "compound":
        for i, first in enumerate(COMPOUND_STAGE_KINDS):
            for second in COMPOUND_STAGE_KINDS[i + 1:]:
                yield compound_channel(
                    _primitive_channel(first, _mid_values(first)),
                    _primitive_channel(second, _mid_values(second)),
                )
        return
    knobs = _kind_knobs(kind)
    grids = [knob.grid for knob in knobs]
    indices = [0] * len(grids)
    while True:
        values = {knob.name: grid[i] for knob, grid, i in zip(knobs, grids, indices)}
        yield _primitive_channel(kind, values)
        for axis in range(len(grids) - 1, -1, -1):
            indices[axis] += 1
            if indices[axis] < len(grids[axis]):
                break
            indices[axis] = 0
        else:
            return


def _mutate_primitive(channel: ChannelSpec, rng: np.random.Generator) -> ChannelSpec:
    """Perturb one knob of a primitive channel within its grammar bounds."""
    kind = channel.kind
    knobs = _kind_knobs(kind)
    knob = knobs[int(rng.integers(len(knobs)))]
    if kind == "markov-interference":
        options = channel.options()
        transition = options["transition"]
        stickiness = float(np.mean([row[i] for i, row in enumerate(transition)]))
        severity = float(options["delay_means_ms"][1]) / 12.0
        values = {"stickiness": stickiness, "severity": severity}
        values[knob.name] = knob.jitter(values[knob.name], rng)
        return _markov_channel(values["stickiness"], values["severity"])
    values = channel.options()
    values[knob.name] = knob.jitter(float(values[knob.name]), rng)
    return _primitive_channel(kind, values)


class ScenarioGrammar:
    """Bounded combinator grammar producing frozen, hashable scenario specs.

    Parameters
    ----------
    base:
        Template the grammar grafts channels onto; its scale, seed and
        repetition count bound the cost of one probe.  The default keeps a
        probe in the sub-second range (CI scale, 3 repetitions, 6 s runs).
    kinds:
        Channel kinds to compose over, a subset of :data:`GRAMMAR_KINDS`
        (default: all of them).  Unknown kinds raise
        :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(
        self,
        base: ScenarioSpec | None = None,
        kinds: tuple[str, ...] | None = None,
    ) -> None:
        if base is None:
            base = ScenarioSpec(name="grammar", repetitions=3, run_seconds=6.0)
        if not isinstance(base, ScenarioSpec):
            raise ConfigurationError("grammar base must be a ScenarioSpec")
        self.base = base
        kinds = tuple(kinds) if kinds is not None else GRAMMAR_KINDS
        unknown = [kind for kind in kinds if kind not in GRAMMAR_KINDS]
        if unknown:
            raise ConfigurationError(
                f"unknown grammar kind(s) {unknown!r}; available: {sorted(GRAMMAR_KINDS)}"
            )
        if not kinds:
            raise ConfigurationError("a grammar needs at least one channel kind")
        self.kinds = kinds

    # ------------------------------------------------------------ enumeration
    def _spec_from_channel(self, channel: ChannelSpec, foreco_changes: dict) -> ScenarioSpec:
        """Graft a channel (and optional foreco overrides) onto the base spec."""
        spec = self.base.with_(channel=channel, name=f"grammar-{channel.kind}")
        if foreco_changes:
            spec = spec.with_foreco(**foreco_changes)
        return spec

    def enumerate_specs(self, limit: int | None = None) -> list[ScenarioSpec]:
        """The bounded enumerated frontier, in a deterministic order.

        Kinds are interleaved round-robin (one grid point per kind per
        round) so truncating with ``limit`` still samples every channel
        family; the full frontier crosses each channel grid with the
        :data:`_FORECO_VARIANTS` recovery-side variants.  ``limit`` must be
        positive when given.
        """
        if limit is not None and int(limit) < 1:
            raise ConfigurationError("enumeration limit must be >= 1")
        specs: list[ScenarioSpec] = []
        for foreco_changes in _FORECO_VARIANTS:
            generators = [_enumerate_kind(kind) for kind in self.kinds]
            while generators:
                still_open = []
                for generator in generators:
                    channel = next(generator, None)
                    if channel is None:
                        continue
                    specs.append(self._spec_from_channel(channel, foreco_changes))
                    if limit is not None and len(specs) >= int(limit):
                        return specs
                    still_open.append(generator)
                generators = still_open
        return specs

    # ------------------------------------------------------------- expansion
    def random_spec(self, rng: np.random.Generator) -> ScenarioSpec:
        """One candidate drawn uniformly inside the grammar's knob bounds."""
        kind = self.kinds[int(rng.integers(len(self.kinds)))]
        if kind == "compound":
            first, second = rng.choice(len(COMPOUND_STAGE_KINDS), size=2, replace=False)
            stages = [COMPOUND_STAGE_KINDS[int(first)], COMPOUND_STAGE_KINDS[int(second)]]
            channel = compound_channel(
                *[
                    _primitive_channel(
                        stage,
                        {knob.name: knob.sample(rng) for knob in _kind_knobs(stage)},
                    )
                    for stage in stages
                ]
            )
        else:
            values = {knob.name: knob.sample(rng) for knob in _kind_knobs(kind)}
            channel = _primitive_channel(kind, values)
        return self._spec_from_channel(channel, {})

    def neighbors(
        self, spec: ScenarioSpec, rng: np.random.Generator, count: int = 4
    ) -> list[ScenarioSpec]:
        """``count`` candidates one knob-perturbation away from ``spec``.

        Each neighbor perturbs exactly one knob: with probability 1/4 a
        recovery-side axis (:data:`_FORECO_KNOBS`), otherwise a channel
        knob of the spec's kind (for compounds, one knob of one stage).
        Perturbations are clamped into the grammar bounds, so a neighbor of
        a valid candidate is always a valid candidate.
        """
        count = int(count)
        if count < 0:
            raise ConfigurationError("neighbor count must be >= 0")
        if spec.channel.kind not in GRAMMAR_KINDS:
            raise ConfigurationError(
                f"cannot expand around channel kind {spec.channel.kind!r}; "
                f"grammar kinds: {sorted(GRAMMAR_KINDS)}"
            )
        out: list[ScenarioSpec] = []
        for _ in range(count):
            if rng.random() < 0.25:
                knob = _FORECO_KNOBS[int(rng.integers(len(_FORECO_KNOBS)))]
                current = float(getattr(spec.foreco, knob.name))
                mutated = knob.jitter(current, rng)
                if knob.integer:
                    mutated = int(mutated)
                out.append(spec.with_foreco(**{knob.name: mutated}))
                continue
            channel = spec.channel
            if channel.kind == "compound":
                stages = list(channel.options()["stages"])
                index = int(rng.integers(len(stages)))
                stages[index] = _mutate_primitive(stages[index], rng)
                mutated_channel = compound_channel(*stages)
            else:
                mutated_channel = _mutate_primitive(channel, rng)
            out.append(spec.with_(channel=mutated_channel))
        return out
