"""Named scenario presets.

The registry maps human-friendly names to :class:`ScenarioSpec` values so
experiments, examples and the CLI (``foreco-experiments --scenario jammer``)
share one vocabulary of workloads.  Presets cover the paper's evaluation
conditions plus harsher combinations used by the scaling roadmap:

``clean``
    Healthy channel, no losses — the control condition.
``bursty-loss``
    Controlled consecutive-loss bursts (the Fig. 9 condition).
``jammer``
    Gilbert–Elliott 2.4 GHz jammer with the PID controller in the loop
    (the Fig. 10 condition).
``congested-ap``
    25 robots behind one access point with heavy interference (the worst
    column of the Fig. 8 sweep).
``jammer-congestion``
    The jammer superposed on a congested access point — heterogeneous
    interference the paper's single-cause scenarios do not cover.
``operator-mix``
    An operator handover mid-run (experienced → inexperienced) over a
    moderately interfered channel.
``random-loss``
    Memoryless i.i.d. losses — the baseline the ablation benches compare
    bursty conditions against.
``markov-interference``
    Three-regime Markov-modulated interference (idle / contended / swamped)
    — bursty heterogeneous traffic the single-cause presets cannot express.
``handover``
    Periodic AP-roaming outages with decaying delay spikes.
``trace-replay``
    Replay of a recorded delay/loss trace (a congestion ramp with outages),
    cycled with per-repetition phase offsets — the bridge to real captures.
``adversarial-compound-3a9fdc`` / ``adversarial-jammer-391374``
    Worst cases discovered by the coverage-guided scenario search
    (:func:`repro.scenarios.search.run_search`) and pinned here as standing
    regression presets.  Their names carry the spec-hash prefix of the
    discovered spec; the knob values are frozen at full precision so the
    hash — and therefore any memoized store entry — stays stable.

Use :func:`register_scenario` to add project-specific presets.
"""

from __future__ import annotations

from typing import Any, ClassVar, Generic, Protocol, TypeVar

from ..errors import ConfigurationError
from .spec import (
    ScenarioSpec,
    clean_channel,
    compound_channel,
    handover_channel,
    jammer_channel,
    loss_burst_channel,
    markov_interference_channel,
    random_loss_channel,
    trace_channel,
    wireless_channel,
)


class _Preset(Protocol):
    """What a :class:`Registry` needs of a spec kind (a frozen dataclass)."""

    __dataclass_fields__: ClassVar[dict[str, Any]]

    @property
    def name(self) -> str: ...

    def with_(self, **changes: Any) -> Any: ...

    def with_template(self, **changes: Any) -> Any: ...


SpecT = TypeVar("SpecT", bound=_Preset)


class Registry(Generic[SpecT]):
    """Named presets of one spec kind (scenario, fleet, service or plan).

    ``kind`` names the kind in messages, ``spec_type`` is its spec class,
    ``default_name`` is the spec's placeholder name (never registrable) and
    ``aliases`` maps alternate spellings to registered names.
    """

    def __init__(
        self,
        kind: str,
        spec_type: type[SpecT],
        default_name: str,
        aliases: dict[str, str] | None = None,
    ) -> None:
        self.kind = kind
        self.spec_type = spec_type
        self.default_name = default_name
        self.aliases = dict(aliases or {})
        self._presets: dict[str, tuple[SpecT, str]] = {}

    def register(self, spec: SpecT, description: str = "", overwrite: bool = False) -> None:
        """Register a preset under ``spec.name``.

        Raises :class:`~repro.errors.ConfigurationError` when the name is
        taken and ``overwrite`` is false.
        """
        name = spec.name
        if not name or name == self.default_name:
            raise ConfigurationError(f"a registered {self.kind} needs a distinctive name")
        if name in self._presets and not overwrite:
            raise ConfigurationError(f"{self.kind} {name!r} is already registered")
        self._presets[name] = (spec, description)

    def get(self, name: str, scale=None, seed: int | None = None, **overrides) -> SpecT:
        """Fetch a preset by name, optionally overriding its fields.

        ``overrides`` replace top-level fields of the spec (e.g.
        ``repetitions=10``, ``operators=8``, ``policy=...``, ``budget=4``);
        a keyword that is not a field raises
        :class:`~repro.errors.ConfigurationError` naming the valid ones.
        ``scale`` (a name such as ``"ci"``, or an :class:`ExperimentScale`)
        and ``seed`` go to the scenario the preset runs — the spec itself
        for a scenario, the per-operator template for a fleet, service or
        plan — through its ``with_template``.
        """
        try:
            spec, _ = self._presets[self.aliases.get(name, name)]
        except KeyError as exc:
            raise ConfigurationError(f"unknown {self.kind} {name!r}; available: {self.names()}") from exc
        spec = self.override(spec, **overrides)
        template: dict[str, Any] = {}
        if scale is not None:
            template["scale"] = scale
        if seed is not None:
            template["seed"] = int(seed)
        return spec.with_template(**template) if template else spec

    def override(self, spec: SpecT, **overrides) -> SpecT:
        """``spec`` with top-level fields replaced, each checked to be a field."""
        if not overrides:
            return spec
        valid = sorted(self.spec_type.__dataclass_fields__)
        unknown = sorted(set(overrides) - set(valid))
        if unknown:
            raise ConfigurationError(f"unknown {self.kind} field(s) {unknown}; valid fields: {valid}")
        return spec.with_(**overrides)

    def resolve(self, spec_or_name: SpecT | str) -> SpecT:
        """The spec itself, or the preset a name fetches (see :meth:`get`)."""
        spec = self.get(spec_or_name) if isinstance(spec_or_name, str) else spec_or_name
        if not isinstance(spec, self.spec_type):
            raise ConfigurationError(
                f"expected a {self.spec_type.__name__} or a {self.kind} preset name, "
                f"got {type(spec).__name__}"
            )
        return spec

    def names(self) -> list[str]:
        """Sorted names of the registered presets."""
        return sorted(self._presets)

    def catalog(self) -> dict[str, str]:
        """Mapping of preset name to its one-line description."""
        return {name: description for name, (_, description) in sorted(self._presets.items())}


#: The scenario presets.  ``jammer+congestion`` is an alternate spelling.
SCENARIOS: Registry[ScenarioSpec] = Registry(
    "scenario", ScenarioSpec, "custom", aliases={"jammer+congestion": "jammer-congestion"}
)
register_scenario = SCENARIOS.register
get_scenario = SCENARIOS.get
scenario_names = SCENARIOS.names
scenario_catalog = SCENARIOS.catalog


def _register_builtins() -> None:
    register_scenario(
        ScenarioSpec(name="clean", channel=clean_channel()),
        "healthy channel, no losses (control condition)",
    )
    register_scenario(
        ScenarioSpec(name="bursty-loss", channel=loss_burst_channel(burst_length=10)),
        "controlled consecutive-loss bursts (Fig. 9 condition)",
    )
    register_scenario(
        ScenarioSpec(name="jammer", channel=jammer_channel(), use_pid=True),
        "Gilbert-Elliott 2.4 GHz jammer with the PID in the loop (Fig. 10)",
    )
    register_scenario(
        ScenarioSpec(
            name="congested-ap",
            channel=wireless_channel(n_robots=25, probability=0.05, duration_slots=100),
        ),
        "25 robots behind one AP with heavy interference (worst Fig. 8 cell)",
    )
    register_scenario(
        ScenarioSpec(
            name="jammer-congestion",
            channel=compound_channel(
                wireless_channel(n_robots=15, probability=0.025, duration_slots=50),
                jammer_channel(),
            ),
        ),
        "jammer superposed on a congested AP (heterogeneous interference)",
    )
    register_scenario(
        ScenarioSpec(
            name="operator-mix",
            operator="mix",
            channel=wireless_channel(n_robots=15, probability=0.025, duration_slots=50),
        ),
        "operator handover mid-run over a moderately interfered channel",
    )
    register_scenario(
        ScenarioSpec(name="random-loss", channel=random_loss_channel(loss_probability=0.1)),
        "memoryless i.i.d. command losses (ablation baseline)",
    )
    register_scenario(
        ScenarioSpec(name="markov-interference", channel=markov_interference_channel()),
        "3-regime Markov-modulated interference (idle/contended/swamped band)",
    )
    register_scenario(
        ScenarioSpec(name="handover", channel=handover_channel()),
        "periodic AP-roaming outages with decaying delay spikes",
    )
    register_scenario(
        ScenarioSpec(name="trace-replay", channel=trace_channel(_recorded_congestion_trace())),
        "replayed delay/loss recording (congestion ramp + outage), phase-cycled",
    )
    # Search-discovered adversarial presets.  Found by
    # ``run_search(budget=48, seed=7)`` over the default grammar; the knob
    # values (including the long floats) are the exact discovered points and
    # must not be rounded, or the spec hash in the name goes stale.
    register_scenario(
        ScenarioSpec(
            name="adversarial-compound-3a9fdc",
            channel=compound_channel(
                wireless_channel(n_robots=30, probability=0.06, duration_slots=120),
                jammer_channel(
                    p_good_to_jammed=0.1,
                    p_jammed_to_good=0.08,
                    delay_jammed_ms=75.47672538652341,
                ),
            ),
            repetitions=3,
            run_seconds=6.0,
        ),
        "search-discovered worst case (score 0.785, seed 7, budget 48): "
        "saturated AP under a sticky jammer",
    )
    register_scenario(
        ScenarioSpec(
            name="adversarial-jammer-391374",
            channel=jammer_channel(
                p_good_to_jammed=0.05396049843027815,
                p_jammed_to_good=0.03,
                delay_jammed_ms=80.0,
            ),
            repetitions=3,
            run_seconds=6.0,
        ),
        "search-discovered worst case (score 0.674, seed 7, budget 48): "
        "slow-recovery deep jammer",
    )


def _recorded_congestion_trace() -> tuple[float, ...]:
    """Synthetic stand-in for a measured capture: ramp, outage, recovery.

    Delay climbs from 2 ms to ~22 ms as the medium congests, the link then
    drops for 10 commands and recovers through a short elevated-delay tail —
    a burst length in the recoverable band of the Fig. 9 analysis.  Real
    packet captures plug into the same ``trace`` channel kind.
    """
    ramp = [2.0 + 0.25 * step for step in range(80)]
    outage = [float("inf")] * 10
    recovery = [12.0, 8.0, 5.0, 3.0, 2.5]
    steady = [2.0] * 25
    return tuple(ramp + outage + recovery + steady)


_register_builtins()
