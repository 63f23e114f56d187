"""Declarative fleet specifications.

A :class:`FleetSpec` scales the scenario vocabulary from *one* teleoperation
session to an **operated service**: ``N`` concurrent operators, each running
a session described by a shared :class:`~repro.scenarios.ScenarioSpec`
template, arriving over time (all at once, a Poisson process, or a diurnal
load curve) and contending for a small set of access points.  Like the
session spec it generalises, a fleet spec is a frozen, hashable value
object:

* equal specs produce identical results, so the
  :class:`~repro.fleet.engine.FleetEngine` caches fleets by
  :meth:`FleetSpec.spec_hash`;
* the hash is also the content address under which fleet results persist in
  the :class:`~repro.scenarios.ResultStore` (same epoch scheme as session
  results — see :mod:`repro.fleet.engine`);
* capacity-planning sweeps are just lists of fleet specs, which the
  :class:`~repro.scenarios.SweepExecutor` fans out like any other sweep.

The arrival process draws its randomness through
:mod:`repro.des.distributions` (exponential inter-arrival gaps, uniform
thinning for the diurnal curve) with seeds derived from the spec content,
so fleets are deterministic regardless of worker count or execution order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ..des.distributions import Exponential, UniformDistribution
from ..errors import ConfigurationError
from ..scenarios.spec import ScenarioSpec, SpecIdentity, _hash_seed, canonical_json
from ..wireless.superposition import TAIL_KINDS

#: Session arrival processes understood by the fleet engine.
ARRIVAL_KINDS: tuple[str, ...] = ("simultaneous", "poisson", "diurnal")

#: One-line summary per arrival kind (rendered into the docs reference).
ARRIVAL_KIND_SUMMARIES: dict[str, str] = {
    "simultaneous": "every operator starts at t=0 (worst-case synchronised load)",
    "poisson": "memoryless session arrivals at a constant rate (sessions/s)",
    "diurnal": "non-homogeneous Poisson arrivals following a sinusoidal load curve",
}

#: Simulation tiers understood by the fleet engines.
TIER_KINDS: tuple[str, ...] = ("exact", "hybrid")

#: One-line summary per simulation tier (rendered into the docs reference).
TIER_KIND_SUMMARIES: dict[str, str] = {
    "exact": "every admitted session through the vectorized Lindley backlog",
    "hybrid": "hot APs exact, cold APs via the analytic superposition model",
}


def _coerce_int(name: str, value) -> int:
    """``int(value)`` that fails as a :class:`ConfigurationError`, not ValueError.

    Non-integral values (e.g. ``aps=2.5``) are rejected rather than silently
    truncated.
    """
    try:
        result = int(value)
        exact = float(value) == float(result)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from exc
    if not exact:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return result


def _coerce_float(name: str, value) -> float:
    """``float(value)`` that fails as a :class:`ConfigurationError`, not ValueError."""
    try:
        result = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be a number, got {value!r}") from exc
    if math.isnan(result):
        raise ConfigurationError(f"{name} must not be NaN")
    return result


@dataclass(frozen=True)
class FleetSpec(SpecIdentity):
    """One fully-specified multi-operator service workload.

    Attributes
    ----------
    name:
        Human-readable label (preset name); not part of the physical
        configuration and excluded from :meth:`spec_hash`.
    template:
        The per-operator :class:`~repro.scenarios.ScenarioSpec`: channel
        model, FoReCo configuration, operator role, scale, seed and
        repetition count.  Operator 0 runs the template verbatim (same seed,
        same channel realisations); operators ``i > 0`` derive
        hash-decorrelated channel seeds from it.  All operators replay the
        template's command stream and share its trained forecaster — the
        fleet axis varies the *channel*, exactly like repetitions do.
    operators:
        Operator population ``N`` (sessions that try to start).
    aps:
        Number of access points; operator ``i`` is statically assigned to AP
        ``i % aps``.
    ap_capacity:
        Admission limit: a session whose AP already serves ``ap_capacity``
        concurrent sessions at its arrival time is **dropped** (counted in
        :attr:`~repro.fleet.engine.FleetResult.dropped_sessions`, never
        simulated).
    ap_service_ms:
        Air time one delivered command occupies its AP for, in ms.  This is
        the coupling constant of the shared-AP backlog: with ``m`` active
        operators on one AP the per-slot demand is ``m * ap_service_ms``
        against a budget of one command period, and demand beyond the budget
        accumulates as backlog every contending command must wait out.  Keep
        it below the template's ``command_period_ms`` so a lone operator
        never queues behind itself (the single-operator bit-equality
        contract, see :mod:`repro.fleet.engine`).
    arrival:
        Session arrival process (see :data:`ARRIVAL_KINDS`).
    arrival_rate_hz:
        Mean session arrival rate in sessions/second for the ``"poisson"``
        and ``"diurnal"`` processes (ignored by ``"simultaneous"``).
    diurnal_period_s / diurnal_amplitude:
        Shape of the ``"diurnal"`` load curve: the instantaneous rate is
        ``arrival_rate_hz * (1 + diurnal_amplitude * sin(2*pi*t /
        diurnal_period_s))``, sampled by thinning against the peak rate.
    tier:
        Simulation tier (see :data:`TIER_KINDS`).  ``"exact"`` runs every
        admitted session through the vectorized Lindley backlog;
        ``"hybrid"`` classifies each AP hot or cold with the Bianchi
        saturation score (:func:`repro.wireless.bianchi.saturation_score`)
        and services cold APs with the analytic superposition model —
        see :mod:`repro.fleet.hybrid`.  The tier selects an execution
        strategy over the *same* workload: arrival times and channel
        realisations are derived from :meth:`workload_identity`, which
        excludes the tier knobs, so a hybrid fleet and its exact twin see
        identical arrivals and channels.
    hot_threshold:
        Saturation score in ``(0, 1]`` at or above which an AP is
        classified hot (simulated exactly) by the hybrid tier.
    cold_tail / cold_tail_index:
        Tail family (``"gaussian"`` or ``"heavy"``) and Pareto shape of the
        cold-AP superposition model — see
        :class:`repro.wireless.superposition.SuperpositionModel`.
    """

    name: str = "fleet"
    template: ScenarioSpec = field(default_factory=ScenarioSpec)
    operators: int = 4
    aps: int = 1
    ap_capacity: int = 8
    ap_service_ms: float = 6.0
    arrival: str = "simultaneous"
    arrival_rate_hz: float = 0.5
    diurnal_period_s: float = 240.0
    diurnal_amplitude: float = 0.8
    tier: str = "exact"
    hot_threshold: float = 0.5
    cold_tail: str = "gaussian"
    cold_tail_index: float = 3.0

    def __post_init__(self) -> None:
        """Validate the population, topology, arrival-process and tier fields.

        Every violation — including non-numeric field values, zero-capacity
        APs, empty operator populations and tier thresholds outside
        ``(0, 1]`` — raises :class:`~repro.errors.ConfigurationError`, never
        a bare ``ValueError`` or ``ZeroDivisionError``.
        """
        if not isinstance(self.template, ScenarioSpec):
            raise ConfigurationError("FleetSpec.template must be a ScenarioSpec")
        for int_field in ("operators", "aps", "ap_capacity"):
            object.__setattr__(self, int_field, _coerce_int(int_field, getattr(self, int_field)))
        for float_field in ("ap_service_ms", "hot_threshold", "cold_tail_index"):
            object.__setattr__(self, float_field, _coerce_float(float_field, getattr(self, float_field)))
        if self.operators < 1:
            raise ConfigurationError(
                "a fleet needs at least one operator (empty operator populations "
                "are not a valid workload)"
            )
        if self.aps < 1:
            raise ConfigurationError("a fleet needs at least one access point")
        if self.ap_capacity < 1:
            raise ConfigurationError("ap_capacity must be >= 1 (zero-capacity APs admit nobody)")
        if self.ap_service_ms <= 0.0:
            raise ConfigurationError("ap_service_ms must be > 0")
        if self.arrival not in ARRIVAL_KINDS:
            raise ConfigurationError(
                f"unknown arrival kind {self.arrival!r}; available: {sorted(ARRIVAL_KINDS)}"
            )
        if self.arrival != "simultaneous" and _coerce_float("arrival_rate_hz", self.arrival_rate_hz) <= 0.0:
            raise ConfigurationError("arrival_rate_hz must be > 0 for timed arrivals")
        if _coerce_float("diurnal_period_s", self.diurnal_period_s) <= 0.0:
            raise ConfigurationError("diurnal_period_s must be > 0")
        if not 0.0 <= _coerce_float("diurnal_amplitude", self.diurnal_amplitude) <= 1.0:
            raise ConfigurationError("diurnal_amplitude must be in [0, 1]")
        if self.tier not in TIER_KINDS:
            raise ConfigurationError(
                f"unknown fleet tier {self.tier!r}; available: {sorted(TIER_KINDS)}"
            )
        if not 0.0 < self.hot_threshold <= 1.0:
            raise ConfigurationError("hot_threshold must be in (0, 1]")
        if self.cold_tail not in TAIL_KINDS:
            raise ConfigurationError(
                f"unknown cold_tail {self.cold_tail!r}; available: {sorted(TAIL_KINDS)}"
            )
        if self.cold_tail_index <= 1.0:
            raise ConfigurationError("cold_tail_index must be > 1 (finite-mean Pareto)")

    # --------------------------------------------------------------- identity
    #: Record kind this spec stores/loads under in a ResultStore.
    store_kind = "fleet"

    def canonical(self) -> dict:
        """JSON-safe canonical representation (the hashing domain).

        Includes the simulation-tier knobs: an exact and a hybrid run of the
        same workload are *different results* (the hybrid one is an
        approximation) and must occupy different store addresses.
        """
        payload = self.workload_identity()
        payload["tier"] = {
            "kind": self.tier,
            "hot_threshold": float(self.hot_threshold),
            "cold_tail": self.cold_tail,
            "cold_tail_index": float(self.cold_tail_index),
        }
        return payload

    def workload_identity(self) -> dict:
        """The canonical representation *minus* the tier knobs.

        This is the randomness domain: arrival times
        (:func:`arrival_seed`) derive from it, so a hybrid fleet and its
        exact twin realise identical arrivals (and, since channel seeds
        come from the template, identical channels) — the property the
        hybrid-vs-exact error gate measures against.  The template entry
        decodes the template's cached canonical string (``inf`` stays a float).
        """
        return {
            "kind": "fleet",
            "template": json.loads(self.template._canonical_json),
            "operators": int(self.operators),
            "aps": int(self.aps),
            "ap_capacity": int(self.ap_capacity),
            "ap_service_ms": float(self.ap_service_ms),
            "arrival": {
                "kind": self.arrival,
                "rate_hz": float(self.arrival_rate_hz),
                "diurnal_period_s": float(self.diurnal_period_s),
                "diurnal_amplitude": float(self.diurnal_amplitude),
            },
        }

    @cached_property
    def workload_identity_json(self) -> str:
        """:func:`canonical_json` of :meth:`workload_identity`, once per instance."""
        return canonical_json(self.workload_identity())

    # ------------------------------------------------------------ convenience
    @property
    def channel(self):
        """The template's channel spec (uniform row rendering in sweep tables)."""
        return self.template.channel

    @property
    def repetitions(self) -> int:
        """Independent fleet realisations (the template's repetition count)."""
        return self.template.repetitions

    # --------------------------------------------------------------- builders
    def with_(self, **changes) -> "FleetSpec":
        """A copy with top-level fleet fields replaced."""
        return replace(self, **changes)

    def with_template(self, **changes) -> "FleetSpec":
        """A copy whose template has top-level scenario fields replaced.

        ``scale`` may be passed as a name, exactly as in
        :meth:`repro.scenarios.ScenarioSpec.with_`.
        """
        return replace(self, template=self.template.with_(**changes))

    def describe(self) -> str:
        """One-line summary used by reports and the CLI."""
        timing = self.arrival
        if self.arrival != "simultaneous":
            timing = f"{self.arrival}@{self.arrival_rate_hz:g}/s"
        tier = ""
        if self.tier != "exact":
            tier = f", {self.tier} tier @ {self.hot_threshold:g}/{self.cold_tail}"
        return (
            f"{self.name}: {self.operators} operators over {self.aps} AP(s) "
            f"(capacity {self.ap_capacity}, service {self.ap_service_ms:g} ms{tier}), "
            f"{timing} arrivals | template {self.template.name}: "
            f"{self.template.channel.describe()}"
        )


# ------------------------------------------------------------------- arrivals
def arrival_seed(fleet: FleetSpec, repetition: int) -> int:
    """Deterministic RNG seed for one fleet realisation's arrival draws.

    Derived from the fleet's :meth:`FleetSpec.workload_identity` (canonical
    content minus the tier knobs) plus the repetition index — independent of
    worker scheduling, so parallel capacity sweeps reproduce serial ones
    exactly, and independent of the simulation tier, so a hybrid fleet and
    its exact twin realise identical arrivals.
    """
    return _hash_seed(fleet.workload_identity_json, "arrivals", int(repetition))


def sample_arrival_times(fleet: FleetSpec, repetition: int) -> np.ndarray:
    """Session start times in seconds for one fleet realisation.

    Returns a nondecreasing ``(operators,)`` array: operator ``i`` starts at
    the ``i``-th arrival of the process.  ``"simultaneous"`` returns zeros;
    ``"poisson"`` accumulates exponential gaps at ``arrival_rate_hz``;
    ``"diurnal"`` thins a peak-rate Poisson stream against the sinusoidal
    load curve.  All randomness flows through
    :mod:`repro.des.distributions` with an :func:`arrival_seed`-derived
    generator, in a fixed draw order, so the result is a pure function of
    the spec.
    """
    count = int(fleet.operators)
    if fleet.arrival == "simultaneous":
        return np.zeros(count)
    rng = np.random.default_rng(arrival_seed(fleet, repetition))
    if fleet.arrival == "poisson":
        gaps = Exponential(rate=float(fleet.arrival_rate_hz)).sample_many(rng, count)
        return np.cumsum(gaps)
    # "diurnal": thinning against the peak rate keeps the draw order fixed
    # (one gap + one acceptance draw per candidate arrival).
    base = float(fleet.arrival_rate_hz)
    amplitude = float(fleet.diurnal_amplitude)
    period = float(fleet.diurnal_period_s)
    peak = base * (1.0 + amplitude)
    gap = Exponential(rate=peak)
    accept = UniformDistribution(0.0, 1.0)
    times = np.empty(count)
    t = 0.0
    accepted = 0
    while accepted < count:
        t += float(gap.sample(rng))
        rate_now = base * (1.0 + amplitude * math.sin(2.0 * math.pi * t / period))
        if float(accept.sample(rng)) * peak <= rate_now:
            times[accepted] = t
            accepted += 1
    return times
