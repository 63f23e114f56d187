"""Declarative live-service specifications.

A :class:`ServiceSpec` turns the fleet vocabulary into an **operated live
service**: operator sessions arrive over virtual time (through the fleet
arrival processes), and every arrival is admitted, rejected or *migrated* to
another access point by a pluggable admission policy
(:mod:`repro.service.policies`) instead of the fleet layer's fixed
home-AP/capacity rule.  Like the scenario and fleet specs it builds on, a
service spec is a frozen, hashable value object:

* equal specs produce identical results, so the
  :class:`~repro.service.engine.ServiceEngine` caches runs by
  :meth:`ServiceSpec.spec_hash`;
* the hash is the content address under which :class:`~repro.service.engine.
  ServiceResult` records persist in the :class:`~repro.scenarios.ResultStore`
  (record kind ``"service"``, same engine-epoch scheme as everything else);
* live runs are **replayable**: every random draw derives from the spec
  content (the arrival times come straight from
  :func:`repro.fleet.sample_arrival_times` on the embedded fleet), never
  from wall time or scheduling, so a "live" run re-executes bit-identically.

The policy knobs are **excluded** from :meth:`workload_identity`, mirroring
how the fleet tier knobs are excluded from the fleet workload: the three
admission policies of one workload see *identical* arrivals and channel
realisations, which is what makes the policy-comparison experiment
(:mod:`repro.service.compare`) an apples-to-apples ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from ..errors import ConfigurationError
from ..fleet.spec import FleetSpec, _coerce_float, _coerce_int
from ..scenarios.spec import SpecIdentity

#: Admission policies understood by the service engine.
POLICY_KINDS: tuple[str, ...] = ("static-cap", "utilization-threshold", "forecast-aware")

#: One-line summary per admission policy (rendered into the docs reference).
POLICY_KIND_SUMMARIES: dict[str, str] = {
    "static-cap": "admit at the home AP while it holds fewer than ap_capacity sessions (no migration)",
    "utilization-threshold": "admit/migrate to the least-utilised AP whose post-admission air-time load stays within utilization_limit",
    "forecast-aware": "admit/migrate on a Forecaster prediction of each AP's next utilisation sample (congestion forecast)",
}


@dataclass(frozen=True)
class ServiceSpec(SpecIdentity):
    """One fully-specified live teleoperation service.

    Attributes
    ----------
    name:
        Human-readable label (preset name); not part of the physical
        configuration and excluded from :meth:`spec_hash`.
    fleet:
        The underlying :class:`~repro.fleet.FleetSpec` workload: per-operator
        scenario template, operator population, AP topology and capacity,
        coupling constant and arrival process.  Only ``tier="exact"`` fleets
        are valid — the live loop couples sessions through the exact Lindley
        backlog; the hybrid tier's analytic shortcut has no live timeline.
        ``ap_capacity`` stays the hard per-AP admission ceiling under every
        policy; the policies decide *where* (and whether) to place an
        arrival below that ceiling.
    policy:
        Admission policy (see :data:`POLICY_KINDS`).  ``"static-cap"``
        reproduces the fleet layer's admission rule exactly (home AP only);
        the other two may migrate arrivals to less-loaded APs.
    utilization_limit:
        Air-time load in ``(0, 1]`` the ``"utilization-threshold"`` and
        ``"forecast-aware"`` policies refuse to exceed when placing an
        arrival: a candidate AP is acceptable when its (instantaneous or
        forecast) utilisation *after* admitting the session stays at or
        below this limit.
    forecast_record:
        History window ``R`` (in utilisation samples, one per command slot)
        the ``"forecast-aware"`` policy's forecaster conditions on.
    forecast_algorithm:
        Forecaster registry name (:func:`repro.forecasting.make_forecaster`)
        the ``"forecast-aware"`` policy predicts per-AP utilisation with.
    snapshot_every_slots:
        Interval of the incremental :class:`~repro.service.engine.
        ServiceSnapshot` stream, in command slots.
    until_s:
        Optional admission horizon in seconds of virtual time: arrivals
        after this instant never enter the service (neither admitted nor
        dropped — the service stopped accepting).  Sessions admitted before
        the horizon still run to completion.  ``None`` accepts every
        arrival.
    """

    name: str = "service"
    fleet: FleetSpec = field(default_factory=FleetSpec)
    policy: str = "static-cap"
    utilization_limit: float = 0.85
    forecast_record: int = 8
    forecast_algorithm: str = "ma"
    snapshot_every_slots: int = 50
    until_s: float | None = None

    def __post_init__(self) -> None:
        """Validate the workload, policy and snapshot fields.

        Every violation raises :class:`~repro.errors.ConfigurationError`,
        never a bare ``ValueError`` — including unknown policy names,
        utilisation limits outside ``(0, 1]`` and non-positive horizons.
        """
        if not isinstance(self.fleet, FleetSpec):
            raise ConfigurationError("ServiceSpec.fleet must be a FleetSpec")
        if self.fleet.tier != "exact":
            raise ConfigurationError(
                "a live service runs tier='exact' fleets only (the hybrid tier's "
                "analytic cold path has no live timeline); use "
                "fleet.with_(tier='exact')"
            )
        if self.policy not in POLICY_KINDS:
            raise ConfigurationError(
                f"unknown admission policy {self.policy!r}; available: {sorted(POLICY_KINDS)}"
            )
        object.__setattr__(
            self, "utilization_limit", _coerce_float("utilization_limit", self.utilization_limit)
        )
        if not 0.0 < self.utilization_limit <= 1.0:
            raise ConfigurationError("utilization_limit must be in (0, 1]")
        object.__setattr__(
            self, "forecast_record", _coerce_int("forecast_record", self.forecast_record)
        )
        if self.forecast_record < 1:
            raise ConfigurationError("forecast_record must be >= 1")
        from ..forecasting import forecaster_names  # deferred: service imports stay light

        if self.forecast_algorithm not in forecaster_names():
            raise ConfigurationError(
                f"unknown forecast_algorithm {self.forecast_algorithm!r}; "
                f"available: {forecaster_names()}"
            )
        object.__setattr__(
            self,
            "snapshot_every_slots",
            _coerce_int("snapshot_every_slots", self.snapshot_every_slots),
        )
        if self.snapshot_every_slots < 1:
            raise ConfigurationError("snapshot_every_slots must be >= 1")
        if self.until_s is not None:
            horizon = _coerce_float("until_s", self.until_s)
            if not math.isfinite(horizon) or horizon <= 0.0:
                raise ConfigurationError("until_s must be a positive, finite horizon (or None)")
            object.__setattr__(self, "until_s", horizon)

    # --------------------------------------------------------------- identity
    #: Record kind this spec stores/loads under in a ResultStore.
    store_kind = "service"

    def workload_identity(self) -> dict:
        """The canonical representation *minus* the policy knobs.

        This is the randomness domain: the arrival times of a service run
        come from :func:`repro.fleet.sample_arrival_times` on the embedded
        fleet (whose own workload identity excludes its tier knobs), so the
        three admission policies of one workload — and a truncated
        (``until_s``) replay of it — realise **identical** arrivals and
        channel draws.
        """
        return {
            "kind": "service",
            "fleet": self.fleet.workload_identity(),
            "until_s": None if self.until_s is None else float(self.until_s),
        }

    def canonical(self) -> dict:
        """JSON-safe canonical representation (the hashing domain).

        Includes the policy and snapshot knobs: two policies of one workload
        are *different results* and must occupy different store addresses.
        """
        payload = self.workload_identity()
        payload["policy"] = {
            "kind": self.policy,
            "utilization_limit": float(self.utilization_limit),
            "forecast_record": int(self.forecast_record),
            "forecast_algorithm": self.forecast_algorithm,
        }
        payload["snapshot_every_slots"] = int(self.snapshot_every_slots)
        return payload

    # ------------------------------------------------------------ convenience
    @property
    def template(self):
        """The fleet's per-operator scenario template."""
        return self.fleet.template

    @property
    def channel(self):
        """The template's channel spec (uniform row rendering in tables)."""
        return self.fleet.template.channel

    @property
    def repetitions(self) -> int:
        """Independent service realisations (the template's repetition count)."""
        return self.fleet.template.repetitions

    # --------------------------------------------------------------- builders
    def with_(self, **changes) -> "ServiceSpec":
        """A copy with top-level service fields replaced."""
        return replace(self, **changes)

    def with_fleet(self, **changes) -> "ServiceSpec":
        """A copy whose fleet has top-level fleet fields replaced."""
        return replace(self, fleet=self.fleet.with_(**changes))

    def with_template(self, **changes) -> "ServiceSpec":
        """A copy whose fleet template has scenario fields replaced.

        ``scale`` may be passed as a name, exactly as in
        :meth:`repro.scenarios.ScenarioSpec.with_`.
        """
        return replace(self, fleet=self.fleet.with_template(**changes))

    def describe(self) -> str:
        """One-line summary used by reports and the CLI."""
        horizon = "" if self.until_s is None else f", accepting until {self.until_s:g} s"
        return (
            f"{self.name}: {self.policy} admission over {self.fleet.operators} operators / "
            f"{self.fleet.aps} AP(s) (capacity {self.fleet.ap_capacity}, "
            f"limit {self.utilization_limit:g}{horizon}), {self.fleet.arrival} arrivals | "
            f"template {self.fleet.template.name}: {self.fleet.template.channel.describe()}"
        )
