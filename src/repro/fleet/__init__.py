"""Fleet-scale multi-operator service simulator.

This package scales the scenario runtime from one teleoperation session to
an operated service: ``N`` concurrent operators, arriving over time,
contending for shared access points — the workload shape a deployment
serving heavy traffic actually sees.

* :mod:`repro.fleet.spec` — frozen, hashable :class:`FleetSpec` (operator
  population, arrival process, AP topology/capacity, per-operator
  :class:`~repro.scenarios.ScenarioSpec` template) and the arrival-process
  samplers built on :mod:`repro.des.distributions`;
* :mod:`repro.fleet.engine` — the :class:`FleetEngine`, one engine for
  both tiers: the admission pass the fleet rule and every service policy
  share, the per-AP Lindley backlog that couples co-scheduled sessions,
  and one batched session-kernel pass over every admitted operator-session;
  :class:`FleetResult` carries the service-level metrics (p50/p99 recovery,
  completion-time distribution, AP utilisation, dropped sessions);
* :mod:`repro.fleet.hybrid` — the classifier and cold tier of
  ``tier="hybrid"`` fleets: Bianchi-classified hot APs run the exact path,
  the cold long tail is serviced by the analytic Gaussian/heavy-tail
  superposition model (:mod:`repro.wireless.superposition`) —
  deterministic and store-cacheable like everything else;
* :mod:`repro.fleet.registry` — named fleet presets (``shared-ap``,
  ``peak-hour``, ``diurnal-campus``, ``city-scale``);
* :mod:`repro.fleet.plan` / :mod:`repro.fleet.objective` — SLO-driven
  capacity planning: :class:`PlanSpec` + :class:`CapacityPlanner` search
  per-AP admission capacities directly against p99-recovery/late/drop
  gates (dual-gradient ascent warm-started by the analytic superposition
  bracket, golden-section fallback), every probe memoized through the
  store; results are versioned :class:`CapacityPlan` reports persisted
  under the ``"plan"`` record kind.

Fleet results persist in the same content-addressed
:class:`~repro.scenarios.ResultStore` (and engine-epoch scheme) as session
results — importing this package registers the ``"fleet"`` record codec —
and :class:`~repro.scenarios.SweepExecutor` accepts fleet specs alongside
scenario specs, so capacity sweeps are resumable like any other sweep.
"""

from __future__ import annotations

from ..errors import StoreError
from ..scenarios.store import (
    _metric_tuples,
    decode_delays,
    encode_delays,
    register_store_codec,
)
from .engine import FleetEngine, FleetResult, operator_channel_spec
from .hybrid import ApClassification, classify_aps, cold_draw_seed
from .objective import PlanProbe, admitted_estimate, assess_probe, quality_violations, select_probe
from .plan import (
    METHOD_KIND_SUMMARIES,
    METHOD_KINDS,
    PLAN_VERSION,
    PLANS,
    CapacityPlan,
    CapacityPlanner,
    PlanSpec,
    analytic_bracket,
    get_plan,
    plan_catalog,
    plan_names,
    register_plan,
)
from .registry import FLEETS, fleet_catalog, fleet_names, get_fleet, register_fleet
from .spec import (
    ARRIVAL_KIND_SUMMARIES,
    ARRIVAL_KINDS,
    TIER_KIND_SUMMARIES,
    TIER_KINDS,
    FleetSpec,
    arrival_seed,
    sample_arrival_times,
)

_FLEET_METRICS = (
    "rmse_no_forecast_mm",
    "rmse_foreco_mm",
    "late_fraction",
    "recovery_fraction",
    "completion_time_s",
)


def _encode_fleet(result: FleetResult) -> dict:
    """Kind-specific payload fields for a fleet record (tier metadata included)."""
    payload = {
        "n_commands": int(result.n_commands),
        "admitted": int(result.admitted),
        "dropped_sessions": int(result.dropped_sessions),
        "ap_utilization": [float(u) for u in result.ap_utilization],
        "tier": str(result.tier),
        "hot_aps": int(result.hot_aps),
        "cold_aps": int(result.cold_aps),
        "exact_sessions": int(result.exact_sessions),
        "analytic_sessions": int(result.analytic_sessions),
        "delays_ms": encode_delays(result.delays_ms),
    }
    for metric in _FLEET_METRICS:
        payload[metric] = [float(v) for v in getattr(result, metric)]
    return payload


def _decode_fleet(spec: FleetSpec, key: str, payload: dict) -> FleetResult:
    """Rebuild a :class:`FleetResult` from a fleet record's payload."""
    metrics = _metric_tuples(payload, _FLEET_METRICS)
    utilization = payload["ap_utilization"]
    if not isinstance(utilization, list) or len(utilization) != spec.aps:
        raise StoreError("ap_utilization does not match the spec's AP count")
    tier = str(payload["tier"])
    if tier != spec.tier:
        raise StoreError(f"stored tier {tier!r} does not match the spec's {spec.tier!r}")
    return FleetResult(
        spec=spec,
        spec_hash=key,
        n_commands=int(payload["n_commands"]),
        admitted=int(payload["admitted"]),
        dropped_sessions=int(payload["dropped_sessions"]),
        ap_utilization=tuple(float(u) for u in utilization),
        tier=tier,
        hot_aps=int(payload["hot_aps"]),
        cold_aps=int(payload["cold_aps"]),
        exact_sessions=int(payload["exact_sessions"]),
        analytic_sessions=int(payload["analytic_sessions"]),
        delays_ms=decode_delays(payload.get("delays_ms")),
        **metrics,
    )


register_store_codec("fleet", _encode_fleet, _decode_fleet)

__all__ = [
    "ARRIVAL_KIND_SUMMARIES",
    "ARRIVAL_KINDS",
    "ApClassification",
    "CapacityPlan",
    "CapacityPlanner",
    "FLEETS",
    "FleetEngine",
    "FleetResult",
    "FleetSpec",
    "METHOD_KIND_SUMMARIES",
    "METHOD_KINDS",
    "PLAN_VERSION",
    "PLANS",
    "PlanProbe",
    "PlanSpec",
    "TIER_KIND_SUMMARIES",
    "TIER_KINDS",
    "admitted_estimate",
    "analytic_bracket",
    "arrival_seed",
    "assess_probe",
    "classify_aps",
    "cold_draw_seed",
    "fleet_catalog",
    "fleet_names",
    "get_fleet",
    "get_plan",
    "operator_channel_spec",
    "plan_catalog",
    "plan_names",
    "quality_violations",
    "register_fleet",
    "register_plan",
    "select_probe",
]
