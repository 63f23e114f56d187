"""Live teleoperation service: online admission control over fleet workloads.

This package turns the fleet layer's offline batch simulation into an
*operated* service — the setting the paper actually describes: operators
arrive over time, contend for access points, and must be admitted, rejected
or migrated **online** by an admission controller, while the service streams
incremental health metrics.

* :mod:`repro.service.spec` — frozen, hashable :class:`ServiceSpec`
  (embedded :class:`~repro.fleet.FleetSpec` workload + admission-policy
  knobs + snapshot cadence + optional virtual-time horizon);
* :mod:`repro.service.policies` — pluggable :class:`AdmissionPolicy`
  implementations: ``static-cap`` (the fleet rule, the anchor),
  ``utilization-threshold`` (instantaneous load balancing) and
  ``forecast-aware`` (placement by Forecaster-predicted per-AP
  utilisation);
* :mod:`repro.service.engine` — the :class:`ServiceEngine`: the fleet's
  admission pass (:func:`repro.fleet.engine.admit_arrivals`) under the
  policy, followed by one batched fleet-machinery execution of the
  admitted sessions;
  :class:`ServiceResult` carries drop/migration counts, the service-level
  metric tuples and the incremental :class:`ServiceSnapshot` stream;
* :mod:`repro.service.pacing` — the optional wall-clock display shim
  (deliberately outside engine semantics);
* :mod:`repro.service.registry` — the ``service-*`` preset family;
* :mod:`repro.service.compare` — the policy-comparison experiment ranking
  the three policies on drop rate vs a p99-recovery SLO.

Service results persist in the same content-addressed
:class:`~repro.scenarios.ResultStore` (and engine-epoch scheme) as session
and fleet results — importing this package registers the ``"service"``
record codec — and :class:`~repro.scenarios.SweepExecutor` accepts service
specs alongside scenario and fleet specs.
"""

from __future__ import annotations

from ..errors import StoreError
from ..fleet import _FLEET_METRICS
from ..scenarios.store import _metric_tuples, register_store_codec
from .compare import DEFAULT_RECOVERY_SLO, PolicyComparison, compare_policies, policy_score
from .engine import ServiceEngine, ServiceResult, ServiceSnapshot
from .pacing import pace_snapshots
from .policies import (
    AdmissionPolicy,
    ForecastAwarePolicy,
    ServiceState,
    StaticCapPolicy,
    UtilizationThresholdPolicy,
    make_policy,
    policy_names,
)
from .registry import (
    SERVICES,
    get_service,
    register_service,
    service_catalog,
    service_names,
)
from .spec import POLICY_KIND_SUMMARIES, POLICY_KINDS, ServiceSpec

def _encode_service(result: ServiceResult) -> dict:
    """Kind-specific payload fields for a service record (snapshots included)."""
    payload = {
        "n_commands": int(result.n_commands),
        "admitted": int(result.admitted),
        "dropped_sessions": int(result.dropped_sessions),
        "migrated_sessions": int(result.migrated_sessions),
        "policy": result.spec.policy,
        "ap_utilization": [float(u) for u in result.ap_utilization],
        "snapshots": [snapshot.to_dict() for snapshot in result.snapshots],
    }
    for metric in _FLEET_METRICS:
        payload[metric] = [float(v) for v in getattr(result, metric)]
    return payload


def _decode_service(spec: ServiceSpec, key: str, payload: dict) -> ServiceResult:
    """Rebuild a :class:`ServiceResult` from a service record's payload."""
    policy = str(payload["policy"])
    if policy != spec.policy:
        raise StoreError(f"stored policy {policy!r} does not match the spec's {spec.policy!r}")
    utilization = payload["ap_utilization"]
    if not isinstance(utilization, list) or len(utilization) != spec.fleet.aps:
        raise StoreError("ap_utilization does not match the spec's AP count")
    admitted = int(payload["admitted"])
    if admitted > 0:
        metrics = _metric_tuples(payload, _FLEET_METRICS)
    else:
        # A policy may legitimately admit nothing; _metric_tuples treats an
        # empty list as corruption, so the empty case decodes explicitly.
        metrics = {metric: () for metric in _FLEET_METRICS}
    raw_snapshots = payload.get("snapshots")
    if not isinstance(raw_snapshots, list):
        raise StoreError("service record has no snapshot stream")
    snapshots = tuple(
        ServiceSnapshot(
            time_s=float(row["time_s"]),
            active_sessions=int(row["active_sessions"]),
            admitted=int(row["admitted"]),
            dropped=int(row["dropped"]),
            migrated=int(row["migrated"]),
            completed=int(row["completed"]),
            rolling_p99_recovery=(
                None
                if row["rolling_p99_recovery"] is None
                else float(row["rolling_p99_recovery"])
            ),
            ap_utilization=tuple(float(u) for u in row["ap_utilization"]),
        )
        for row in raw_snapshots
    )
    return ServiceResult(
        spec=spec,
        spec_hash=key,
        n_commands=int(payload["n_commands"]),
        admitted=admitted,
        dropped_sessions=int(payload["dropped_sessions"]),
        migrated_sessions=int(payload["migrated_sessions"]),
        ap_utilization=tuple(float(u) for u in utilization),
        snapshots=snapshots,
        **metrics,
    )


register_store_codec("service", _encode_service, _decode_service)

__all__ = [
    "AdmissionPolicy",
    "DEFAULT_RECOVERY_SLO",
    "ForecastAwarePolicy",
    "POLICY_KIND_SUMMARIES",
    "POLICY_KINDS",
    "PolicyComparison",
    "SERVICES",
    "ServiceEngine",
    "ServiceResult",
    "ServiceSnapshot",
    "ServiceSpec",
    "ServiceState",
    "StaticCapPolicy",
    "UtilizationThresholdPolicy",
    "compare_policies",
    "get_service",
    "make_policy",
    "pace_snapshots",
    "policy_names",
    "policy_score",
    "register_service",
    "service_catalog",
    "service_names",
]
