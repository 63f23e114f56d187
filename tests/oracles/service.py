"""Eager references for live-service admission and the snapshot stream.

The library places an arrival home-first and scores an AP only when it could
take the session (:func:`repro.service.policies._place_home_first`), and it
builds the :class:`~repro.service.ServiceSnapshot` stream in whole-array
passes.  This module keeps the direct formulations they replace:

* :class:`EagerUtilizationThresholdPolicy` and
  :class:`EagerForecastAwarePolicy` score **every** AP (the forecast-aware
  one fits a forecaster per AP per arrival), sort all APs by
  ``(not home, score, index)`` and take the first with a free slot that
  passes the limit;
* :func:`snapshots_per_slot` walks the sample slots one at a time and
  counts every repetition, AP and counter with its own ``searchsorted``.
"""

from __future__ import annotations

import numpy as np

from repro.fleet.engine import _Session
from repro.service import ServiceSnapshot, ServiceSpec, ServiceState
from repro.service.policies import (
    AdmissionPolicy,
    ForecastAwarePolicy,
    StaticCapPolicy,
    UtilizationThresholdPolicy,
)


class EagerUtilizationThresholdPolicy(UtilizationThresholdPolicy):
    """``utilization-threshold`` through a full sort of every AP."""

    def admit(self, state: ServiceState, home_ap: int, offset: int) -> int | None:
        limit = self.spec.utilization_limit
        order = sorted(range(state.aps), key=lambda ap: (ap != home_ap, state.active(ap, offset), ap))
        for ap in order:
            if state.active(ap, offset) >= state.capacity:
                continue
            if state.utilization(ap, offset, extra=1) <= limit:
                return ap
        return None


class EagerForecastAwarePolicy(ForecastAwarePolicy):
    """``forecast-aware`` with a prediction for every AP, then a full sort."""

    def admit(self, state: ServiceState, home_ap: int, offset: int) -> int | None:
        limit = self.spec.utilization_limit
        predictions = {ap: self._predicted_utilization(state, ap, offset) for ap in range(state.aps)}
        order = sorted(range(state.aps), key=lambda ap: (ap != home_ap, predictions[ap], ap))
        for ap in order:
            if state.active(ap, offset) >= state.capacity:
                continue
            if predictions[ap] + state.session_load <= limit:
                return ap
        return None


_EAGER = {
    StaticCapPolicy.kind: StaticCapPolicy,
    UtilizationThresholdPolicy.kind: EagerUtilizationThresholdPolicy,
    ForecastAwarePolicy.kind: EagerForecastAwarePolicy,
}


def make_eager_policy(spec: ServiceSpec) -> AdmissionPolicy:
    """The eager reference policy for ``spec.policy``."""
    return _EAGER[spec.policy](spec)


def snapshots_per_slot(
    spec: ServiceSpec,
    n_commands: int,
    sessions_flat: list[_Session],
    completions: tuple[tuple[float, float], ...],
    admitted_offsets: list[int],
    dropped_offsets: list[int],
    migrated_offsets: list[int],
) -> tuple[ServiceSnapshot, ...]:
    """The snapshot stream, one sample slot at a time (``ServiceEngine._snapshots``'s arguments)."""
    fleet = spec.fleet
    period_s = fleet.template.foreco.command_period_ms / 1000.0
    interval_slots = spec.snapshot_every_slots
    session_load = float(fleet.ap_service_ms) / float(fleet.template.foreco.command_period_ms)

    if sessions_flat:
        horizon_slots = max(s.offset_slots for s in sessions_flat) + n_commands
    elif admitted_offsets or dropped_offsets:
        horizon_slots = max(admitted_offsets + dropped_offsets) + n_commands
    else:
        horizon_slots = n_commands
    sample_slots = list(range(0, horizon_slots + 1, interval_slots))
    if sample_slots[-1] != horizon_slots:
        sample_slots.append(horizon_slots)

    admitted_sorted = np.sort(np.asarray(admitted_offsets, dtype=np.int64))
    dropped_sorted = np.sort(np.asarray(dropped_offsets, dtype=np.int64))
    migrated_sorted = np.sort(np.asarray(migrated_offsets, dtype=np.int64))
    completion_times = np.sort(np.asarray([c[0] for c in completions], dtype=np.float64))
    recovery_by_completion = np.asarray(
        [c[1] for c in sorted(completions, key=lambda c: c[0])], dtype=np.float64
    )

    repetitions = fleet.template.repetitions
    ap_starts: list[list[list[int]]] = [[[] for _ in range(fleet.aps)] for _ in range(repetitions)]
    for session in sessions_flat:
        ap_starts[session.repetition][session.ap].append(session.offset_slots)
    ap_sorted = [[np.sort(np.asarray(starts, dtype=np.int64)) for starts in per_rep] for per_rep in ap_starts]

    snapshots = []
    for slot in sample_slots:
        time_s = slot * period_s
        active = 0
        per_ap = np.zeros(fleet.aps, dtype=np.float64)
        for repetition in range(repetitions):
            for ap in range(fleet.aps):
                starts = ap_sorted[repetition][ap]
                ap_active = int(
                    np.searchsorted(starts, slot, side="right")
                    - np.searchsorted(starts, slot - n_commands, side="right")
                )
                active += ap_active
                per_ap[ap] += min(1.0, ap_active * session_load)
        per_ap /= max(1, repetitions)
        completed = int(np.searchsorted(completion_times, time_s, side="right"))
        rolling = (
            float(np.percentile(recovery_by_completion[:completed], 1)) if completed > 0 else None
        )
        snapshots.append(
            ServiceSnapshot(
                time_s=float(time_s),
                active_sessions=active,
                admitted=int(np.searchsorted(admitted_sorted, slot, side="right")),
                dropped=int(np.searchsorted(dropped_sorted, slot, side="right")),
                migrated=int(np.searchsorted(migrated_sorted, slot, side="right")),
                completed=completed,
                rolling_p99_recovery=rolling,
                ap_utilization=tuple(float(u) for u in per_ap),
            )
        )
    return tuple(snapshots)
