"""Service engine: run a :class:`ServiceSpec` as a live admission loop.

The engine turns the fleet layer's *batch* pipeline into an *operated*
service.  Arrivals still come from the fleet arrival processes and sessions
still execute through the batched scenario kernel, but admission is no
longer the fleet's fixed rule: the spec's
:class:`~repro.service.policies.AdmissionPolicy` rules on each arrival, in
virtual-time order and seeing exactly the state an online controller would
see, whether the session is admitted at its home AP, migrated to another
AP, or dropped.

Two-phase execution keeps live semantics and batch speed at once:

1. **Admission phase (online).**  The fleet's admission pass,
   :func:`~repro.fleet.engine.admit_arrivals`, offers every arrival to the
   policy in (slot, operator) order, one repetition at a time.  Policies
   only ever see already-made decisions, so the pass is causally faithful
   to a real controller.  ``until_s`` bounds the virtual clock: arrivals
   past the horizon stay unprocessed.
2. **Execution phase (batch).**  The admitted sessions — with their
   possibly-migrated AP assignments — go through
   :meth:`~repro.fleet.FleetEngine.execute`, the one fleet pipeline:
   per-operator channel realisations, shared-AP Lindley coupling, one
   batched kernel pass, completion times.  The coupling reads each
   session's ``ap`` field, so migrations change contention exactly as they
   would live.

Because every random draw is spec-derived and the virtual clock never reads
wall time, a "live" run is replayable bit for bit — the pacing shim in
:mod:`repro.service.pacing` exists only to *display* the snapshot stream in
real time and never touches engine state.

The incremental :class:`ServiceSnapshot` stream is derived from the
admitted, dropped and completed sessions of the admission pass, sampled
every ``snapshot_every_slots`` command slots on the virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..scenarios.store import ResultStore

from ..fleet.engine import FleetColumns, FleetEngine, _Session, admit_arrivals
from ..scenarios.engine import (
    ResultMemo,
    SessionEngine,
    sample_channel_delays_batch,  # noqa: F401 - a binding perfbench/layers.py patches
)
from .policies import ServiceState, make_policy
from .spec import ServiceSpec


# ------------------------------------------------------------------ snapshots
@dataclass(frozen=True)
class ServiceSnapshot:
    """One sample of the incremental live-service metric stream.

    Snapshots are taken on the virtual clock every
    ``ServiceSpec.snapshot_every_slots`` command slots and aggregate over
    all repetitions of the service realisation.
    """

    #: Virtual time of the sample, seconds since service start.
    time_s: float
    #: Sessions active (arrived, not yet past their command window), summed
    #: over repetitions.
    active_sessions: int
    #: Cumulative admissions up to this instant.
    admitted: int
    #: Cumulative drops (policy rejections) up to this instant.
    dropped: int
    #: Cumulative migrations (admissions at a non-home AP) up to this instant.
    migrated: int
    #: Sessions whose last command was delivered by this instant.
    completed: int
    #: Rolling p99 recovery (1st percentile over completed sessions), or
    #: ``None`` while no session has completed yet.
    rolling_p99_recovery: float | None
    #: Per-AP air-time utilisation at this instant (mean over repetitions,
    #: capped at 1).
    ap_utilization: tuple[float, ...]

    def to_dict(self) -> dict:
        """JSON-safe snapshot row."""
        return {
            "time_s": float(self.time_s),
            "active_sessions": int(self.active_sessions),
            "admitted": int(self.admitted),
            "dropped": int(self.dropped),
            "migrated": int(self.migrated),
            "completed": int(self.completed),
            "rolling_p99_recovery": (
                None if self.rolling_p99_recovery is None else float(self.rolling_p99_recovery)
            ),
            "ap_utilization": [float(u) for u in self.ap_utilization],
        }


# -------------------------------------------------------------------- results
@dataclass
class ServiceResult(FleetColumns):
    """Uniform per-service result row produced by the engine.

    Per-session metric tuples hold one entry per **admitted** session in
    operator-major order (exactly the fleet convention) and are empty when
    the policy admitted nothing.  ``snapshots`` is the incremental metric
    stream, in virtual-time order.
    """

    spec: ServiceSpec
    spec_hash: str
    n_commands: int
    admitted: int
    dropped_sessions: int
    migrated_sessions: int
    rmse_no_forecast_mm: tuple[float, ...]
    rmse_foreco_mm: tuple[float, ...]
    late_fraction: tuple[float, ...]
    recovery_fraction: tuple[float, ...]
    completion_time_s: tuple[float, ...]
    ap_utilization: tuple[float, ...]
    snapshots: tuple[ServiceSnapshot, ...] = field(default=())

    #: Record kind this result stores under in a ResultStore.
    store_kind = "service"

    @property
    def offered(self) -> int:
        """Arrivals the policy ruled on (admitted + dropped)."""
        return self.admitted + self.dropped_sessions

    @property
    def drop_rate(self) -> float:
        """Share of offered sessions the policy dropped (0 when none offered)."""
        if self.offered == 0:
            return 0.0
        return self.dropped_sessions / self.offered

    @property
    def migration_rate(self) -> float:
        """Share of admitted sessions placed at a non-home AP."""
        if self.admitted == 0:
            return 0.0
        return self.migrated_sessions / self.admitted

    def to_dict(self) -> dict:
        """JSON-safe summary row (snapshot stream included)."""
        return {
            "service": self.spec.name,
            "spec_hash": self.spec_hash,
            "policy": self.spec.policy,
            "template": self.spec.template.name,
            "channel": self.spec.channel.describe(),
            "operators": self.spec.fleet.operators,
            "aps": self.spec.fleet.aps,
            "ap_capacity": self.spec.fleet.ap_capacity,
            "arrival": self.spec.fleet.arrival,
            "until_s": None if self.spec.until_s is None else float(self.spec.until_s),
            "repetitions": self.spec.repetitions,
            "n_commands": self.n_commands,
            "admitted": self.admitted,
            "dropped_sessions": self.dropped_sessions,
            "migrated_sessions": self.migrated_sessions,
            "drop_rate": self.drop_rate,
            "migration_rate": self.migration_rate,
            "p50_recovery": self.p50_recovery,
            "p99_recovery": self.p99_recovery,
            "p99_completion_s": self.p99_completion_s,
            "ap_utilization": [float(u) for u in self.ap_utilization],
            "snapshots": [snapshot.to_dict() for snapshot in self.snapshots],
        }

    def to_text(self) -> str:
        """Compact multi-line operations report for one service."""
        lines = [
            self.spec.describe(),
            (
                f"  sessions: {self.admitted} admitted, {self.dropped_sessions} dropped "
                f"(drop rate {self.drop_rate:.2f}), {self.migrated_sessions} migrated"
            ),
            (
                f"  recovery: p50 {self.p50_recovery:.2f}, p99 {self.p99_recovery:.2f} | "
                f"p99 completion {self.p99_completion_s:.1f} s | "
                f"mean AP utilization {self.mean_ap_utilization:.2f}"
            ),
            f"  snapshots: {len(self.snapshots)} samples on the virtual clock",
        ]
        return "\n".join(lines)


# --------------------------------------------------------------------- engine
class ServiceEngine:
    """Resolves service specs into live admission runs, with caching.

    Parameters
    ----------
    sessions:
        The :class:`~repro.scenarios.SessionEngine` supplying datasets and
        trained forecasters (a private one is created when omitted).
    store:
        Optional persistent :class:`~repro.scenarios.ResultStore`, held by
        the engine's :class:`~repro.scenarios.engine.ResultMemo`
        (:attr:`memo`).  Service results share the store (and its
        engine-epoch scheme) with session and fleet results: lookups go
        memory -> disk -> compute, computed services are written back
        immediately.
    """

    def __init__(
        self,
        sessions: SessionEngine | None = None,
        store: "ResultStore | None" = None,
    ) -> None:
        self.sessions = sessions if sessions is not None else SessionEngine()
        # Execution runs through FleetEngine.execute; results are memoized
        # at the service level only.
        self._fleet = FleetEngine(sessions=self.sessions)
        self.memo = ResultMemo(store)

    # ------------------------------------------------------------------- run
    def run(self, spec: ServiceSpec) -> ServiceResult:
        """Run one service (all repetitions) through its admission policy."""
        return self.memo.fetch(spec, self._compute)

    # --------------------------------------------------------------- compute
    def _compute(self, spec: ServiceSpec) -> ServiceResult:
        """Admit online, then execute the admitted sessions in one batch."""
        fleet = spec.fleet
        n_commands = int(self.sessions.test_commands(fleet.template).shape[0])
        # 1. Online admission: the fleet's admission pass under the policy.
        plans, dropped_offsets, migrated_offsets = admit_arrivals(
            fleet, n_commands, make_policy(spec).admit, lambda: ServiceState(spec, n_commands), spec.until_s
        )

        # 2. The fleet pipeline on the admitted (possibly migrated) sessions —
        # the same one FleetEngine runs, so a static-cap service is
        # bit-comparable to its fleet counterpart.
        run = self._fleet.execute(fleet, plans)
        return ServiceResult(
            spec=spec,
            spec_hash=spec.spec_hash(),
            n_commands=n_commands,
            admitted=len(run.sessions),
            dropped_sessions=len(dropped_offsets),
            migrated_sessions=len(migrated_offsets),
            rmse_no_forecast_mm=run.outcomes.rmse_no_forecast_mm,
            rmse_foreco_mm=run.outcomes.rmse_foreco_mm,
            late_fraction=run.outcomes.late_fraction,
            recovery_fraction=run.outcomes.recovery_fraction,
            completion_time_s=run.completion_time_s,
            ap_utilization=run.ap_utilization,
            snapshots=self._snapshots(
                spec,
                n_commands,
                run.sessions,
                tuple(zip(run.completion_time_s, run.outcomes.recovery_fraction)),
                [session.offset_slots for plan in plans for session in plan],
                dropped_offsets,
                migrated_offsets,
            ),
        )

    # -------------------------------------------------------------- snapshots
    @staticmethod
    def _snapshots(
        spec: ServiceSpec,
        n_commands: int,
        sessions_flat: list[_Session],
        completions: tuple[tuple[float, float], ...],
        admitted_offsets: list[int],
        dropped_offsets: list[int],
        migrated_offsets: list[int],
    ) -> tuple[ServiceSnapshot, ...]:
        """Derive the incremental metric stream from the admission record.

        A pure function of spec-derived data — sampling the stream never
        perturbs results, and replaying a run reproduces it bit for bit.
        """
        fleet = spec.fleet
        period_s = fleet.template.foreco.command_period_ms / 1000.0
        interval_slots = spec.snapshot_every_slots
        session_load = float(fleet.ap_service_ms) / float(fleet.template.foreco.command_period_ms)

        # The last admitted start (any arrival when nothing was admitted) plus one window.
        last = [s.offset_slots for s in sessions_flat] or admitted_offsets + dropped_offsets
        horizon_slots = max(last, default=0) + n_commands
        slots = np.arange(0, horizon_slots + 1, interval_slots, dtype=np.int64)
        if slots[-1] != horizon_slots:
            slots = np.append(slots, horizon_slots)
        times = slots * period_s

        # Per-AP active-session windows, one searchsorted pair per
        # (repetition, AP) over every sample; utilisation accumulates over
        # repetitions in repetition order.
        repetitions = fleet.template.repetitions
        ap_starts: list[list[list[int]]] = [[[] for _ in range(fleet.aps)] for _ in range(repetitions)]
        for session in sessions_flat:
            ap_starts[session.repetition][session.ap].append(session.offset_slots)
        active = np.zeros(slots.shape, dtype=np.int64)
        per_ap = np.zeros((fleet.aps, slots.size), dtype=np.float64)
        for per_rep in ap_starts:
            for ap, starts in enumerate(per_rep):
                starts_sorted = np.sort(np.asarray(starts, dtype=np.int64))
                ap_active = np.searchsorted(starts_sorted, slots, side="right") - np.searchsorted(
                    starts_sorted, slots - n_commands, side="right"
                )
                active += ap_active
                per_ap[ap] += np.minimum(1.0, ap_active * session_load)
        per_ap /= max(1, repetitions)

        admitted, dropped, migrated = (
            np.searchsorted(np.sort(np.asarray(offsets, dtype=np.int64)), slots, side="right")
            for offsets in (admitted_offsets, dropped_offsets, migrated_offsets)
        )
        completion_times = np.sort(np.asarray([c[0] for c in completions], dtype=np.float64))
        completed = np.searchsorted(completion_times, times, side="right")
        # Recovery fractions ordered by completion time; the rolling p99 is
        # computed once per distinct completed count.
        recovery_by_completion = np.asarray(
            [c[1] for c in sorted(completions, key=lambda c: c[0])], dtype=np.float64
        )
        rolling = {
            count: float(np.percentile(recovery_by_completion[:count], 1))
            for count in np.unique(completed).tolist()
            if count > 0
        }
        columns = (times, active, admitted, dropped, migrated, completed, per_ap.T)
        return tuple(
            ServiceSnapshot(time, act, adm, drop, mig, done, rolling.get(done), tuple(util))
            for time, act, adm, drop, mig, done, util in zip(*(c.tolist() for c in columns))
        )
