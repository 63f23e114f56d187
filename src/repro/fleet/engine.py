"""Fleet engine: resolve a :class:`FleetSpec` into coupled session runs.

One fleet realisation couples ``N`` operator sessions through the access
points they share.  The engine reuses the scenario runtime wholesale —
datasets, trained forecasters and the batched session kernel all come from a
:class:`~repro.scenarios.SessionEngine` — and adds the one thing a list of
independent sessions cannot express: **contention**.

The contention model
--------------------

Each operator's own channel realisation is sampled exactly as a
single-session run would sample it, through
:func:`~repro.scenarios.engine.sample_channel_delays_batch` with the same
block-ordered RNG streams.  On top of those *base* delays, operators
assigned to the same AP contend for its air time:

* every delivered command occupies the AP for ``ap_service_ms`` of work;
* per command slot, the AP has one command period of budget; demand beyond
  the budget accumulates as **backlog** — a vectorized Lindley recursion
  ``backlog[k+1] = max(0, backlog[k] + work[k] - period)`` computed with one
  ``cumsum`` / ``minimum.accumulate`` pass per AP;
* a command arriving at slot ``k`` with in-slot service rank ``r`` (ranks
  follow operator index) waits ``backlog[k] + r * ap_service_ms`` on top of
  its base delay.  Commands the operator's own channel lost never reach the
  AP and contribute no work.

**Single-operator bit-equality contract:** with one operator per AP and
``ap_service_ms <= command_period_ms`` the per-slot demand never exceeds the
budget, so the backlog is identically zero, every rank is zero, and the
coupled delays equal the base delays *bit for bit* — a 1-operator fleet
reproduces :meth:`SessionEngine.run` on the template exactly, for every
channel kind.  The tests pin this contract.

Sessions and admission
----------------------

Operators start at the spec's arrival-process times (slot-quantised) and are
statically assigned to AP ``i % aps``.  A session whose AP already serves
``ap_capacity`` concurrent sessions at its arrival is **dropped**: it is
counted, never simulated.  That rule (:func:`static_cap`) is one placement
rule of :func:`admit_arrivals`, the admission pass a live service's
policies run through too.  All admitted operator-sessions across all
repetitions then advance through ONE batched session kernel call (the
``(B, n)`` stack of coupled delays), which is what makes fleet execution
several times faster than running the sessions one by one.

One engine runs both tiers: a ``tier="hybrid"`` spec serves its cold APs
analytically (:mod:`repro.fleet.hybrid`) and its hot APs through the same
exact pipeline.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, TypeVar

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..scenarios.store import ResultStore

from ..core.simulation import (
    BatchedRemoteControlSimulation,
    MetricColumns,
    SimulationBatch,
)
from ..errors import ConfigurationError
from ..scenarios.engine import ResultMemo, SessionEngine, _identity_seed, sample_channel_delays_batch
from ..scenarios.spec import ScenarioSpec, _hash_seed
from .hybrid import ApClassification, classify_aps, serve_cold
from .spec import FleetSpec, sample_arrival_times


def operator_channel_spec(fleet: FleetSpec, operator: int) -> ScenarioSpec:
    """The scenario spec whose channel identity seeds one operator's delays.

    Operator 0 is the template itself — its channel realisations (and
    therefore a single-operator fleet) are bit-identical to a plain
    :meth:`SessionEngine.run` of the template.  Operators ``i > 0`` get a
    hash-decorrelated seed derived from the template seed and the operator
    index, so their channels are independent realisations of the same model.
    """
    operator = int(operator)
    if operator == 0:
        return fleet.template
    return fleet.template.with_(seed=_operator_seed(fleet, operator))


def _operator_seed(fleet: FleetSpec, operator: int) -> int:
    """The template seed of :func:`operator_channel_spec` ``(fleet, operator)``."""
    if operator < 0:
        raise ConfigurationError("operator index must be >= 0")
    if operator == 0:
        return int(fleet.template.seed)
    return _hash_seed("fleet-operator", int(fleet.template.seed), operator)


def _session_seeds(fleet: FleetSpec, sessions: list[_Session]) -> list[int]:
    """Each session's ``repetition_seed(operator_channel_spec(fleet, operator), repetition)``.

    Operators differ from the template only in ``seed``, so the template's
    identity is encoded once, split around its seed, and each operator's seed
    is spliced in: the same sha256 input bytes as the operator spec's own
    encoding, without building that spec or encoding it again.
    """
    head, tail = fleet.template.channel_identity_split
    return [
        _identity_seed(head + str(_operator_seed(fleet, session.operator)) + tail, session.repetition)
        for session in sessions
    ]


# -------------------------------------------------------------------- results
def _percentile(values: tuple[float, ...], q: float) -> float:
    """``np.percentile`` of ``values``; 0 when there are none."""
    return float(np.percentile(values, q)) if values else 0.0


class FleetColumns(MetricColumns):
    """Service-level statistics of per-session columns, for fleet and service results.

    Beyond the :class:`~repro.core.simulation.MetricColumns`, subclasses hold
    ``completion_time_s`` (one entry per session) and ``ap_utilization``
    (one entry per AP).  Each statistic reads 0 when its column is empty,
    as for a service that admitted nothing.
    """

    completion_time_s: tuple[float, ...]
    ap_utilization: tuple[float, ...]

    @property
    def p50_recovery(self) -> float:
        """Median per-session recovery rate."""
        return _percentile(self.recovery_fraction, 50)

    @property
    def p99_recovery(self) -> float:
        """Recovery rate at least 99% of operator-sessions achieve.

        Service-level semantics: this is the **1st percentile** of the
        per-session recovery distribution — the tail that capacity planning
        cares about ("99% of sessions recover at least this share of their
        missing commands").
        """
        return _percentile(self.recovery_fraction, 1)

    @property
    def p50_completion_s(self) -> float:
        """Median session completion time (fleet start to last delivery, s)."""
        return _percentile(self.completion_time_s, 50)

    @property
    def p99_completion_s(self) -> float:
        """99th-percentile session completion time in seconds (the slow tail)."""
        return _percentile(self.completion_time_s, 99)

    @property
    def mean_ap_utilization(self) -> float:
        """AP air-time utilisation averaged over access points."""
        return float(np.mean(self.ap_utilization)) if self.ap_utilization else 0.0


@dataclass
class FleetResult(FleetColumns):
    """Uniform per-fleet result row produced by the engine.

    The per-session metric tuples hold one entry per **admitted**
    operator-session, ordered operator-major (operator 0's repetitions
    first) — so for a single-operator fleet they coincide entry-for-entry
    with the :class:`~repro.scenarios.SessionResult` tuples of the template.
    ``delays_ms`` keeps the last admitted session's coupled delay trace as
    an ``(n,)`` array of its own, so a kept result does not pin the fleet's
    ``(B, n)`` stack; the result holds no trajectory.
    """

    spec: FleetSpec
    spec_hash: str
    n_commands: int
    admitted: int
    dropped_sessions: int
    rmse_no_forecast_mm: tuple[float, ...]
    rmse_foreco_mm: tuple[float, ...]
    late_fraction: tuple[float, ...]
    recovery_fraction: tuple[float, ...]
    completion_time_s: tuple[float, ...]
    ap_utilization: tuple[float, ...]
    #: Simulation tier that produced this result ("exact" or "hybrid").
    tier: str = "exact"
    #: APs classified hot (all of them for an exact run).
    hot_aps: int = 0
    #: APs classified cold (0 for an exact run).
    cold_aps: int = 0
    #: Admitted sessions that went through the exact Lindley path.
    exact_sessions: int = 0
    #: Admitted sessions serviced by the analytic superposition model.
    analytic_sessions: int = 0
    delays_ms: np.ndarray | None = field(repr=False, default=None)

    #: Record kind this result stores under in a ResultStore.
    store_kind = "fleet"

    @property
    def operators(self) -> int:
        """Operator population the fleet was specified with."""
        return self.spec.operators

    def to_dict(self) -> dict:
        """JSON-safe summary row (raw delays excluded)."""
        factor = self.improvement_factor
        return {
            "fleet": self.spec.name,
            "spec_hash": self.spec_hash,
            "template": self.spec.template.name,
            "channel": self.spec.template.channel.describe(),
            "operators": self.spec.operators,
            "aps": self.spec.aps,
            "ap_capacity": self.spec.ap_capacity,
            "arrival": self.spec.arrival,
            "repetitions": self.spec.repetitions,
            "n_commands": self.n_commands,
            "admitted": self.admitted,
            "dropped_sessions": self.dropped_sessions,
            "tier": self.tier,
            "hot_aps": self.hot_aps,
            "cold_aps": self.cold_aps,
            "exact_sessions": self.exact_sessions,
            "analytic_sessions": self.analytic_sessions,
            "mean_rmse_no_forecast_mm": self.mean_rmse_no_forecast_mm,
            "mean_rmse_foreco_mm": self.mean_rmse_foreco_mm,
            "improvement_factor": factor if np.isfinite(factor) else None,
            "mean_late_fraction": self.mean_late_fraction,
            "p50_recovery": self.p50_recovery,
            "p99_recovery": self.p99_recovery,
            "p50_completion_s": self.p50_completion_s,
            "p99_completion_s": self.p99_completion_s,
            "ap_utilization": [float(u) for u in self.ap_utilization],
        }

    def to_text(self) -> str:
        """Compact multi-line service report for one fleet."""
        utilization = self.ap_utilization
        shown = sorted(sorted(range(len(utilization)), key=lambda i: utilization[i], reverse=True)[:8])
        ap_cells = "  ".join(f"ap{i} {utilization[i]:.2f}" for i in shown)
        if len(utilization) > 8:
            ap_cells += f"  ... ({len(utilization)} APs, busiest 8 shown)"
        lines = [
            self.spec.describe(),
            (
                f"  sessions: {self.admitted} admitted, {self.dropped_sessions} dropped | "
                f"{self.n_commands} commands/session"
            ),
        ]
        if self.tier != "exact":
            lines.append(
                f"  tier: {self.tier} | {self.hot_aps} hot / {self.cold_aps} cold APs | "
                f"{self.exact_sessions} exact + {self.analytic_sessions} analytic sessions"
            )
        lines += [
            (
                f"  RMSE: baseline {self.mean_rmse_no_forecast_mm:.2f} mm -> "
                f"FoReCo {self.mean_rmse_foreco_mm:.2f} mm "
                f"(x{self.improvement_factor:.1f}, late {self.mean_late_fraction:.2f})"
            ),
            (
                f"  recovery: p50 {self.p50_recovery:.2f}, p99 {self.p99_recovery:.2f} | "
                f"completion: p50 {self.p50_completion_s:.1f} s, p99 {self.p99_completion_s:.1f} s"
            ),
            f"  AP utilization: {ap_cells}",
        ]
        return "\n".join(lines)


# ------------------------------------------------------------------ schedule
@dataclass
class _Session:
    """One admitted operator-session inside a fleet realisation."""

    operator: int
    repetition: int
    offset_slots: int
    ap: int
    flat: int = -1  # row index in the stacked delay batch (set after admission)


@dataclass
class FleetExecution:
    """What :meth:`FleetEngine.execute` returns for one set of admission plans.

    Every field is aligned with ``sessions``, the admitted sessions in flat
    operator-major order (each session's ``flat`` is its row here), except
    ``ap_utilization``, which holds one entry per AP.
    """

    sessions: list[_Session]
    #: Coupled ``(B, n)`` delay stack (``inf`` marks a lost command).
    delays_ms: np.ndarray
    #: Per-AP air-time utilisation, mean over repetitions, capped at 1.
    ap_utilization: tuple[float, ...]
    #: The session-kernel pass over ``delays_ms``: per-session metric
    #: columns, and a session's trajectories built on demand.
    outcomes: SimulationBatch
    #: Fleet start to last delivery, seconds.
    completion_time_s: tuple[float, ...]


class AdmissionState:
    """Per-AP admitted start offsets of one repetition, for a placement rule to read.

    Every session occupies exactly ``n_commands`` consecutive command slots,
    so the number of sessions active on an AP at slot ``offset`` is a
    window count over that AP's (nondecreasing) admitted offsets: the ones
    still active are a suffix, found by bisection.  O(N log N) overall,
    which keeps admission negligible at city scale.
    """

    def __init__(self, fleet: FleetSpec, n_commands: int) -> None:
        self.n_commands = int(n_commands)
        self.capacity = fleet.ap_capacity
        self.aps = fleet.aps
        self._admitted: list[list[int]] = [[] for _ in range(fleet.aps)]

    def active(self, ap: int, offset: int) -> int:
        """Sessions active on ``ap`` at command slot ``offset``."""
        offsets = self._admitted[ap]
        return len(offsets) - bisect_right(offsets, offset - self.n_commands)

    def admit(self, ap: int, offset: int) -> None:
        """Record an admitted session on ``ap`` starting at ``offset``."""
        insort(self._admitted[ap], offset)


def static_cap(state: AdmissionState, home_ap: int, offset: int) -> int | None:
    """The fleet rule: the home AP while it has a free slot, else drop."""
    return home_ap if state.active(home_ap, offset) < state.capacity else None


_State = TypeVar("_State", bound=AdmissionState)


def admit_arrivals(
    fleet: FleetSpec,
    n_commands: int,
    place: Callable[[_State, int, int], int | None],
    new_state: Callable[[], _State],
    until_s: float | None,
) -> tuple[list[list[_Session]], list[int], list[int]]:
    """The admission pass, for the fleet rule and every service policy.

    Per repetition, arrivals are quantised to command slots and offered in
    slot order, ties broken by operator index, to ``place(state, home_ap,
    offset)``, which returns the AP that takes the session (its home AP
    ``operator % aps`` or another one, a migration) or ``None`` to drop it.
    ``place`` sees only the decisions made before the arrival, through a
    fresh ``new_state()`` per repetition.  An arrival later than ``until_s``
    seconds ends the repetition's pass (one exactly at the horizon is still
    offered).  Operator 0 arrives first among ties, so the fleet rule
    admits at least one session per repetition.

    Returns the admitted sessions per repetition in operator order, and the
    slot offsets of the dropped and of the migrated arrivals.
    """
    period_s = fleet.template.foreco.command_period_ms / 1000.0
    plans: list[list[_Session]] = []
    dropped: list[int] = []
    migrated: list[int] = []
    for repetition in range(fleet.template.repetitions):
        offsets = np.floor(sample_arrival_times(fleet, repetition) / period_s).astype(int)
        state = new_state()
        admitted: list[_Session] = []
        for operator in np.argsort(offsets, kind="stable").tolist():
            offset = int(offsets[operator])
            if until_s is not None and offset * period_s > until_s:
                break
            home_ap = operator % fleet.aps
            ap = place(state, home_ap, offset)
            if ap is None:
                dropped.append(offset)
                continue
            state.admit(ap, offset)
            if ap != home_ap:
                migrated.append(offset)
            admitted.append(_Session(operator=operator, repetition=repetition, offset_slots=offset, ap=ap))
        admitted.sort(key=lambda session: session.operator)
        plans.append(admitted)
    return plans, dropped, migrated


def _plan(fleet: FleetSpec, n_commands: int) -> tuple[list[list[_Session]], int]:
    """Static admission plans for every repetition: (per-repetition plans, dropped)."""
    plans, dropped, _ = admit_arrivals(
        fleet, n_commands, static_cap, lambda: AdmissionState(fleet, n_commands), None
    )
    return plans, len(dropped)


def _lindley_backlog(work_ms: np.ndarray, period_ms: float) -> np.ndarray:
    """Backlog (ms of unfinished AP work) at the *start* of each slot.

    Vectorized Lindley recursion ``backlog[k+1] = max(0, backlog[k] +
    work[k] - period)`` via the reflection identity ``W_k = S_k - min(0,
    min_{j<=k} S_j)`` over the running sum ``S`` of ``work - period``.
    """
    increments = work_ms - period_ms
    running = np.cumsum(increments)
    backlog_after = running - np.minimum.accumulate(np.minimum(running, 0.0))
    backlog_start = np.empty_like(backlog_after)
    backlog_start[0] = 0.0
    backlog_start[1:] = backlog_after[:-1]
    return backlog_start


# --------------------------------------------------------------------- engine
class FleetEngine:
    """Resolves fleet specs of either tier into coupled multi-session runs, with caching.

    Parameters
    ----------
    sessions:
        The :class:`~repro.scenarios.SessionEngine` supplying datasets,
        trained forecasters and the template command stream (a private one
        is created when omitted).  The fleet engine never calls
        ``sessions.run`` — session results of fleet members are not
        individually cached or stored; the fleet result is the unit.
    store:
        Optional persistent :class:`~repro.scenarios.ResultStore`, held by
        the engine's :class:`~repro.scenarios.engine.ResultMemo`
        (:attr:`memo`).  Fleet results share the store (and its
        engine-epoch scheme) with session results: lookups go memory ->
        disk -> compute, computed fleets are written back immediately.
        The tier lives in the spec, so one engine serves mixed-tier sweeps.
    """

    def __init__(
        self,
        sessions: SessionEngine | None = None,
        store: "ResultStore | None" = None,
    ) -> None:
        self.sessions = sessions if sessions is not None else SessionEngine()
        self.memo = ResultMemo(store)

    # ------------------------------------------------------------------- run
    def run(self, fleet: FleetSpec) -> FleetResult:
        """Run one fleet (all repetitions, all admitted operators)."""
        return self.memo.fetch(fleet, self._compute)

    # --------------------------------------------------------------- compute
    def _compute(self, fleet: FleetSpec) -> FleetResult:
        """Plan, sample, couple and simulate one fleet from scratch, in its tier.

        The ``"exact"`` tier runs every admitted session through
        :meth:`execute`.  The ``"hybrid"`` tier classifies the APs (see
        :func:`~repro.fleet.hybrid.classify_aps`), runs the hot APs' sessions
        through :meth:`execute` (the coupling is per AP, so their rows are
        bit-identical to an exact run's) and serves the cold APs' sessions
        with :func:`~repro.fleet.hybrid.serve_cold`.  A hybrid fleet whose
        every AP classifies hot is the exact computation bit for bit.
        """
        n_commands = int(self.sessions.test_commands(fleet.template).shape[0])
        plans, dropped = _plan(fleet, n_commands)
        hot_aps = set(range(fleet.aps))
        if fleet.tier == "hybrid":
            hot_aps = {verdict.ap for verdict in classify_aps(fleet, plans, n_commands) if verdict.hot}
        hot = self.execute(fleet, [[s for s in plan if s.ap in hot_aps] for plan in plans])
        cold_plans = [[s for s in plan if s.ap not in hot_aps] for plan in plans]
        analytic = sum(len(plan) for plan in cold_plans)
        cold_rows: dict[tuple[int, int], tuple[float, float, float, float, float]] = {}
        utilization = hot.ap_utilization
        if analytic:
            cold_rows, cold_utilization = serve_cold(self.sessions, fleet, cold_plans, n_commands)
            utilization = tuple(
                u if ap in hot_aps else float(cold_utilization[ap]) for ap, u in enumerate(utilization)
            )

        # Hot and cold sessions merged in the canonical operator-major order.
        sessions = sorted(
            (session for plan in plans for session in plan),
            key=lambda session: (session.operator, session.repetition),
        )
        batch = hot.outcomes
        hot_rows = list(
            zip(
                batch.rmse_no_forecast_mm,
                batch.rmse_foreco_mm,
                batch.late_fraction,
                batch.recovery_fraction,
                hot.completion_time_s,
            )
        )
        rows = [
            hot_rows[s.flat] if s.ap in hot_aps else cold_rows[(s.operator, s.repetition)]
            for s in sessions
        ]
        rmse_nf, rmse_f, late, recovery, completion = (tuple(column) for column in zip(*rows))
        last = sessions[-1] if sessions else None
        return FleetResult(
            spec=fleet,
            spec_hash=fleet.spec_hash(),
            n_commands=n_commands,
            admitted=len(sessions),
            dropped_sessions=dropped,
            rmse_no_forecast_mm=rmse_nf,
            rmse_foreco_mm=rmse_f,
            late_fraction=late,
            recovery_fraction=recovery,
            completion_time_s=completion,
            ap_utilization=tuple(float(u) for u in utilization),
            tier=fleet.tier,
            hot_aps=len(hot_aps),
            cold_aps=fleet.aps - len(hot_aps),
            exact_sessions=len(hot.sessions),
            analytic_sessions=analytic,
            delays_ms=hot.delays_ms[last.flat].copy() if last is not None and last.ap in hot_aps else None,
        )

    def classify(self, fleet: FleetSpec) -> tuple[ApClassification, ...]:
        """The hot/cold verdicts the hybrid tier would use for this fleet."""
        n_commands = int(self.sessions.test_commands(fleet.template).shape[0])
        return classify_aps(fleet, _plan(fleet, n_commands)[0], n_commands)

    def execute(self, fleet: FleetSpec, plans: list[list[_Session]]) -> FleetExecution:
        """Execute admitted sessions: sample, couple, simulate, time completion.

        ``plans`` holds one list of admitted sessions per repetition, each in
        admission order; only a session's ``operator``, ``repetition``,
        ``offset_slots`` and ``ap`` are read (so migrated placements contend
        where they were placed).  Every admission rule — the static fleet
        rule, a service policy, the hybrid tier's hot-AP restriction — ends
        here, so it is the one place the pipeline runs:

        1. each session's base channel realisation is sampled with the same
           block-ordered per-repetition RNG stream a single-session run of
           its operator's channel spec would use (operator 0 consumes the
           template's own seeds), in one batched call;
        2. the sessions are coupled through their shared per-AP backlog;
        3. every session advances through one session-kernel pass;
        4. completion times are read off the coupled delays.

        Sessions are numbered operator-major (``flat``), so a
        single-operator fleet's rows align with ``SessionResult``'s.  Empty
        plans give an empty record with all-zero utilisation.
        """
        template = fleet.template
        commands = self.sessions.test_commands(template)
        n_commands = int(commands.shape[0])
        period = float(template.foreco.command_period_ms)
        sessions: list[_Session] = sorted(
            (session for plan in plans for session in plan),
            key=lambda session: (session.operator, session.repetition),
        )
        if not sessions:
            return FleetExecution(
                sessions=[],
                delays_ms=np.zeros((0, n_commands)),
                ap_utilization=(0.0,) * fleet.aps,
                outcomes=SimulationBatch(),
                completion_time_s=(),
            )
        for flat, session in enumerate(sessions):
            session.flat = flat

        base = sample_channel_delays_batch(
            template.channel, n_commands, _session_seeds(fleet, sessions), command_period_ms=period
        )
        coupled, utilization = self._couple(fleet, plans, base, n_commands, period)
        return FleetExecution(
            sessions=sessions,
            delays_ms=coupled,
            ap_utilization=utilization,
            outcomes=self._simulate(template, commands, coupled),
            completion_time_s=self._completion_times(sessions, coupled, n_commands, period),
        )

    def _couple(
        self,
        fleet: FleetSpec,
        plans: list[list[_Session]],
        base: np.ndarray,
        n_commands: int,
        period: float,
    ) -> tuple[np.ndarray, tuple[float, ...]]:
        """Add shared-AP queueing delay to the base realisations.

        Returns the coupled ``(B, n)`` delay stack plus per-AP utilisation
        (mean over repetitions of the per-slot air-time demand, capped at
        1).  Lost commands stay lost; delivered commands gain
        ``backlog[slot] + rank_in_slot * ap_service_ms`` milliseconds.
        Sessions are grouped by ``(repetition, ap)`` in one pass that keeps
        their admitted order, which is the order in-slot ranks follow.
        """
        service = float(fleet.ap_service_ms)
        coupled = base.copy()
        utilization = np.zeros((len(plans), fleet.aps))
        groups: dict[tuple[int, int], list[_Session]] = {}
        for repetition, admitted in enumerate(plans):
            for session in admitted:
                groups.setdefault((repetition, session.ap), []).append(session)
        for (repetition, ap), members in groups.items():
            # Running per-slot count of delivered commands: read before a
            # member adds its own, it is that member's in-slot rank; after
            # the last member, it is the AP's per-slot demand.
            count = np.zeros(max(s.offset_slots for s in members) + n_commands, dtype=np.int64)
            ranks = []
            for session in members:
                window = slice(session.offset_slots, session.offset_slots + n_commands)
                ranks.append(count[window].copy())
                count[window] += np.isfinite(base[session.flat])
            work = service * count
            backlog = _lindley_backlog(work, period)
            for session, rank in zip(members, ranks):
                row = base[session.flat]
                window = slice(session.offset_slots, session.offset_slots + n_commands)
                extra = backlog[window] + rank * service
                coupled[session.flat] = np.where(np.isfinite(row), row + extra, np.inf)
            utilization[repetition, ap] = float(np.minimum(work / period, 1.0).mean())
        return coupled, tuple(float(u) for u in utilization.mean(axis=0))

    def _simulate(
        self, template: ScenarioSpec, commands: np.ndarray, delays: np.ndarray
    ) -> SimulationBatch:
        """Execute the coupled delay stack through one session-kernel pass."""
        recovery = self.sessions.recovery(template)
        return BatchedRemoteControlSimulation(recovery, use_pid=template.use_pid).run(commands, delays)

    @staticmethod
    def _completion_times(
        sessions_flat: list[_Session],
        coupled: np.ndarray,
        n_commands: int,
        period: float,
    ) -> tuple[float, ...]:
        """Per-session completion times in seconds, fleet start to last delivery.

        A session's completion is the delivery time of its last delivered
        command on the global clock (arrival offset included); a session
        whose commands were all lost completes when its slot window ends.
        Row ``i`` of ``coupled`` belongs to ``sessions_flat[i]``.
        """
        arrivals = np.where(np.isfinite(coupled), np.arange(n_commands) * period + coupled, -np.inf)
        last_ms = arrivals.max(axis=1)
        last_ms[np.isneginf(last_ms)] = n_commands * period
        start_ms = np.array([session.offset_slots for session in sessions_flat]) * period
        return tuple(((start_ms + last_ms) / 1000.0).tolist())
