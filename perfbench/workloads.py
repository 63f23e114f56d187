"""The benchmark's four workloads, each driven through public entry points.

A workload derives every input from its seed, warms the library's caches in
:meth:`Workload.setup` (the cold cost ``setup_s`` measures), and then serves
*requests*: one closed-loop call into the library whose result is digested
and checked.  The digest covers the result tuples and spec hashes bit for
bit, so any change to a result for an unchanged spec shows as a mismatch.

Operations are operator-sessions: a request's ``sessions`` count is what it
attempted, and a request whose digest or checks fail counts all of them as
failed.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.experiments.common import (
    FIG8_DURATIONS,
    FIG8_PROBABILITIES,
    FIG8_ROBOT_COUNTS,
    base_scenario,
)
from repro.fleet import get_fleet
from repro.scenarios import (
    SessionEngine,
    get_scale,
    get_scenario,
    repetition_seed,
    sample_channel_delays_batch,
    scenario_grid,
    wireless_channel,
)
from repro.service import get_service, policy_names


@dataclass
class Outcome:
    """What one request produced, reduced for judging and metrics."""

    digest: str
    #: Operator-sessions attempted (dropped sessions included).
    sessions: int
    #: Operator-session slots computed.
    slots: int
    #: Slots per session: a request advances its sessions this many steps.
    steps: int
    problems: list[str] = field(default_factory=list)
    #: Per-decision latencies, for workloads that time single decisions.
    latencies_ns: np.ndarray | None = None


class _Digest:
    """SHA-256 over spec hashes, integers and float arrays (exact bits)."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def text(self, value: str) -> None:
        self._hash.update(value.encode("utf-8") + b"\0")

    def ints(self, *values: int) -> None:
        self._hash.update(np.asarray(values, dtype=np.int64).tobytes())

    def floats(self, values) -> None:
        array = np.ascontiguousarray(values, dtype=np.float64)
        self.ints(array.size)
        self._hash.update(array.tobytes())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _digest_row(digest: _Digest, row) -> list[str]:
    """Digest one session/fleet/service row; return the problems it shows."""
    digest.text(row.spec_hash)
    digest.ints(row.n_commands)
    tuples = [row.rmse_no_forecast_mm, row.rmse_foreco_mm, row.late_fraction, row.recovery_fraction]
    tuples += [getattr(row, name) for name in ("completion_time_s", "ap_utilization") if hasattr(row, name)]
    for values in tuples:
        digest.floats(values)
    if not all(np.isfinite(values).all() for values in tuples if len(values)):
        return [f"non-finite metric in {row.spec_hash[:12]}"]
    return []


class Workload:
    """Base class: a seeded input set and the request that exercises it."""

    name = ""
    why = ""
    #: Whether :meth:`replay` re-serves a request from a warm store.
    replays = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = int(seed)
        self.workdir = workdir

    def spec(self):
        """The scenario whose datasets and master forecaster set-up warms."""
        raise NotImplementedError

    def setup(self) -> None:
        """Cold set-up: synthesise the seed's datasets and train the master."""
        self.engine = SessionEngine()
        self.engine.test_commands(self.spec())
        self.engine.trained_forecaster(self.spec())

    def prepare(self) -> None:
        """Build the request inputs (untimed)."""

    def request(self):
        """Run one request and return the library's raw result."""
        raise NotImplementedError

    def summarize(self, result) -> Outcome:
        """Digest and check one raw result."""
        raise NotImplementedError

    def replay(self) -> None:
        """Re-serve the last request from a warm store (traced run only)."""

    def cleanup(self) -> None:
        """Release what the last request left on disk."""


class HeatmapSweep(Workload):
    """The Fig. 8 ci grid through ``repro.sweep`` into a fresh result store."""

    name = "heatmap-sweep"
    replays = True
    why = (
        "27 specs x 2 reps x 2011 slots: many small-B kernel calls, so the recovery kernel and "
        "channel sampling dominate; stacking the kernel across specs shows here"
    )

    def spec(self):
        scale = get_scale("ci")
        return base_scenario(
            "fig8",
            scale,
            self.seed,
            None,
            channel=wireless_channel(),
            repetitions=scale.heatmap_repetitions,
            run_seconds=scale.run_seconds * 2,
        )

    def prepare(self) -> None:
        self.specs = scenario_grid(
            self.spec(),
            {
                "channel.n_robots": FIG8_ROBOT_COUNTS,
                "channel.probability": FIG8_PROBABILITIES,
                "channel.duration_slots": FIG8_DURATIONS,
            },
        )
        self.store_dir: Path | None = None

    def request(self):
        self.cleanup()
        self.store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        return repro.sweep(self.specs, jobs=1, store=self.store_dir)

    def summarize(self, result) -> Outcome:
        digest = _Digest()
        problems = []
        if len(result) != len(self.specs) or result.store_hits != 0:
            problems.append(
                f"expected {len(self.specs)} fresh rows, got {len(result)} ({result.store_hits} hits)"
            )
        for spec, row in zip(self.specs, result):
            if row.spec_hash != spec.spec_hash() or row.repetitions != spec.repetitions:
                problems.append(f"row for {spec.spec_hash()[:12]} does not match its spec")
            problems += _digest_row(digest, row)
        sessions = sum(row.repetitions for row in result)
        steps = result[0].n_commands if len(result) else 0
        return Outcome(digest.hexdigest(), sessions, sessions * steps, steps, problems)

    def replay(self) -> None:
        result = repro.sweep(self.specs, jobs=1, store=self.store_dir)
        if result.store_hits != len(self.specs):
            raise AssertionError(f"warm replay served {result.store_hits}/{len(self.specs)} from the store")

    def cleanup(self) -> None:
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None


class FleetExact(Workload):
    """``city-scale`` forced to the exact tier: 512 operators, 64 APs, one pass."""

    name = "fleet-exact"
    why = (
        "512 operators / 64 APs in one B=512 exact pass: forward kinematics dominates and the "
        "kernel is amortised, so FK stacking shows here and kernel stacking should not"
    )

    def spec(self):
        return self.fleet.template

    def setup(self) -> None:
        self.fleet = get_fleet("city-scale", operators=512, aps=64, tier="exact", seed=self.seed)
        super().setup()

    def request(self):
        return repro.run_fleet(self.fleet)

    def summarize(self, result) -> Outcome:
        digest = _Digest()
        digest.ints(result.admitted, result.dropped_sessions)
        problems = _digest_row(digest, result)
        offered = self.fleet.operators * self.fleet.template.repetitions
        if result.tier != "exact" or result.admitted + result.dropped_sessions != offered:
            problems.append(f"{result.admitted}+{result.dropped_sessions} sessions != {offered} offered")
        if len(result.rmse_foreco_mm) != result.admitted:
            problems.append("metric tuples do not cover the admitted sessions")
        slots = result.admitted * result.n_commands
        return Outcome(digest.hexdigest(), offered, slots, result.n_commands, problems)


class ServicePolicies(Workload):
    """``service-shared-ap`` widened to 96 operators / 24 APs, under every policy."""

    name = "service-policies"
    why = (
        "96 operators / 24 APs at 2.4 Hz under all three admission policies: online DES admission "
        "(forecast-aware refits per arrival) beside a mid-size kernel pass, with drops and migrations"
    )

    def spec(self):
        return self.specs[0].template

    def setup(self) -> None:
        base = get_service("service-shared-ap").with_fleet(operators=96, aps=24, arrival_rate_hz=2.4)
        base = base.with_template(seed=self.seed)
        self.specs = [base.with_(policy=policy) for policy in policy_names()]
        super().setup()

    def request(self):
        return repro.sweep(self.specs, jobs=1)

    def summarize(self, result) -> Outcome:
        digest = _Digest()
        problems = []
        offered = slots = steps = 0
        for spec, row in zip(self.specs, result, strict=True):
            digest.ints(row.admitted, row.dropped_sessions, row.migrated_sessions)
            problems += _digest_row(digest, row)
            expected = spec.fleet.operators * spec.repetitions
            if row.admitted + row.dropped_sessions != expected or row.migrated_sessions > row.admitted:
                problems.append(f"{spec.policy}: admission counts do not add up to {expected}")
            if spec.policy == "static-cap" and row.migrated_sessions:
                problems.append("static-cap migrated a session")
            offered += expected
            slots += row.admitted * row.n_commands
            steps = row.n_commands
        return Outcome(digest.hexdigest(), offered, slots, steps, problems)


@dataclass
class OnlineResult:
    """Slot-by-slot recovery of every session, with per-decision latencies."""

    executed: np.ndarray
    forecasted: np.ndarray
    latencies_ns: np.ndarray


class OnlineRecovery(Workload):
    """The deployed path: ``ForecoRecovery.process_slot``, one slot at a time."""

    name = "online-recovery"
    why = (
        "40 jammer sessions x 1500 slots fed to process_slot one decision at a time: the only "
        "serial use of the recovery layer, timed per decision against the 20 ms budget"
    )
    sessions = 40
    slots = 1500

    def spec(self):
        return get_scenario("jammer", seed=self.seed)

    def prepare(self) -> None:
        spec = self.spec()
        self.commands = self.engine.test_commands(spec)[: self.slots]
        seeds = [repetition_seed(spec, session) for session in range(self.sessions)]
        self.delays = sample_channel_delays_batch(
            spec.channel, self.slots, seeds, command_period_ms=spec.foreco.command_period_ms
        )
        self.rows = [self.commands[index] for index in range(self.slots)]
        self.reference = None

    def request(self) -> OnlineResult:
        spec = self.spec()
        n_joints = self.commands.shape[1]
        executed = np.empty((self.sessions, self.slots, n_joints))
        forecasted = np.zeros((self.sessions, self.slots), dtype=bool)
        latencies = np.empty(self.sessions * self.slots, dtype=np.int64)
        clock = time.perf_counter_ns
        index = 0
        for session in range(self.sessions):
            recovery = self.engine.recovery(spec)
            recovery.reset(n_joints, seed_history=self.commands[:1])
            delays = self.delays[session].tolist()
            for slot, command in enumerate(self.rows):
                start = clock()
                decision = recovery.process_slot(command, delays[slot])
                latencies[index] = clock() - start
                index += 1
                executed[session, slot] = decision.executed_command
                forecasted[session, slot] = decision.forecasted
        return OnlineResult(executed, forecasted, latencies)

    def summarize(self, result: OnlineResult) -> Outcome:
        if self.reference is None:
            # The batched kernel is bit-identical to the serial path by
            # contract, so it is an independent oracle for every seed.
            recovery = self.engine.recovery(self.spec())
            self.reference = recovery.process_stream_batch(self.commands, self.delays)
        problems = []
        if not np.array_equal(result.executed, self.reference.executed):
            problems.append("executed commands differ from the batched kernel")
        if not np.array_equal(result.forecasted, self.reference.forecasted):
            problems.append("forecast decisions differ from the batched kernel")
        digest = _Digest()
        digest.text(self.spec().spec_hash())
        digest.floats(result.executed)
        digest.ints(*result.forecasted.sum(axis=1))
        return Outcome(
            digest.hexdigest(),
            self.sessions,
            self.sessions * self.slots,
            self.slots,
            problems,
            latencies_ns=result.latencies_ns,
        )


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (HeatmapSweep, FleetExact, ServicePolicies, OnlineRecovery)
}
