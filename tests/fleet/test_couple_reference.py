"""The grouped AP coupling against the per-AP reference loop, bit for bit.

``FleetEngine._couple`` groups sessions by ``(repetition, ap)`` in one pass
and couples each group's rows at once.  The reference below is the per-AP
loop it replaced: for every repetition and every AP it filters the whole
admission plan, then couples member by member.  In-slot service ranks depend
on member order, so the two must agree exactly, not approximately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fleet import FleetEngine, get_fleet, operator_channel_spec
from repro.fleet.engine import _lindley_backlog, _plan, admit_arrivals
from repro.scenarios import SessionEngine, repetition_seed, sample_channel_delays_batch
from repro.service import ServiceState, get_service
from repro.service.policies import make_policy


def _couple_reference(fleet, plans, base, n_commands, period):
    """The per-AP coupling loop, one member row at a time."""
    service = float(fleet.ap_service_ms)
    coupled = base.copy()
    utilization = np.zeros((len(plans), fleet.aps))
    for repetition, admitted in enumerate(plans):
        for ap in range(fleet.aps):
            members = [session for session in admitted if session.ap == ap]
            if not members:
                continue
            total_slots = max(session.offset_slots for session in members) + n_commands
            active = np.zeros((len(members), total_slots), dtype=bool)
            for row, session in enumerate(members):
                offset = session.offset_slots
                active[row, offset : offset + n_commands] = np.isfinite(base[session.flat])
            work = service * active.sum(axis=0)
            backlog = _lindley_backlog(work, period)
            ranks = np.cumsum(active, axis=0) - active
            for row, session in enumerate(members):
                window = slice(session.offset_slots, session.offset_slots + n_commands)
                extra = backlog[window] + ranks[row, window] * service
                coupled[session.flat] = np.where(
                    active[row, window], base[session.flat] + extra, np.inf
                )
            utilization[repetition, ap] = float(np.minimum(work / period, 1.0).mean())
    return coupled, tuple(float(u) for u in utilization.mean(axis=0))


@pytest.fixture(scope="module")
def engine():
    return FleetEngine(sessions=SessionEngine())


def _base_delays(fleet, plans, n_commands, period):
    """Number the sessions operator-major and sample their channels."""
    sessions = sorted(
        (session for plan in plans for session in plan),
        key=lambda session: (session.operator, session.repetition),
    )
    for flat, session in enumerate(sessions):
        session.flat = flat
    seeds = [
        repetition_seed(operator_channel_spec(fleet, s.operator), s.repetition) for s in sessions
    ]
    return sample_channel_delays_batch(
        fleet.template.channel, n_commands, seeds, command_period_ms=period
    )


def _assert_matches_reference(engine, fleet, plans):
    n_commands = int(engine.sessions.test_commands(fleet.template).shape[0])
    period = float(fleet.template.foreco.command_period_ms)
    base = _base_delays(fleet, plans, n_commands, period)
    assert not np.isfinite(base).all()  # lost commands take part
    coupled, utilization = engine._couple(fleet, plans, base, n_commands, period)
    expected, expected_utilization = _couple_reference(fleet, plans, base, n_commands, period)
    assert np.array_equal(coupled, expected)
    assert utilization == expected_utilization


def test_multi_repetition_fleet_with_drops(engine):
    fleet = get_fleet(
        "shared-ap", operators=10, aps=3, ap_capacity=2, arrival="poisson", arrival_rate_hz=1.0
    ).with_template(run_seconds=8.0, repetitions=3)
    n_commands = int(engine.sessions.test_commands(fleet.template).shape[0])
    plans, dropped = _plan(fleet, n_commands)
    assert dropped > 0
    assert all(plans)
    _assert_matches_reference(engine, fleet, plans)


def test_migrated_service_admissions(engine):
    """Balancing-policy plans put sessions on an AP other than their home."""
    spec = (
        get_service("service-shared-ap")
        .with_template(scale="ci", repetitions=4)
        .with_(policy="utilization-threshold")
    )
    fleet = spec.fleet
    n_commands = int(engine.sessions.test_commands(fleet.template).shape[0])
    # The admission pass the service engine runs, under the spec's policy.
    plans, _, _ = admit_arrivals(
        fleet, n_commands, make_policy(spec).admit, lambda: ServiceState(spec, n_commands), None
    )
    sessions = [session for plan in plans for session in plan]
    assert any(session.ap != session.operator % fleet.aps for session in sessions)
    _assert_matches_reference(engine, fleet, plans)
