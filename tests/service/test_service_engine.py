"""ServiceEngine: live replay determinism, fleet anchoring, store round-trips."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from oracles.service import snapshots_per_slot
from repro.fleet import FleetEngine, get_fleet, sample_arrival_times
from repro.fleet.engine import _Session
from repro.scenarios import ResultStore, SessionEngine, SweepExecutor
from repro.service import (
    ServiceEngine,
    ServiceResult,
    ServiceSpec,
    get_service,
    pace_snapshots,
    policy_names,
    service_names,
)


@pytest.fixture(scope="module")
def spec() -> ServiceSpec:
    return get_service("service-shared-ap").with_template(scale="ci")


@pytest.fixture(scope="module")
def result(spec) -> ServiceResult:
    return ServiceEngine().run(spec)


class TestDeterminism:
    def test_two_invocations_are_bit_identical(self, spec, result):
        again = ServiceEngine().run(spec)
        assert again.to_dict() == result.to_dict()
        assert again.snapshots == result.snapshots

    def test_jobs_do_not_change_results(self, spec):
        """Serving through 1 or 4 sweep workers is bit-identical."""
        specs = [spec.with_(policy=p) for p in ("static-cap", "utilization-threshold")]
        serial = SweepExecutor(jobs=1).run(specs)
        fanned = SweepExecutor(jobs=4).run(specs)
        for a, b in zip(serial, fanned):
            assert a.to_dict() == b.to_dict()

    def test_engine_memory_cache(self, spec):
        engine = ServiceEngine()
        assert engine.run(spec) is engine.run(spec)
        engine.memo.clear()
        assert engine.memo.cached(spec) is None


class TestFleetAnchor:
    def test_static_cap_reproduces_fleet_admissions(self):
        """The static-cap service is the fleet engine's run, bit for bit."""
        fleet = get_fleet("shared-ap", operators=6, arrival="poisson",
                          arrival_rate_hz=0.3).with_template(scale="ci")
        service = ServiceEngine().run(ServiceSpec(fleet=fleet, policy="static-cap"))
        baseline = FleetEngine().run(fleet)
        assert service.admitted == baseline.admitted
        assert service.dropped_sessions == baseline.dropped_sessions
        assert service.migrated_sessions == 0
        assert service.rmse_no_forecast_mm == baseline.rmse_no_forecast_mm
        assert service.rmse_foreco_mm == baseline.rmse_foreco_mm
        assert service.late_fraction == baseline.late_fraction
        assert service.completion_time_s == baseline.completion_time_s
        assert service.recovery_fraction == baseline.recovery_fraction
        assert service.ap_utilization == baseline.ap_utilization


class TestAccounting:
    def test_session_conservation(self, result):
        assert result.offered == result.spec.fleet.operators * result.spec.repetitions
        assert result.admitted + result.dropped_sessions == result.offered
        assert 0 <= result.migrated_sessions <= result.admitted
        assert result.drop_rate == pytest.approx(result.dropped_sessions / result.offered)
        assert len(result.recovery_fraction) == result.admitted
        assert len(result.completion_time_s) == result.admitted
        assert len(result.ap_utilization) == result.spec.fleet.aps

    def test_balancing_policy_migrates_on_the_anchor_preset(self, spec):
        """The anchor workload actually exercises migration (not a no-op knob)."""
        crowded = spec.with_template(repetitions=4)
        threshold = ServiceEngine().run(crowded.with_(policy="utilization-threshold"))
        static = ServiceEngine().run(crowded.with_(policy="static-cap"))
        assert threshold.migrated_sessions > 0
        assert static.migrated_sessions == 0
        assert threshold.dropped_sessions < static.dropped_sessions

    def test_until_truncates_the_admission_horizon(self, spec, result):
        truncated = ServiceEngine().run(spec.with_(until_s=1e-6))
        # Arrivals past the horizon never enter the service: they are
        # neither admitted nor dropped, so nothing was offered at all.
        assert truncated.admitted == 0
        assert truncated.dropped_sessions == 0
        assert truncated.offered == 0
        assert truncated.drop_rate == 0.0
        assert truncated.p99_recovery == 0.0
        assert all(u == 0.0 for u in truncated.ap_utilization)
        # A horizon past every arrival changes nothing but the spec hash.
        unbounded = ServiceEngine().run(spec.with_(until_s=1e6))
        assert unbounded.admitted == result.admitted
        assert unbounded.recovery_fraction == result.recovery_fraction

    def test_an_arrival_exactly_at_the_horizon_is_offered(self, spec):
        """The horizon cut is strict: an arrival at ``until_s`` is still ruled on."""
        single = spec.with_template(repetitions=1)
        fleet = single.fleet
        period_s = fleet.template.foreco.command_period_ms / 1000.0
        offsets = np.sort(np.floor(sample_arrival_times(fleet, 0) / period_s).astype(int))
        until_s = int(offsets[3]) * period_s
        assert offsets[4] > offsets[3]
        assert until_s == pytest.approx(15.38)
        engine = ServiceEngine()
        assert engine.run(single.with_(until_s=until_s)).offered == 4
        assert engine.run(single.with_(until_s=float(np.nextafter(until_s, 0)))).offered == 3


class TestSnapshots:
    def test_stream_is_monotone_and_consistent(self, spec, result):
        snaps = result.snapshots
        assert len(snaps) >= 2
        times = [s.time_s for s in snaps]
        assert times == sorted(times)
        for s in snaps:
            assert s.admitted + s.dropped <= result.offered
            assert s.migrated <= s.admitted
            assert 0 <= s.completed <= s.admitted
            assert len(s.ap_utilization) == spec.fleet.aps
        final = snaps[-1]
        assert final.admitted == result.admitted
        assert final.dropped == result.dropped_sessions
        assert final.migrated == result.migrated_sessions
        assert final.completed == result.admitted
        assert final.active_sessions == 0
        assert final.rolling_p99_recovery == pytest.approx(result.p99_recovery)

    def test_cadence_follows_snapshot_every_slots(self, spec):
        coarse = ServiceEngine().run(spec.with_(snapshot_every_slots=200))
        fine = ServiceEngine().run(spec.with_(snapshot_every_slots=25))
        assert len(fine.snapshots) > len(coarse.snapshots)

    def test_pacing_is_a_pure_display_shim(self, result):
        sleeps: list[float] = []
        clock = iter(float(i) for i in range(10_000))
        paced = list(
            pace_snapshots(
                result.snapshots[:4],
                speedup=1000.0,
                sleep=sleeps.append,
                clock=lambda: next(clock),
            )
        )
        assert paced == list(result.snapshots[:4])
        assert all(s >= 0.0 for s in sleeps)


@pytest.fixture(scope="module")
def sessions() -> SessionEngine:
    return SessionEngine()


@pytest.mark.parametrize("until_s", [None, 0.5, 30.0], ids=["unbounded", "until-0.5s", "until-30s"])
@pytest.mark.parametrize("repetitions", [1, 3])
@pytest.mark.parametrize("policy", policy_names())
@pytest.mark.parametrize("preset", service_names())
def test_snapshots_equal_the_per_slot_oracle(preset, policy, repetitions, until_s, sessions, monkeypatch):
    """The whole-array snapshot stream equals the per-slot loop, field for field."""
    calls = []
    vectorised = ServiceEngine._snapshots

    def recording(*args):
        calls.append((args, vectorised(*args)))
        return calls[-1][1]

    monkeypatch.setattr(ServiceEngine, "_snapshots", staticmethod(recording))
    spec = get_service(preset).with_template(scale="ci", repetitions=repetitions)
    result = ServiceEngine(sessions=sessions).run(spec.with_(policy=policy, until_s=until_s))
    [(args, snapshots)] = calls
    assert snapshots == result.snapshots == snapshots_per_slot(*args)


@st.composite
def _admission_records(draw):
    aps, repetitions = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    spec = ServiceSpec(snapshot_every_slots=draw(st.integers(1, 7))).with_fleet(aps=aps)
    spec = spec.with_template(repetitions=repetitions)
    offsets = st.integers(0, 40)
    sessions = draw(
        st.lists(
            st.builds(
                _Session,
                operator=st.integers(0, 9),
                repetition=st.integers(0, repetitions - 1),
                offset_slots=offsets,
                ap=st.integers(0, aps - 1),
            ),
            max_size=30,
        )
    )
    period_s = spec.fleet.template.foreco.command_period_ms / 1000.0
    # Completions land on whole command slots, so some fall exactly on a sample.
    completions = tuple(
        (draw(st.integers(0, 80)) * period_s, draw(st.floats(0.0, 1.0))) for _ in sessions
    )
    dropped, migrated = draw(st.lists(offsets, max_size=10)), draw(st.lists(offsets, max_size=10))
    n_commands = draw(st.integers(1, 20))
    return spec, n_commands, sessions, completions, [s.offset_slots for s in sessions], dropped, migrated


@settings(max_examples=100, deadline=None)
@given(_admission_records())
def test_snapshots_equal_the_per_slot_oracle_on_random_records(record):
    """Overloaded APs (utilisation past the cap) and completions on sample instants included."""
    assert ServiceEngine._snapshots(*record) == snapshots_per_slot(*record)


class TestStore:
    def test_round_trip_is_bit_identical(self, spec, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = ServiceEngine(store=store).run(spec)
        fresh = ServiceEngine(store=store)
        again = fresh.run(spec)
        assert again.to_dict() == first.to_dict()
        assert again.snapshots == first.snapshots
        assert again.spec == spec

    def test_empty_service_round_trips(self, spec, tmp_path):
        store = ResultStore(tmp_path / "store")
        empty_spec = spec.with_(until_s=1e-6)
        first = ServiceEngine(store=store).run(empty_spec)
        again = ServiceEngine(store=store).run(empty_spec)
        assert first.admitted == 0
        assert again.to_dict() == first.to_dict()

    def test_sweep_executor_routes_service_specs(self, spec, tmp_path):
        store = ResultStore(tmp_path / "store")
        specs = [spec, spec.with_(policy="utilization-threshold")]
        cold = SweepExecutor(jobs=2, store=store).run(specs)
        assert cold.store_misses == 2
        warm = SweepExecutor(jobs=2, store=store).run(specs)
        assert warm.store_hits == 2 and warm.store_misses == 0
        for a, b in zip(cold, warm):
            assert a.to_dict() == b.to_dict()


class TestFacade:
    def test_serve_accepts_spec_and_preset(self, spec, result):
        by_spec = repro.serve(spec)
        assert by_spec.to_dict() == result.to_dict()
        by_name = repro.serve("service-shared-ap")
        assert by_name.spec.policy == "static-cap"

    def test_serve_until_and_store(self, spec, tmp_path):
        first = repro.serve(spec, until=1e-6, store=tmp_path / "store")
        assert first.admitted == 0
        again = repro.serve(spec, until=1e-6, store=tmp_path / "store")
        assert again.to_dict() == first.to_dict()

    def test_text_rendering_mentions_the_essentials(self, result):
        text = result.to_text()
        assert "admitted" in text
        assert "drop rate" in text
        assert "snapshots" in text
