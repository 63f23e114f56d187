"""Fleet engine contracts: bit-equality, coupling, admission, determinism.

The load-bearing guarantee is the **single-operator bit-equality contract**:
a 1-operator fleet must reproduce :meth:`SessionEngine.run` on its template
exactly — same metric tuples, same delay trace — for every named preset and
every channel kind.  Contention is then pinned from the other side: a
shared-AP fleet must *differ* from the same operators run independently, in
a way the deterministic backlog model predicts.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles.serial import SerialFleetEngine

from repro.fleet import (
    FleetEngine,
    FleetSpec,
    get_fleet,
    operator_channel_spec,
)
from repro.fleet.engine import _plan, _Session
from repro.scenarios import (
    ScenarioSpec,
    SessionEngine,
    SweepExecutor,
    get_scenario,
    periodic_loss_channel,
    repetition_seed,
    sample_channel_delays_batch,
    scenario_names,
)

#: Short but loss-rich runs keep the preset cross fast (matches the batched
#: engine equality suite).
RUN_SECONDS = 8.0
REPETITIONS = 2


@pytest.fixture(scope="module")
def engines():
    """One shared SessionEngine + FleetEngine pair for the whole module."""
    sessions = SessionEngine()
    return sessions, FleetEngine(sessions=sessions)


def _solo(template) -> FleetSpec:
    """A single-operator fleet around ``template`` (contract: == session run)."""
    return FleetSpec(name="solo", template=template, operators=1, aps=1, ap_capacity=4)


def _assert_fleet_equals_session(fleet_result, session_result):
    assert fleet_result.rmse_no_forecast_mm == session_result.rmse_no_forecast_mm
    assert fleet_result.rmse_foreco_mm == session_result.rmse_foreco_mm
    assert fleet_result.late_fraction == session_result.late_fraction
    assert fleet_result.recovery_fraction == session_result.recovery_fraction
    assert np.array_equal(fleet_result.delays_ms, session_result.delays_ms)


@pytest.mark.parametrize("name", scenario_names())
def test_single_operator_fleet_equals_session_engine(engines, name):
    """1-operator fleets are bit-identical to SessionEngine for every preset."""
    sessions, fleets = engines
    template = get_scenario(name).with_(run_seconds=RUN_SECONDS, repetitions=REPETITIONS)
    _assert_fleet_equals_session(fleets.run(_solo(template)), sessions.run(template))


def test_single_operator_fleet_equals_session_engine_periodic_loss(engines):
    """The one channel kind no preset covers (periodic-loss) holds too."""
    sessions, fleets = engines
    template = get_scenario("clean").with_(
        run_seconds=RUN_SECONDS,
        repetitions=REPETITIONS,
        channel=periodic_loss_channel(period=40, burst_length=6),
    )
    _assert_fleet_equals_session(fleets.run(_solo(template)), sessions.run(template))


def test_single_operator_fleet_matches_serial_fallback(engines):
    """The seq2seq forecaster (an LSTM encoder-decoder) holds the contract too."""
    sessions, fleets = engines
    template = (
        get_scenario("bursty-loss")
        .with_(run_seconds=RUN_SECONDS, repetitions=2)
        .with_foreco(
            algorithm="seq2seq",
            algorithm_options={
                "encoder_units": 4,
                "decoder_units": 2,
                "epochs": 1,
                "max_training_windows": 40,
            },
        )
    )
    _assert_fleet_equals_session(fleets.run(_solo(template)), sessions.run(template))


def test_batched_equals_serial_fleet_execution(engines):
    """The serial per-session loop is the oracle for the kernel pass."""
    _, fleets = engines
    fleet = get_fleet("shared-ap").with_template(run_seconds=RUN_SECONDS)
    batched = FleetEngine(sessions=fleets.sessions).run(fleet)
    serial = SerialFleetEngine(sessions=fleets.sessions).run(fleet)
    assert batched.rmse_foreco_mm == serial.rmse_foreco_mm
    assert batched.rmse_no_forecast_mm == serial.rmse_no_forecast_mm
    assert batched.recovery_fraction == serial.recovery_fraction
    assert batched.completion_time_s == serial.completion_time_s
    assert np.array_equal(batched.delays_ms, serial.delays_ms)


class TestOperatorDecorrelation:
    def test_operator_zero_is_the_template(self):
        fleet = get_fleet("shared-ap")
        assert operator_channel_spec(fleet, 0) is fleet.template

    def test_other_operators_get_derived_seeds(self):
        fleet = get_fleet("shared-ap")
        seeds = {operator_channel_spec(fleet, i).seed for i in range(4)}
        assert len(seeds) == 4  # template seed + 3 distinct derivations

    def test_execute_encodes_the_channel_identity_once(self, engines, monkeypatch):
        """512 operators splice their seeds into one encoding of the template's identity."""
        _, fleets = engines
        fleet = get_fleet("city-scale", operators=512, aps=64, tier="exact")
        fleet = fleet.with_template(run_seconds=RUN_SECONDS)  # a fresh template: nothing cached
        plans, _ = _plan(fleet, int(fleets.sessions.test_commands(fleet.template).shape[0]))
        encodings = []
        identity = ScenarioSpec.channel_identity
        monkeypatch.setattr(
            ScenarioSpec, "channel_identity", lambda self: encodings.append(1) or identity(self)
        )
        run = fleets.execute(fleet, plans)
        assert {session.operator for session in run.sessions} == set(range(512))
        assert len(encodings) == 1


class TestCoupling:
    def test_rank_serialisation_on_a_shared_ap(self, engines):
        """Two always-delivering operators: op 1 waits exactly one service."""
        _, fleets = engines
        template = get_scenario("clean").with_(run_seconds=RUN_SECONDS, repetitions=1)
        fleet = FleetSpec(
            name="pair",
            template=template,
            operators=2,
            aps=1,
            ap_capacity=2,
            ap_service_ms=5.0,
        )
        result = FleetEngine(sessions=fleets.sessions).run(fleet)
        solo = fleets.run(_solo(template))
        # operator-major order: row 0 = operator 0, row 1 = operator 1; with
        # demand under budget (2 x 5 < 20 ms) the backlog is zero, so op 0
        # sees base delays and op 1 waits exactly rank * service = 5 ms.
        assert result.admitted == 2
        last = result.delays_ms  # last admitted session = operator 1
        assert np.allclose(last, np.asarray(solo.delays_ms) + 5.0)

    def test_execute_honours_each_sessions_ap(self, engines):
        """Sessions contend where they are placed, not at their home AP."""
        _, fleets = engines
        template = get_scenario("clean").with_(run_seconds=RUN_SECONDS, repetitions=1)
        fleet = FleetSpec(
            name="placed",
            template=template,
            operators=2,
            aps=2,
            ap_capacity=2,
            ap_service_ms=5.0,
        )
        # Homes are AP 0 and AP 1; both sessions are placed on AP 1.
        plans = [
            [
                _Session(operator=0, repetition=0, offset_slots=0, ap=1),
                _Session(operator=1, repetition=0, offset_slots=0, ap=1),
            ]
        ]
        run = FleetEngine(sessions=fleets.sessions).execute(fleet, plans)
        n_commands = run.delays_ms.shape[1]
        base = sample_channel_delays_batch(
            template.channel,
            n_commands,
            [repetition_seed(operator_channel_spec(fleet, op), 0) for op in (0, 1)],
            command_period_ms=float(template.foreco.command_period_ms),
        )
        assert [session.flat for session in run.sessions] == [0, 1]
        assert run.ap_utilization[0] == 0.0
        assert run.ap_utilization[1] > 0.0
        both = np.isfinite(base[0]) & np.isfinite(base[1])
        assert both.any()
        assert np.array_equal(run.delays_ms[0][both], base[0][both])
        assert np.array_equal(run.delays_ms[1][both], base[1][both] + fleet.ap_service_ms)

    def test_execute_of_empty_plans_is_an_empty_record(self, engines):
        _, fleets = engines
        fleet = get_fleet("shared-ap").with_template(run_seconds=2.0)
        run = FleetEngine(sessions=fleets.sessions).execute(fleet, [[], []])
        assert run.sessions == [] and run.outcomes.repetitions == 0
        assert run.outcomes.rmse_foreco_mm == run.outcomes.recovery_fraction == ()
        assert run.completion_time_s == ()
        assert run.ap_utilization == (0.0,) * fleet.aps
        assert run.delays_ms.shape[0] == 0

    def test_saturated_ap_accumulates_backlog(self):
        """Demand over budget grows delays linearly (Lindley drift)."""
        template = get_scenario("clean").with_(run_seconds=2.0, repetitions=1)
        fleet = FleetSpec(
            name="saturated",
            template=template,
            operators=2,
            aps=1,
            ap_capacity=2,
            ap_service_ms=15.0,  # 2 x 15 = 30 ms demand vs 20 ms budget
        )
        result = FleetEngine().run(fleet)
        delays = result.delays_ms  # operator 1's coupled delays
        # slot k starts with backlog 10k ms; op 1 additionally waits one
        # service behind op 0, so delay = base(1) + 10k + 15.
        n = result.n_commands
        expected = 1.0 + 10.0 * np.arange(n) + 15.0
        assert np.allclose(delays, expected)
        assert result.ap_utilization == (1.0,)

    def test_shared_ap_fleet_differs_from_independent_sessions(self, engines):
        """The acceptance contract: coupling changes what operators see."""
        sessions, _ = engines
        fleet = get_fleet("shared-ap").with_template(run_seconds=RUN_SECONDS)
        result = FleetEngine(sessions=sessions).run(fleet)
        independent = []
        for operator in range(fleet.operators):
            spec = operator_channel_spec(fleet, operator)
            independent.extend(sessions.run(spec).rmse_foreco_mm)
        assert result.admitted == fleet.operators
        assert result.rmse_foreco_mm != tuple(independent)
        assert result.mean_late_fraction > sessions.run(fleet.template).mean_late_fraction

    def test_coupling_never_shortens_delays(self, engines):
        """Contention only adds wait: coupled >= base wherever delivered."""
        _, fleets = engines
        fleet = get_fleet("shared-ap").with_template(run_seconds=RUN_SECONDS)
        engine = FleetEngine(sessions=fleets.sessions)
        result = engine.run(fleet)
        solo = fleets.sessions.run(operator_channel_spec(fleet, 3))
        base = np.asarray(solo.delays_ms)
        coupled = np.asarray(result.delays_ms)
        delivered = np.isfinite(base)
        assert np.array_equal(delivered, np.isfinite(coupled))
        assert np.all(coupled[delivered] >= base[delivered])


class TestAdmission:
    def test_capacity_drops_excess_simultaneous_sessions(self):
        template = get_scenario("clean").with_(run_seconds=2.0, repetitions=1)
        fleet = FleetSpec(
            name="overfull", template=template, operators=5, aps=1, ap_capacity=2
        )
        result = FleetEngine().run(fleet)
        assert result.admitted == 2
        assert result.dropped_sessions == 3
        assert len(result.rmse_foreco_mm) == 2

    def test_disjoint_sessions_reuse_capacity(self):
        """Sessions that never overlap in time are all admitted."""
        template = get_scenario("clean").with_(run_seconds=2.0, repetitions=1)
        fleet = FleetSpec(
            name="spread",
            template=template,
            operators=6,
            aps=1,
            ap_capacity=1,
            arrival="poisson",
            arrival_rate_hz=0.05,  # ~20 s mean gap vs 2 s sessions
        )
        result = FleetEngine().run(fleet)
        assert result.admitted + result.dropped_sessions == 6
        assert result.admitted >= 4  # overlap is rare at this rate


class TestMetricsAndDeterminism:
    def test_result_shapes_and_percentiles(self):
        fleet = get_fleet("peak-hour").with_template(run_seconds=RUN_SECONDS)
        result = FleetEngine().run(fleet)
        count = result.admitted
        for metric in (
            result.rmse_no_forecast_mm,
            result.rmse_foreco_mm,
            result.late_fraction,
            result.recovery_fraction,
            result.completion_time_s,
        ):
            assert len(metric) == count
        assert len(result.ap_utilization) == fleet.aps
        assert all(0.0 <= u <= 1.0 for u in result.ap_utilization)
        assert result.p99_recovery <= result.p50_recovery
        assert result.p50_completion_s <= result.p99_completion_s
        assert result.repetitions == count
        row = result.to_dict()
        assert row["fleet"] == fleet.name
        assert row["admitted"] == count
        import json

        json.dumps(row, allow_nan=False)

    def test_completion_time_of_a_clean_solo_session(self):
        template = get_scenario("clean").with_(run_seconds=2.0, repetitions=1)
        result = FleetEngine().run(_solo(template))
        n = result.n_commands
        period_ms = template.foreco.command_period_ms
        expected = ((n - 1) * period_ms + 1.0) / 1000.0  # last slot + 1 ms delay
        assert result.completion_time_s == (pytest.approx(expected),)

    def test_sweep_jobs_do_not_change_results(self):
        specs = [
            get_fleet("shared-ap").with_template(run_seconds=RUN_SECONDS),
            get_fleet("peak-hour", operators=4).with_template(run_seconds=RUN_SECONDS),
            get_scenario("random-loss").with_(run_seconds=RUN_SECONDS),
        ]
        serial = SweepExecutor(jobs=1).run(specs)
        fanned = SweepExecutor(jobs=4).run(specs)
        assert [row.to_dict() for row in serial] == [row.to_dict() for row in fanned]

    def test_engine_caches_by_spec_hash(self):
        engine = FleetEngine()
        fleet = get_fleet("shared-ap").with_template(run_seconds=RUN_SECONDS)
        first = engine.run(fleet)
        # A renamed fleet hits the cache without recomputing, under its own spec.
        renamed = fleet.with_(name="renamed")
        second = engine.run(renamed)
        assert second.spec is renamed
        for column in ("rmse_no_forecast_mm", "rmse_foreco_mm", "late_fraction", "recovery_fraction"):
            assert getattr(second, column) is getattr(first, column)
        assert second.delays_ms is first.delays_ms
        assert engine.memo.cached(fleet) is first
        engine.memo.clear()
        assert engine.memo.cached(fleet) is None
