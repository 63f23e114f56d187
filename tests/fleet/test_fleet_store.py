"""Fleet results in the persistent store, sweeps and the CLI runner."""

from __future__ import annotations

import json

import numpy as np
import pytest
from oracles.serial import assert_replays_last_session

from repro.experiments.runner import run_experiments
from repro.fleet import FleetEngine, FleetSpec, get_fleet
from repro.scenarios import ResultStore, SweepExecutor, get_scenario

RUN_SECONDS = 8.0


@pytest.fixture()
def fleet():
    """A small deterministic fleet (short sessions keep the tests fast)."""
    return get_fleet("shared-ap").with_template(run_seconds=RUN_SECONDS)


def _assert_round_trips(computed, loaded):
    assert loaded is not None
    assert loaded.spec_hash == computed.spec_hash
    assert loaded.rmse_no_forecast_mm == computed.rmse_no_forecast_mm
    assert loaded.rmse_foreco_mm == computed.rmse_foreco_mm
    assert loaded.late_fraction == computed.late_fraction
    assert loaded.recovery_fraction == computed.recovery_fraction
    assert loaded.completion_time_s == computed.completion_time_s
    assert loaded.ap_utilization == computed.ap_utilization
    assert loaded.admitted == computed.admitted
    assert loaded.dropped_sessions == computed.dropped_sessions
    assert np.array_equal(loaded.delays_ms, computed.delays_ms)
    assert loaded.to_dict() == computed.to_dict()
    assert_replays_last_session(loaded, computed.spec.template)  # the last admitted session's row


def test_fleet_result_round_trips_bit_for_bit(tmp_path, fleet):
    store = ResultStore(tmp_path / "store")
    computed = FleetEngine(store=store).run(fleet)
    _assert_round_trips(computed, ResultStore(tmp_path / "store").get(fleet))


def test_fleet_shards_are_tagged_and_epoch_scoped(tmp_path, fleet):
    store = ResultStore(tmp_path / "store")
    FleetEngine(store=store).run(fleet)
    path = store.shard_path(fleet.spec_hash())
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["kind"] == "fleet"
    assert record["spec"]["kind"] == "fleet"
    assert f"epoch-{store.epoch}" in str(path)
    # a store opened at another epoch cannot see (or trust) the shard
    assert ResultStore(tmp_path / "store", epoch=store.epoch + 1).get(fleet) is None


def test_corrupted_fleet_shard_is_a_miss(tmp_path, fleet):
    store = ResultStore(tmp_path / "store")
    engine = FleetEngine(store=store)
    engine.run(fleet)
    path = store.shard_path(fleet.spec_hash())
    path.write_text('{"format": 1, "kind": "fleet"', encoding="utf-8")  # truncated
    fresh = ResultStore(tmp_path / "store")
    assert fresh.get(fleet) is None
    assert not path.exists()  # quarantined


def test_second_sweep_run_is_all_hits(tmp_path, fleet):
    specs = [fleet, get_fleet("peak-hour", operators=4).with_template(run_seconds=RUN_SECONDS)]
    first = SweepExecutor(jobs=2, store=ResultStore(tmp_path / "store")).run(specs)
    assert (first.store_hits, first.store_misses) == (0, 2)
    second = SweepExecutor(jobs=2, store=ResultStore(tmp_path / "store")).run(specs)
    assert (second.store_hits, second.store_misses) == (2, 0)
    for cold, warm in zip(first, second):
        _assert_round_trips(cold, warm)


def test_mixed_scenario_and_fleet_sweep(tmp_path, fleet):
    """One store, one sweep, both record kinds."""
    specs = [get_scenario("random-loss").with_(run_seconds=RUN_SECONDS), fleet]
    store = ResultStore(tmp_path / "store")
    sweep = SweepExecutor(jobs=2, store=store).run(specs)
    assert len(sweep) == 2
    assert len(store) == 2
    warm = SweepExecutor(store=ResultStore(tmp_path / "store")).run(specs)
    assert (warm.store_hits, warm.store_misses) == (2, 0)
    assert [row.to_dict() for row in warm] == [row.to_dict() for row in sweep]
    # the mixed table renders (fleet rows duck-type the session columns)
    assert fleet.name in sweep.to_table()


def test_worker_processes_match_serial(fleet):
    specs = [fleet, get_fleet("peak-hour", operators=4).with_template(run_seconds=RUN_SECONDS)]
    serial = SweepExecutor(jobs=1).run(specs)
    process = SweepExecutor(jobs=2).run(specs)
    assert [row.to_dict() for row in process] == [row.to_dict() for row in serial]


class TestRunner:
    def test_fleet_keyword_and_override_produce_reports(self):
        report = run_experiments(["fleet"], scale="ci", seed=42, jobs=2, fmt="text", fleet=2)
        assert "# fleet presets" in report
        assert "operators over" in report

    def test_fleet_json_document(self, tmp_path):
        document = json.loads(
            run_experiments(
                [], scale="ci", seed=42, jobs=2, fmt="json", fleet=2,
                store=str(tmp_path / "store"),
            )
        )
        fleets = document["fleets"]
        assert fleets and all(row["operators"] == 2 for row in fleets)
        assert document["store"]["misses"] == len(fleets)
        again = json.loads(
            run_experiments(
                [], scale="ci", seed=42, jobs=2, fmt="json", fleet=2,
                store=str(tmp_path / "store"), resume=True,
            )
        )
        assert again["store"]["hits"] == len(fleets)
        assert again["fleets"] == fleets

    def test_jobs_do_not_change_the_fleet_report(self):
        one = run_experiments(["fleet"], scale="ci", seed=7, jobs=1, fmt="json", fleet=3)
        four = run_experiments(["fleet"], scale="ci", seed=7, jobs=4, fmt="json", fleet=3)
        assert json.loads(one)["fleets"] == json.loads(four)["fleets"]
