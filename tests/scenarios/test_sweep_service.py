"""SweepExecutor routing for mixed scenario/fleet/service sweeps.

The executor dispatches rows by spec type: plain scenario specs go to the
session engine, ``FleetSpec`` values to the fleet engine (both tiers) and
``ServiceSpec`` values to the live-service engine — all three sharing one
session engine and one store, for any worker count.  Anything else is a
``ConfigurationError`` before the store is read.
"""

from __future__ import annotations

import pytest

import repro
from repro.errors import ConfigurationError
from repro.fleet import FleetResult, get_fleet, get_plan
from repro.scenarios import ResultStore, SessionResult, SweepExecutor, get_scenario
from repro.scenarios.engine import kernel_group_key
from repro.service import ServiceResult, get_service


def _service_spec():
    return get_service("service-shared-ap").with_template(scale="ci").with_(until_s=60.0)


def test_mixed_sweep_routes_by_store_kind(tmp_path):
    specs = [
        get_scenario("clean"),
        get_fleet("shared-ap", operators=2).with_template(scale="ci"),
        _service_spec(),
    ]
    store = ResultStore(tmp_path / "store")
    sweep = SweepExecutor(jobs=2, store=store).run(specs)
    assert isinstance(sweep[0], SessionResult)
    assert isinstance(sweep[1], FleetResult)
    assert isinstance(sweep[2], ServiceResult)
    assert sweep.store_misses == 3
    # A warm rerun resolves every kind from the shared store.
    warm = SweepExecutor(jobs=2, store=store).run(specs)
    assert warm.store_hits == 3 and warm.store_misses == 0
    for cold_row, warm_row in zip(sweep, warm):
        assert cold_row.to_dict() == warm_row.to_dict()


@pytest.mark.parametrize("jobs", [2, 4])
def test_service_rows_match_across_jobs(jobs):
    specs = [_service_spec(), _service_spec().with_(policy="utilization-threshold")]
    serial = SweepExecutor(jobs=1).run(specs)
    fanned = SweepExecutor(jobs=jobs).run(specs)
    for row_s, row_f in zip(serial, fanned):
        assert row_s.to_dict() == row_f.to_dict()


def test_fanned_out_sweep_leaves_every_memo_as_an_inline_run_would(tmp_path):
    clean = get_scenario("clean").with_(repetitions=1)
    specs = [
        clean,
        clean.with_(seed=clean.seed + 1),  # a second kernel group
        get_fleet("shared-ap", operators=2).with_template(scale="ci"),
        _service_spec(),
        clean,  # a repeat shares its first row
    ]
    assert len({kernel_group_key(spec) for spec in specs[:2]}) == 2
    store = ResultStore(tmp_path / "store")
    executor = SweepExecutor(jobs=2, store=store)
    sweep = executor.run(specs)
    for spec, row in zip(specs, sweep):
        assert row is executor._engine_for(spec).memo.cached(spec)
    distinct = len({spec.spec_hash() for spec in specs})
    # Each row was stored once, by the worker that computed it.
    stats = store.stats()
    assert (stats.entries, stats.writes) == (distinct, 0)
    inline_store = ResultStore(tmp_path / "inline")
    SweepExecutor(jobs=1, store=inline_store).run(specs)
    assert inline_store.stats().writes == distinct


@pytest.mark.parametrize(
    "bad, match",
    [
        (get_plan("plan-shared-ap"), r"got PlanSpec; run a PlanSpec with repro\.plan"),
        ("clean", "got str"),
        (42, "got int"),
    ],
    ids=["plan-spec", "preset-name", "int"],
)
def test_a_non_spec_row_is_a_configuration_error_before_any_store_read(bad, match, tmp_path, monkeypatch):
    store = ResultStore(tmp_path / "store")
    reads = []
    monkeypatch.setattr(ResultStore, "get", lambda self, *args, **kwargs: reads.append(args))
    with pytest.raises(ConfigurationError, match=match):
        SweepExecutor(store=store).run([get_scenario("clean"), bad])
    assert reads == []
    with pytest.raises(ConfigurationError, match="ScenarioSpec, FleetSpec or ServiceSpec"):
        repro.sweep([bad])
