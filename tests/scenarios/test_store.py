"""Tests for the persistent content-addressed result store and its
integration with the engine, the sweep executor, the analysis loader and the
CLI runner: round-trips, epoch invalidation, corruption tolerance, concurrent
writers, LRU caps, and hit/miss partitioning that stays bit-identical to a
cold serial run."""

from __future__ import annotations

import dataclasses
import json
import threading

import numpy as np
import pytest
from oracles.serial import SerialSessionEngine, assert_same_trajectories

from repro.analysis import load_sweep
from repro.errors import ConfigurationError
from repro.experiments.runner import run_experiments
from repro.fleet import fleet_names, get_fleet, get_plan, plan_names
from repro.scenarios import (
    ENGINE_EPOCH,
    ResultStore,
    ScenarioSpec,
    SessionEngine,
    SessionResult,
    SweepExecutor,
    clean_channel,
    get_scenario,
    loss_burst_channel,
    scenario_grid,
    scenario_names,
)
from repro.scenarios.engine import ResultMemo
from repro.service import get_service, service_names

#: A short run so the engine-backed tests stay fast.
RUN_SECONDS = 6.0


def _spec(**fields) -> ScenarioSpec:
    fields.setdefault("channel", loss_burst_channel(burst_length=8, n_bursts=2, min_gap=40))
    fields.setdefault("run_seconds", RUN_SECONDS)
    return ScenarioSpec(name="store-test", **fields)


def _synthetic_result(spec: ScenarioSpec) -> SessionResult:
    """A hand-built result row with awkward floats and an inf-marked loss."""
    return SessionResult(
        spec=spec,
        spec_hash=spec.spec_hash(),
        n_commands=5,
        rmse_no_forecast_mm=(0.1 + 0.2, 1.0 / 3.0),
        rmse_foreco_mm=(1e-17, 2.5),
        late_fraction=(0.25, 0.0),
        recovery_fraction=(1.0, 0.75),
        delays_ms=np.array([1.0, np.inf, 2.5, np.inf, 0.0]),
    )


# ------------------------------------------------------------------ basics
def test_round_trip_is_bit_identical(tmp_path):
    spec = _spec(channel=clean_channel())
    result = _synthetic_result(spec)
    store = ResultStore(tmp_path)
    path = store.put(spec, result)
    assert path.is_file() and spec in store
    assert len(store) == 1

    loaded = ResultStore(tmp_path).get(spec)
    assert loaded is not None
    # Metric tuples, the summary dict and the delay trace (inf = lost
    # command) all round-trip bit-for-bit through the RFC-strict JSON shard.
    assert loaded.rmse_no_forecast_mm == result.rmse_no_forecast_mm
    assert loaded.rmse_foreco_mm == result.rmse_foreco_mm
    assert loaded.late_fraction == result.late_fraction
    assert loaded.recovery_fraction == result.recovery_fraction
    assert loaded.n_commands == result.n_commands
    assert loaded.to_dict() == result.to_dict()
    assert np.array_equal(loaded.delays_ms, result.delays_ms)
    assert loaded.spec is spec  # attached to the caller's spec object
    # The shard is the whole result: every field comes back, arrays bit for bit.
    for f in dataclasses.fields(result):
        got, want = getattr(loaded, f.name), getattr(result, f.name)
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes(), f.name
        else:
            assert got == want, f.name


def test_contains_evict_clear_and_stats(tmp_path):
    store = ResultStore(tmp_path)
    specs = [_spec(channel=clean_channel(), seed=seed) for seed in (1, 2, 3)]
    for spec in specs:
        store.put(spec, _synthetic_result(spec))
    assert len(store) == 3
    assert store.evict(specs[0]) and specs[0] not in store
    assert not store.evict(specs[0])  # already gone
    assert store.get(specs[0]) is None
    assert store.get(specs[1]) is not None
    stats = store.stats()
    assert stats.entries == 2 and stats.total_bytes > 0
    assert stats.writes == 3 and stats.evictions == 1
    assert stats.hits == 1 and stats.misses == 1 and stats.corrupted == 0
    assert stats.hit_fraction == 0.5
    assert store.clear() == 2 and len(store) == 0


def test_put_rejects_mismatched_hash(tmp_path):
    spec = _spec(channel=clean_channel())
    other = spec.with_(seed=7)
    with pytest.raises(ConfigurationError):
        ResultStore(tmp_path).put(other, _synthetic_result(spec))


def test_store_rejects_degenerate_caps(tmp_path):
    with pytest.raises(ConfigurationError):
        ResultStore(tmp_path, max_entries=0)
    with pytest.raises(ConfigurationError):
        ResultStore(tmp_path, max_bytes=0)


# ------------------------------------------------------------------- epoch
def test_epoch_invalidation(tmp_path):
    spec = _spec(channel=clean_channel())
    old = ResultStore(tmp_path, epoch=ENGINE_EPOCH)
    old.put(spec, _synthetic_result(spec))

    bumped = ResultStore(tmp_path, epoch=ENGINE_EPOCH + 1)
    assert bumped.get(spec) is None  # same spec hash, new code semantics
    assert spec not in bumped
    assert len(bumped) == 0
    # The old epoch's shards survive untouched (a downgrade still reads them).
    assert ResultStore(tmp_path, epoch=ENGINE_EPOCH).get(spec) is not None


# -------------------------------------------------------------- corruption
def test_corrupted_shard_counts_as_miss_and_is_removed(tmp_path):
    spec = _spec(channel=clean_channel())
    store = ResultStore(tmp_path)
    path = store.put(spec, _synthetic_result(spec))

    for garbage in ('{"truncated": ', "not json at all", '{"format": 999}'):
        path.write_text(garbage, encoding="utf-8")
        fresh = ResultStore(tmp_path)
        assert fresh.get(spec) is None
        assert fresh.stats().corrupted == 1
        assert not path.exists()  # quarantined, ready for a clean rewrite
        store.put(spec, _synthetic_result(spec))

    # A shard whose content address disagrees with its location is rejected.
    record = json.loads(path.read_text(encoding="utf-8"))
    record["spec_hash"] = "0" * 16
    path.write_text(json.dumps(record), encoding="utf-8")
    assert ResultStore(tmp_path).get(spec) is None


def test_shard_with_a_different_stored_spec_is_quarantined(tmp_path):
    """A shard is attached to the caller's spec only if its stored spec agrees."""
    spec = _spec(channel=clean_channel())
    store = ResultStore(tmp_path)
    path = store.put(spec, _synthetic_result(spec))
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["spec"] == json.loads(json.dumps(spec.canonical()))
    assert ResultStore(tmp_path).get(spec) is not None  # tuples vs lists agree

    record["spec"]["seed"] += 1  # same content address, different physics
    path.write_text(json.dumps(record), encoding="utf-8")
    fresh = ResultStore(tmp_path)
    assert fresh.get(spec) is None
    stats = fresh.stats()
    assert (stats.corrupted, stats.misses, stats.hits) == (1, 1, 0)
    assert not path.exists()


def test_concurrent_writers_same_key(tmp_path):
    spec = _spec(channel=clean_channel())
    result = _synthetic_result(spec)
    store = ResultStore(tmp_path)
    errors: list[Exception] = []

    def write() -> None:
        try:
            for _ in range(20):
                store.put(spec, result)
        except Exception as exc:  # pragma: no cover - the assertion target
            errors.append(exc)

    threads = [threading.Thread(target=write) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    loaded = store.get(spec)
    assert loaded is not None and loaded.to_dict() == result.to_dict()
    assert len(store) == 1


# --------------------------------------------------------------------- lru
def test_lru_cap_evicts_least_recently_used(tmp_path):
    store = ResultStore(tmp_path, max_entries=2)
    specs = [_spec(channel=clean_channel(), seed=seed) for seed in (1, 2, 3)]
    store.put(specs[0], _synthetic_result(specs[0]))
    store.put(specs[1], _synthetic_result(specs[1]))
    assert store.get(specs[0]) is not None  # refresh: seed-1 is now the MRU
    store.put(specs[2], _synthetic_result(specs[2]))
    assert len(store) == 2
    assert specs[0] in store  # survived thanks to the refresh
    assert specs[1] not in store  # the LRU entry went
    assert specs[2] in store  # the fresh write is never evicted
    assert store.stats().evictions == 1


def test_byte_cap_bounds_the_store(tmp_path):
    store = ResultStore(tmp_path)
    spec = _spec(channel=clean_channel(), seed=1)
    shard_bytes = store.put(spec, _synthetic_result(spec)).stat().st_size
    store.clear()

    capped = ResultStore(tmp_path, max_bytes=int(shard_bytes * 2.5))
    for seed in (1, 2, 3, 4):
        s = _spec(channel=clean_channel(), seed=seed)
        capped.put(s, _synthetic_result(s))
    assert len(capped) == 2  # only ~2.5 shards fit
    assert capped.stats().total_bytes <= capped.max_bytes
    assert _spec(channel=clean_channel(), seed=4) in capped


# ------------------------------------------------------- engine integration
def test_engine_consults_store_before_computing(tmp_path):
    spec = _spec(repetitions=2)
    store = ResultStore(tmp_path)
    cold = SessionEngine(store=store).run(spec)
    assert store.stats().writes == 1

    warm_store = ResultStore(tmp_path)
    warm_engine = SessionEngine(store=warm_store)
    warm = warm_engine.run(spec)
    assert warm_store.stats().hits == 1 and warm_store.stats().writes == 0
    assert warm.to_dict() == cold.to_dict()
    assert warm.rmse_foreco_mm == cold.rmse_foreco_mm
    assert np.array_equal(warm.delays_ms, cold.delays_ms)
    # The store hit replays to the trajectories the serial loop gives the cold row.
    assert_same_trajectories(SerialSessionEngine().trajectories(cold), warm_engine.trajectories(warm))
    # The disk hit lands in the memory cache: no second disk read.
    assert warm_engine.run(spec) is warm
    assert warm_store.stats().hits == 1


def test_trace_replay_preset_stores_and_hits(tmp_path):
    """A trace channel's ``inf`` delays survive the RFC-strict shard writer."""
    spec = get_scenario("trace-replay")
    store = ResultStore(tmp_path)
    cold = SessionEngine(store=store).run(spec)
    assert store.stats().writes == 1

    warm_store = ResultStore(tmp_path)
    warm_engine = SessionEngine(store=warm_store)
    warm = warm_engine.run(spec)
    assert (warm_store.stats().hits, warm_store.stats().writes) == (1, 0)
    assert warm.to_dict() == cold.to_dict()
    assert warm.rmse_foreco_mm == cold.rmse_foreco_mm
    assert warm.delays_ms.tobytes() == cold.delays_ms.tobytes()
    assert_same_trajectories(SessionEngine().trajectories(cold), warm_engine.trajectories(warm))


_REGISTRIES = (
    (scenario_names, get_scenario),
    (fleet_names, get_fleet),
    (service_names, get_service),
    (plan_names, get_plan),
)


@pytest.mark.parametrize(
    "get, name",
    [pytest.param(get, name, id=name) for names, get in _REGISTRIES for name in names()],
)
def test_every_preset_stored_spec_is_strict_json(get, name):
    json.dumps(get(name).stored_canonical, allow_nan=False)


# -------------------------------------------------------- sweep integration
def test_interrupted_sweep_resumes_and_matches_cold_serial(tmp_path):
    base = _spec(repetitions=2)
    specs = scenario_grid(base, {"channel.burst_length": (5, 8, 12), "seed": (1, 2)})

    # "Interrupted halfway": only the first half of the grid got persisted.
    first_half = SweepExecutor(jobs=2, store=ResultStore(tmp_path)).run(specs[:3])
    assert (first_half.store_hits, first_half.store_misses) == (0, 3)

    resumed = SweepExecutor(jobs=2, store=ResultStore(tmp_path)).run(specs)
    assert (resumed.store_hits, resumed.store_misses) == (3, 3)
    assert resumed.hit_fraction == 0.5

    cold = SweepExecutor(jobs=1).run(specs)  # cold serial run, no store
    assert [row.to_dict() for row in resumed] == [row.to_dict() for row in cold]
    for row_r, row_c in zip(resumed, cold):
        assert row_r.rmse_foreco_mm == row_c.rmse_foreco_mm
        assert row_r.rmse_no_forecast_mm == row_c.rmse_no_forecast_mm
        assert np.array_equal(row_r.delays_ms, row_c.delays_ms)

    # A fully warm rerun computes nothing.
    warm = SweepExecutor(jobs=4, store=ResultStore(tmp_path)).run(specs)
    assert (warm.store_hits, warm.store_misses) == (6, 0)
    assert warm.hit_fraction == 1.0


def test_sweep_partition_counts_each_lookup_once(tmp_path, monkeypatch):
    """Executor partition + engine lookup must not double-count misses.

    Every spec, fleet and service rows included, is read from the store
    exactly once per sweep (fresh or warm, serial or fanned out), and no
    lookup runs a separate existence check.  Reads are logged to a file so
    the count includes the forked worker processes.
    """
    base = _spec(repetitions=1)
    specs = scenario_grid(base, {"seed": (1, 2, 3)})
    cold_store = ResultStore(tmp_path)
    SweepExecutor(store=cold_store).run(specs)
    stats = cold_store.stats()
    assert (stats.hits, stats.misses) == (0, 3)  # one counted miss per spec
    warm_store = ResultStore(tmp_path)
    SweepExecutor(store=warm_store).run(specs)
    warm_stats = warm_store.stats()
    assert (warm_stats.hits, warm_stats.misses) == (3, 0)
    assert warm_stats.hit_fraction == 1.0

    fleet = get_fleet("shared-ap", operators=2).with_template(run_seconds=8.0)
    service = get_service("service-shared-ap").with_fleet(operators=3, aps=1)
    mixed = specs + [fleet, service.with_template(run_seconds=8.0)]
    read_log = tmp_path / "reads.log"
    real_get = ResultStore.get

    def get(store, spec):
        with open(read_log, "a") as log:
            log.write(spec.spec_hash() + "\n")
        return real_get(store, spec)

    def contains(store, spec):
        pytest.fail("an existence check (spec in store) on a lookup path")

    monkeypatch.setattr(ResultStore, "get", get)
    monkeypatch.setattr(ResultStore, "__contains__", contains)
    for jobs in (1, 2):
        root = tmp_path / f"jobs-{jobs}"
        for expected_hits in (0, len(mixed)):  # fresh, then warm
            read_log.write_text("")
            sweep = SweepExecutor(jobs=jobs, store=ResultStore(root)).run(mixed)
            assert sorted(read_log.read_text().split()) == sorted(spec.spec_hash() for spec in mixed)
            assert (sweep.store_hits, sweep.store_misses) == (expected_hits, len(mixed) - expected_hits)


def test_store_root_expands_user(tmp_path, monkeypatch):
    """'~/...' store paths land in the home directory, not a literal './~'."""
    monkeypatch.setenv("HOME", str(tmp_path))
    store = ResultStore("~/cache/foreco")
    assert store.root == tmp_path / "cache" / "foreco"
    spec = _spec(channel=clean_channel())
    store.put(spec, _synthetic_result(spec))
    assert (tmp_path / "cache" / "foreco").is_dir()


def test_grown_grid_reuses_the_overlap(tmp_path):
    base = _spec(repetitions=1)
    small = scenario_grid(base, {"seed": (1, 2)})
    grown = scenario_grid(base, {"seed": (1, 2, 3, 4)})
    SweepExecutor(store=ResultStore(tmp_path)).run(small)
    sweep = SweepExecutor(store=ResultStore(tmp_path)).run(grown)
    assert (sweep.store_hits, sweep.store_misses) == (2, 2)


def test_worker_processes_write_back(tmp_path):
    base = _spec(repetitions=1)
    specs = scenario_grid(base, {"seed": (1, 2, 3)})
    sweep = SweepExecutor(jobs=2, store=ResultStore(tmp_path)).run(specs)
    assert sweep.store_misses == 3
    assert len(ResultStore(tmp_path)) == 3  # persisted from the worker processes
    warm = SweepExecutor(jobs=2, store=ResultStore(tmp_path)).run(specs)
    assert (warm.store_hits, warm.store_misses) == (3, 0)
    assert [row.to_dict() for row in warm] == [row.to_dict() for row in sweep]


def test_memo_adopts_a_row_stored_elsewhere_without_writing_it(tmp_path):
    spec = _spec(repetitions=1)
    store = ResultStore(tmp_path)
    memo = ResultMemo(store)
    assert memo.lookup(spec) == (None, False)  # the miss is remembered
    row = SessionEngine().run(spec)
    assert memo.adopt(spec, row) is row
    assert memo.adopt(spec, SessionEngine().run(spec)) is row  # the first row kept wins
    result, loaded = memo.lookup(spec)
    assert result is row and not loaded
    assert spec not in store
    assert (store.stats().writes, store.stats().misses) == (0, 1)


def test_executor_store_engine_wiring(tmp_path):
    store = ResultStore(tmp_path)
    executor = SweepExecutor(store=store)
    assert executor.engine.memo.store is store  # private engine adopts the store
    engine = SessionEngine(store=ResultStore(tmp_path / "other"))
    with pytest.raises(ConfigurationError):
        SweepExecutor(engine=engine, store=store)
    # An engine that already carries the store is accepted as-is.
    shared = SessionEngine(store=store)
    assert SweepExecutor(engine=shared).store is store


# ------------------------------------------------------------ analysis load
def test_load_sweep_rerenders_without_recompute(tmp_path):
    base = _spec(repetitions=1)
    specs = scenario_grid(base, {"seed": (1, 2)})
    computed = SweepExecutor(store=ResultStore(tmp_path)).run(specs)

    loaded = load_sweep(ResultStore(tmp_path), specs)
    assert loaded.to_records() == computed.to_records()
    assert "FoReCo" in loaded.to_table()
    assert (loaded.store_hits, loaded.store_misses) == (2, 0)

    extra = specs + [base.with_(seed=99)]
    with pytest.raises(ConfigurationError):
        load_sweep(ResultStore(tmp_path), extra)
    partial = load_sweep(ResultStore(tmp_path), extra, strict=False)
    assert len(partial) == 2 and partial.store_misses == 1


# -------------------------------------------------------------- runner CLI
def test_runner_store_and_resume_flags(tmp_path):
    root = str(tmp_path / "store")
    first = json.loads(
        run_experiments([], "ci", 42, fmt="json", scenarios=["bursty-loss"], store=root)
    )
    assert first["store"]["misses"] == 1 and first["store"]["hits"] == 0
    second = json.loads(
        run_experiments([], "ci", 42, fmt="json", scenarios=["bursty-loss"], store=root, resume=True)
    )
    assert second["store"]["hits"] == 1 and second["store"]["misses"] == 0
    assert second["scenarios"] == first["scenarios"]

    text = run_experiments([], "ci", 42, fmt="text", scenarios=["bursty-loss"], store=root)
    assert "store: 1 hits / 0 misses (100% reused)" in text

    with pytest.raises(ConfigurationError):  # --resume without --store
        run_experiments([], "ci", 42, fmt="json", scenarios=["bursty-loss"], resume=True)
    with pytest.raises(ConfigurationError):  # --resume against an empty store
        run_experiments(
            [], "ci", 42, fmt="json", scenarios=["bursty-loss"],
            store=str(tmp_path / "typo"), resume=True,
        )
