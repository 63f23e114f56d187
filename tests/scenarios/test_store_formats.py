"""Shard record formats: binary delay traces (format 2) and the format-1 shards
the store still reads.

Each file under ``fixtures/store-format1/`` is a format-1 shard — its delay
trace a JSON list with ``null`` for a lost command — written by the format-1
encoder from the matching spec of :func:`_fixture_specs` at ``ENGINE_EPOCH``
6.  Loading one must give back, field for field and bit for bit, what a cold
computation of that spec gives today; a fresh write of it is format 2.
"""

from __future__ import annotations

import base64
import json
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import serial

from repro.fleet import CapacityPlanner, FleetEngine, PlanSpec, get_fleet
from repro.scenarios import (
    ResultStore,
    ScenarioSpec,
    SessionEngine,
    SweepExecutor,
    compound_channel,
    loss_burst_channel,
    wireless_channel,
)
from repro.scenarios.store import decode_delays, encode_delays
from repro.service import ServiceEngine, get_service

FIXTURES = Path(__file__).parent / "fixtures" / "store-format1"


def _fixture_specs() -> dict:
    """The tiny ci-scale specs the format-1 fixtures were written from."""
    session = ScenarioSpec(
        name="format1-session",
        channel=compound_channel(
            wireless_channel(n_robots=5, probability=0.3, duration_slots=10),
            loss_burst_channel(burst_length=4, n_bursts=2, min_gap=20),
        ),
        run_seconds=2.0,
        repetitions=2,
    )
    fleet = get_fleet("shared-ap").with_template(run_seconds=8.0)
    service = get_service("service-shared-ap").with_template(scale="ci", run_seconds=8.0)
    plan = PlanSpec(name="format1-plan", fleet=fleet, budget=2)
    return {"session": session, "fleet": fleet, "service": service, "plan": plan}


def _cold(kind: str, spec, tmp_path: Path):
    """A cold computation of ``spec`` (no memory, no shared store)."""
    if kind == "session":
        return SessionEngine().run(spec)
    if kind == "fleet":
        return FleetEngine().run(spec)
    if kind == "service":
        return ServiceEngine().run(spec)
    # The plan records its probes' store lookups, so it plans into a fresh store.
    return CapacityPlanner(store=ResultStore(tmp_path / "probes")).run(spec)


def _assert_same_result(loaded, cold) -> None:
    """Field-for-field equality; arrays are compared bit for bit."""
    for f in fields(cold):
        if f.name == "from_store":
            continue  # provenance, not part of the record
        got, want = getattr(loaded, f.name), getattr(cold, f.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, f.name
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), f.name
        else:
            assert got == want, f.name


def _engine(kind: str, store: ResultStore):
    """The engine that memoizes ``kind`` results in front of ``store``."""
    if kind == "session":
        return SessionEngine(store=store)
    if kind == "fleet":
        return FleetEngine(store=store)
    if kind == "service":
        return ServiceEngine(store=store)
    return CapacityPlanner(store=store)


@pytest.mark.parametrize("kind", ["session", "fleet", "service", "plan"])
def test_relabelled_memory_hit_equals_a_store_hit(tmp_path, kind):
    """Specs differing only in name share a hash and one memoized row; a
    memory hit carries the caller's spec exactly as a store hit does."""
    spec = _fixture_specs()[kind]
    renamed = spec.with_(name=f"renamed-{kind}")
    assert renamed.spec_hash() == spec.spec_hash()
    engine = _engine(kind, ResultStore(tmp_path / "store"))
    first = engine.run(spec)
    memory = engine.run(renamed)
    loaded = _engine(kind, ResultStore(tmp_path / "store")).run(renamed)
    assert memory.spec is renamed and loaded.spec is renamed
    _assert_same_result(memory, loaded)
    assert engine.memo.cached(spec) is first  # the memo keeps the first row


# ------------------------------------------------------------- format 1
@pytest.mark.parametrize("kind", ["session", "fleet", "service", "plan"])
def test_format1_fixture_hits_bit_for_bit(tmp_path, kind):
    spec = _fixture_specs()[kind]
    fixture = FIXTURES / f"{kind}.json"
    record = json.loads(fixture.read_text(encoding="utf-8"))
    assert record["format"] == 1 and record["kind"] == kind
    assert record["spec_hash"] == spec.spec_hash()  # spec hashes have not moved
    if kind in ("session", "fleet"):
        assert isinstance(record["delays_ms"], list) and None in record["delays_ms"]

    store = ResultStore(tmp_path / "store")
    path = store.shard_path(spec.spec_hash())
    path.parent.mkdir(parents=True)
    shutil.copyfile(fixture, path)

    loaded = store.get(spec)
    assert loaded is not None and store.stats().hits == 1
    cold = _cold(kind, spec, tmp_path)
    _assert_same_result(loaded, cold)
    if kind in ("session", "fleet"):
        assert np.isinf(loaded.delays_ms).any()  # null decoded as a lost slot

    # A fresh write of the same result is format 2 and decodes to it again.
    store.put(spec, loaded)
    rewritten = json.loads(path.read_text(encoding="utf-8"))
    assert rewritten["format"] == 2
    if kind in ("session", "fleet"):
        assert set(rewritten["delays_ms"]) == {"dtype", "b64"}
    _assert_same_result(ResultStore(tmp_path / "store").get(spec), cold)


def _format1_copy(spec, store: ResultStore, target: ResultStore) -> None:
    """Write ``spec``'s format-2 shard from ``store`` into ``target`` as a format-1 shard."""
    record = json.loads(store.shard_path(spec.spec_hash()).read_text(encoding="utf-8"))
    delays = decode_delays(record["delays_ms"])
    record["format"] = 1
    record["delays_ms"] = [None if np.isinf(v) else float(v) for v in delays]
    path = target.shard_path(spec.spec_hash())
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps(record, allow_nan=False), encoding="utf-8")


@pytest.mark.parametrize("use_pid", [False, True], ids=["kinematic", "pid"])
def test_trajectories_replay_bit_for_bit_from_every_cache(tmp_path, use_pid):
    """A cold row, a memory hit, format-2 and format-1 store hits and a
    worker-process row all replay to the same trajectories, which equal the
    serial loop's run of the same delay trace."""
    spec = _fixture_specs()["session"].with_(use_pid=use_pid)
    store = ResultStore(tmp_path / "format2")
    engine = SessionEngine(store=store)
    rows = {"cold": engine.run(spec), "memory": engine.run(spec)}
    format2 = ResultStore(tmp_path / "format2")
    rows["format-2 store"] = SessionEngine(store=format2).run(spec)
    format1 = ResultStore(tmp_path / "format1")
    if use_pid:  # no committed shard for the PID twin: rewrite this run's shard
        _format1_copy(spec, store, format1)
    else:
        format1.shard_path(spec.spec_hash()).parent.mkdir(parents=True)
        shutil.copyfile(FIXTURES / "session.json", format1.shard_path(spec.spec_hash()))
    rows["format-1 store"] = SessionEngine(store=format1).run(spec)
    twin = spec.with_(use_pid=not use_pid)  # a second kernel group, so workers run
    rows["process"] = SweepExecutor(jobs=2).run([spec, twin])[0]
    assert (format2.stats().hits, format1.stats().hits) == (1, 1)

    reference = engine.trajectories(rows["cold"])
    oracle = serial.SerialSessionEngine().trajectories(rows["cold"])
    for case, row in rows.items():
        replay = SessionEngine().trajectories(row)
        assert replay.rmse_foreco_mm == row.rmse_foreco_mm[-1], case
        serial.assert_same_trajectories(reference, replay)
        serial.assert_same_trajectories(oracle, replay)


# ------------------------------------------------------------- format 2
_CORRUPT_TRACES = {
    "unknown-dtype": {"dtype": ">f4", "b64": base64.b64encode(bytes(8)).decode("ascii")},
    # Valid base64 of 8 bytes once the stray "*" is dropped: only strict decoding rejects it.
    "non-base64": {"dtype": "<f8", "b64": "AAAAAAAA*AAA="},
    "ragged-length": {"dtype": "<f8", "b64": base64.b64encode(bytes(12)).decode("ascii")},
    "missing-b64": {"dtype": "<f8"},
    "empty-object": {},
    "not-an-object": "AAAAAAAAAAA=",
    "number": 3,
}


@pytest.mark.parametrize("case", sorted(_CORRUPT_TRACES))
def test_corrupt_format2_trace_is_a_miss(tmp_path, case):
    spec = _fixture_specs()["session"]
    store = ResultStore(tmp_path)
    path = store.put(spec, SessionEngine().run(spec))
    record = json.loads(path.read_text(encoding="utf-8"))
    record["delays_ms"] = _CORRUPT_TRACES[case]
    path.write_text(json.dumps(record), encoding="utf-8")

    fresh = ResultStore(tmp_path)
    assert fresh.get(spec) is None
    stats = fresh.stats()
    assert (stats.corrupted, stats.misses, stats.hits) == (1, 1, 0)
    assert not path.exists()  # quarantined, ready for a clean rewrite


_SPECIAL_BITS = [
    np.float64(np.inf).view(np.uint64),
    np.float64(-np.inf).view(np.uint64),
    np.float64(-0.0).view(np.uint64),
    np.uint64(0x7FF8000000000001),  # quiet NaN with a payload
    np.uint64(0xFFF0000000000ABC),  # signalling-pattern NaN, sign bit set
    np.uint64(1),  # smallest subnormal
]


@settings(max_examples=60, deadline=None)
@given(bits=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=64))
@example(bits=[])
@example(bits=[int(b) for b in _SPECIAL_BITS])
def test_binary_trace_round_trip_is_bit_exact(bits):
    delays = np.array(bits, dtype=np.uint64).view(np.float64)
    # Through the JSON text the shard holds, as put/get see it.
    encoded = json.loads(json.dumps(encode_delays(delays), allow_nan=False))
    decoded = decode_delays(encoded)
    assert decoded.dtype == np.float64 and decoded.shape == delays.shape
    assert np.array_equal(decoded.view(np.uint64), delays.view(np.uint64))
    assert decoded.flags.writeable
