"""Tests for the session engine (caching, channels) and the sweep executor
(grid expansion, parallel determinism)."""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import threading
import time
import tracemalloc

import numpy as np
import pytest
from oracles import serial

from repro.errors import ConfigurationError
from repro.forecasting import Forecaster, MovingAverageForecaster, make_forecaster, register_forecaster
from repro.scenarios import (
    ExperimentScale,
    ScenarioSpec,
    SessionEngine,
    SweepExecutor,
    build_datasets,
    clean_channel,
    compound_channel,
    get_scale,
    get_scenario,
    jammer_channel,
    loss_burst_channel,
    periodic_loss_channel,
    random_loss_channel,
    repetition_seed,
    sample_channel_delays,
    sample_channel_delays_batch,
    scenario_grid,
    wireless_channel,
)
from repro.scenarios.sweep import _pool_context

#: A short run so the engine tests stay fast.
RUN_SECONDS = 8.0


def _spec(channel, **fields) -> ScenarioSpec:
    fields.setdefault("run_seconds", RUN_SECONDS)
    return ScenarioSpec(name="test", channel=channel, **fields)


def _sample(channel, n, seed) -> np.ndarray:
    """One realisation through the library, checked against the serial oracle."""
    delays = sample_channel_delays(channel, n, seed=seed)
    assert np.array_equal(delays, serial.sample_channel_delays(channel, n, seed))
    return delays


# ---------------------------------------------------------------- datasets
def test_dataset_cache_keyed_by_full_scale():
    """A custom scale reusing a registered name must not alias its cache slot."""
    ci = build_datasets("ci", seed=11)
    custom_scale = ExperimentScale(
        name="ci",  # same name, different sizing
        train_repetitions=3,
        test_repetitions=1,
        heatmap_repetitions=1,
        run_seconds=5.0,
        forecast_windows_ms=(20,),
        forecast_evaluations=5,
        seq2seq_units=(4, 2),
        seq2seq_epochs=1,
    )
    custom = build_datasets(custom_scale, seed=11)
    assert len(custom.experienced) < len(ci.experienced)
    assert build_datasets("ci", seed=11) is ci  # caching still effective


# ---------------------------------------------------------------- channels
def test_sample_channel_delays_kinds():
    n = 400
    clean = _sample(clean_channel(nominal_delay_ms=2.5), n, 1)
    assert clean.shape == (n,)
    assert np.all(clean == 2.5)

    bursts = _sample(loss_burst_channel(burst_length=10, n_bursts=3), n, 1)
    assert np.sum(~np.isfinite(bursts)) == 30

    periodic = _sample(periodic_loss_channel(period=100, burst_length=5), n, 1)
    assert np.sum(~np.isfinite(periodic)) == 20

    random_loss = _sample(random_loss_channel(loss_probability=0.5), n, 1)
    lost_share = np.mean(~np.isfinite(random_loss))
    assert 0.3 < lost_share < 0.7

    jammed = _sample(jammer_channel(), n, 1)
    assert np.any(~np.isfinite(jammed))

    wireless = _sample(wireless_channel(n_robots=15, probability=0.05, duration_slots=100), n, 1)
    assert np.all(wireless[np.isfinite(wireless)] >= 0.0)


def test_batched_sampler_builds_one_wireless_model_per_spec(monkeypatch):
    from repro.scenarios import engine as engine_module

    built = []

    class CountingChannel(engine_module.WirelessChannel):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine_module, "WirelessChannel", CountingChannel)
    engine_module._batch_wireless_model.cache_clear()
    channel = wireless_channel(n_robots=7, probability=0.03, duration_slots=40)
    first = sample_channel_delays_batch([channel, channel], 300, [1, 2])
    second = sample_channel_delays_batch(channel, 300, [1, 2])
    assert len(built) == 1
    assert first.tobytes() == second.tobytes()
    for row, seed in enumerate([1, 2]):
        assert first[row].tobytes() == serial.sample_channel_delays(channel, 300, seed).tobytes()
    engine_module._batch_wireless_model.cache_clear()  # drop the counting model


def test_compound_channel_superposes_stages():
    n = 400
    stage_a = loss_burst_channel(burst_length=10, n_bursts=2, nominal_delay_ms=1.0)
    stage_b = clean_channel(nominal_delay_ms=3.0)
    compound = compound_channel(stage_a, stage_b)
    delays = _sample(compound, n, 5)
    finite = delays[np.isfinite(delays)]
    # Delays add up: surviving commands carry both stages' delay.
    assert np.allclose(finite, 4.0)
    # Losses union: the bursty stage's losses survive the superposition.
    assert np.sum(~np.isfinite(delays)) == 20


def test_repetition_seed_decorrelates_and_is_stable():
    spec = _spec(jammer_channel())
    assert repetition_seed(spec, 0) == repetition_seed(spec, 0)
    assert repetition_seed(spec, 0) != repetition_seed(spec, 1)
    assert repetition_seed(spec, 0) != repetition_seed(spec.with_(seed=7), 0)
    # Recovery-side knobs leave the channel realisation untouched.
    assert repetition_seed(spec, 0) == repetition_seed(spec.with_foreco(tolerance_ms=40.0), 0)


# ------------------------------------------------------------------ engine
def test_engine_caches_by_spec_hash():
    engine = SessionEngine()
    spec = _spec(loss_burst_channel(burst_length=5))
    first = engine.run(spec)
    # Identical physics under a different label hits the cache: nothing is
    # recomputed (every column is the very object of the first row), and the
    # row carries the caller's spec.
    relabelled = spec.with_(name="relabelled")
    second = engine.run(relabelled)
    assert second.spec is relabelled
    for column in ("rmse_no_forecast_mm", "rmse_foreco_mm", "late_fraction", "recovery_fraction"):
        assert getattr(second, column) is getattr(first, column)
    assert second.delays_ms is first.delays_ms
    assert engine.memo.cached(spec) is first
    engine.memo.clear()
    assert engine.memo.cached(spec) is None
    # A cleared memo recomputes: a fresh row, still deterministic.
    again = engine.run(spec)
    assert again is not first
    assert again.rmse_foreco_mm == first.rmse_foreco_mm


def test_engine_shares_trained_forecaster():
    engine = SessionEngine()
    spec = _spec(loss_burst_channel(burst_length=5))
    forecaster = engine.trained_forecaster(spec)
    # Channel and recovery-only variations reuse the master; training-relevant
    # FoReCo variations retrain.
    assert engine.trained_forecaster(spec.with_channel(burst_length=25)) is forecaster
    assert engine.trained_forecaster(spec.with_foreco(tolerance_ms=40.0)) is forecaster
    assert engine.trained_forecaster(spec.with_foreco(record=3)) is not forecaster
    # Sessions never predict on the master: they get private fitted copies.
    private = engine.session_forecaster(spec)
    assert private is not forecaster and private.is_fitted


def test_master_forecaster_is_shared_by_every_engine_in_the_process():
    spec = _spec(loss_burst_channel(burst_length=5), seed=4242)
    master = SessionEngine().trained_forecaster(spec)
    assert SessionEngine().trained_forecaster(spec) is master
    # A scale given by name resolves to the same master as the scale value.
    assert SessionEngine().trained_forecaster(dataclasses.replace(spec, scale="ci")) is master
    assert SessionEngine().trained_forecaster(spec.with_(scale=get_scale("ci"))) is master
    # The cached master is exactly what a cold fit produces.
    cold = make_forecaster(spec.foreco.algorithm, record=spec.foreco.record, **spec.foreco.options())
    cold.fit(build_datasets("ci", seed=4242).experienced.commands)
    assert master.coefficients.tobytes() == cold.coefficients.tobytes()
    assert master.intercept.tobytes() == cold.intercept.tobytes()


def _custom_spec(cls: type[Forecaster]) -> ScenarioSpec:
    register_forecaster(cls.name, cls, overwrite=True)
    return _spec(clean_channel()).with_foreco(algorithm=cls.name)


def test_concurrent_requests_fit_the_master_once():
    entered, release = threading.Event(), threading.Event()
    fits: list[int] = []

    class SlowFit(MovingAverageForecaster):
        name = "test-slow-fit"

        def _fit(self, commands):
            fits.append(1)
            entered.set()
            release.wait(timeout=10.0)
            super()._fit(commands)

    spec = _custom_spec(SlowFit)
    masters: list[Forecaster] = []

    def request() -> None:
        masters.append(SessionEngine().trained_forecaster(spec))

    first = threading.Thread(target=request)
    first.start()
    assert entered.wait(timeout=10.0)
    second = threading.Thread(target=request)
    second.start()
    time.sleep(0.05)  # let the second request reach the training lock
    release.set()
    first.join()
    second.join()
    assert len(fits) == 1
    assert len(masters) == 2 and masters[0] is masters[1]


def test_reregistered_forecaster_class_gets_its_own_master():
    class First(MovingAverageForecaster):
        name = "test-reregistered"

    class Second(MovingAverageForecaster):
        name = "test-reregistered"

    first = SessionEngine().trained_forecaster(_custom_spec(First))
    second = SessionEngine().trained_forecaster(_custom_spec(Second))
    assert type(first) is First and type(second) is Second
    assert SessionEngine().trained_forecaster(_custom_spec(First)) is first


def test_engine_stateful_forecaster_stays_deterministic():
    """VARMA carries predict-time state; per-session copies must isolate it."""
    engine = SessionEngine()
    # The periodic channel is identical in every repetition, so any RMSE
    # difference between reps could only come from leaked forecaster state.
    spec = _spec(periodic_loss_channel(period=100, burst_length=10), repetitions=2).with_foreco(
        algorithm="varma", record=5
    )
    first = engine.run(spec)
    second = engine.run(spec)
    assert first.rmse_foreco_mm == second.rmse_foreco_mm
    assert first.rmse_foreco_mm[0] == first.rmse_foreco_mm[1]


def test_engine_session_result_shape():
    engine = SessionEngine()
    result = engine.run(_spec(loss_burst_channel(burst_length=10), repetitions=2))
    assert result.repetitions == 2
    assert len(result.rmse_no_forecast_mm) == 2
    assert result.n_commands == int(RUN_SECONDS * 50)  # 50 Hz command rate
    assert result.mean_rmse_foreco_mm > 0.0
    assert result.improvement_factor > 0.0
    assert result.delays_ms is not None and result.delays_ms.shape == (result.n_commands,)
    # The kept trace replays to the last repetition, as the serial loop runs it.
    replay = engine.trajectories(result)
    assert replay.foreco.joints.shape == (result.n_commands, 6)
    assert replay.rmse_foreco_mm == result.rmse_foreco_mm[-1]
    serial.assert_same_trajectories(serial.SerialSessionEngine().trajectories(result), replay)
    row = result.to_dict()
    assert row["repetitions"] == 2
    assert row["mean_rmse_foreco_mm"] == result.mean_rmse_foreco_mm


def test_memoized_result_holds_its_delay_row_and_metric_tuples_only():
    """What the memo keeps per result: the ``(n,)`` delay row, the metric
    tuples and a few small scalars — no ``(n, d)`` trajectory."""
    base = _spec(loss_burst_channel(burst_length=10), run_seconds=20.0, repetitions=2)
    engine = SessionEngine()
    engine.run(base)  # the dataset and forecaster caches are filled outside the trace
    specs = [base.with_(channel=loss_burst_channel(burst_length=b)) for b in (3, 4, 6, 7, 9, 11)]
    for spec in specs:
        spec.spec_hash()  # cached on the spec, which the caller holds anyway
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = engine.run_many(specs)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()

    n = results[0].n_commands
    for result in results:
        assert engine.memo.cached(result.spec) is result
        fields = dataclasses.fields(result)
        arrays = [f.name for f in fields if isinstance(getattr(result, f.name), np.ndarray)]
        assert arrays == ["delays_ms"] and result.delays_ms.shape == (n,)
        for metric in ("rmse_no_forecast_mm", "rmse_foreco_mm", "late_fraction", "recovery_fraction"):
            values = getattr(result, metric)
            assert type(values) is tuple and len(values) == 2 and all(type(v) is float for v in values)
    # One result's trajectories would be 3 * n * 6 float64s (18x the delay row).
    assert grown / len(specs) <= results[0].delays_ms.nbytes + 4096


def test_trajectories_of_a_result_without_a_delay_trace_is_a_typed_error():
    result = SessionEngine().run(_spec(clean_channel()))
    with pytest.raises(ConfigurationError):
        SessionEngine().trajectories(dataclasses.replace(result, delays_ms=None))


def test_engine_operator_mix():
    engine = SessionEngine()
    result = engine.run(_spec(clean_channel(), operator="mix", run_seconds=10.0))
    # The handover run still has the full command budget and executes cleanly.
    assert result.n_commands == 500
    assert result.mean_late_fraction == 0.0


@pytest.mark.parametrize("use_pid", [False, True])
def test_fallback_policy_changes_no_result(use_pid):
    """``fallback`` is hashed but never reached at ``ENGINE_EPOCH`` 6.

    The baseline replays the last arrived command in every slot and FoReCo
    fills every missing slot, so ``hold`` and ``stop`` run the same session.
    A change that gives ``stop`` an effect must update this test and bump
    the epoch.
    """
    hold = get_scenario("jammer").with_(use_pid=use_pid, fallback="hold")
    stop = hold.with_(fallback="stop")
    assert hold.spec_hash() != stop.spec_hash()
    engine = SessionEngine()
    held, stopped = engine.run(hold), engine.run(stop)
    assert held.mean_late_fraction > 0.0
    for metric in ("rmse_no_forecast_mm", "rmse_foreco_mm", "late_fraction", "recovery_fraction"):
        assert getattr(held, metric) == getattr(stopped, metric)
    # The serial loop honours ``fallback``; its replays of both rows agree.
    oracle = serial.SerialSessionEngine()
    serial.assert_same_trajectories(oracle.trajectories(held), oracle.trajectories(stopped))


# ------------------------------------------------------------------- sweep
def test_scenario_grid_order_and_axes():
    base = _spec(wireless_channel())
    specs = scenario_grid(
        base, {"channel.n_robots": (5, 25), "seed": (1, 2), "foreco.record": (2, 10)}
    )
    assert len(specs) == 8
    # Insertion order with the last axis fastest.
    assert [s.foreco.record for s in specs[:2]] == [2, 10]
    assert specs[0].spec_hash() != specs[1].spec_hash()
    assert scenario_grid(base, {}) == [base]
    with pytest.raises(ConfigurationError):
        scenario_grid(base, {"seed": ()})


def test_sweep_executor_parallel_matches_serial():
    """Same specs + seeds -> bit-identical SweepResult with 1 and 4 workers."""
    base = _spec(wireless_channel(), repetitions=2)
    axes = {"channel.n_robots": (5, 15), "channel.probability": (0.01, 0.05)}
    serial = SweepExecutor(jobs=1).run_grid(base, axes)
    parallel = SweepExecutor(jobs=4).run_grid(base, axes)
    assert len(serial) == len(parallel) == 4
    for row_s, row_p in zip(serial, parallel):
        assert row_s.spec_hash == row_p.spec_hash
        assert row_s.rmse_no_forecast_mm == row_p.rmse_no_forecast_mm
        assert row_s.rmse_foreco_mm == row_p.rmse_foreco_mm
        assert row_s.late_fraction == row_p.late_fraction
        assert row_s.recovery_fraction == row_p.recovery_fraction


@pytest.mark.parametrize("jobs", [0, -2, 1.5])
def test_worker_count_below_one_is_a_typed_error(jobs):
    from repro import sweep
    from repro.fleet import CapacityPlanner

    with pytest.raises(ConfigurationError, match="jobs"):
        SweepExecutor(jobs=jobs)
    with pytest.raises(ConfigurationError, match="jobs"):
        sweep([get_scenario("clean")], jobs=jobs)
    with pytest.raises(ConfigurationError, match="jobs"):
        CapacityPlanner(jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_repeated_specs_under_other_names_carry_their_own_spec(jobs):
    spec = _spec(loss_burst_channel(burst_length=5))
    other = spec.with_(seed=spec.seed + 1)  # a second work unit for jobs=2
    specs = [spec, other, spec.with_(name="again"), other.with_(name="other-again")]
    sweep = SweepExecutor(jobs=jobs).run(specs)
    assert all(row.spec is given for row, given in zip(sweep, specs))
    assert sweep[2].rmse_foreco_mm is sweep[0].rmse_foreco_mm  # shared, not recomputed
    rows = SessionEngine().run_many(specs)
    assert all(row.spec is given for row, given in zip(rows, specs))


def test_sweep_worker_processes_match_serial():
    """Rows fanned out over worker processes equal a serial run, in order."""
    base = _spec(loss_burst_channel(burst_length=10), repetitions=2)
    axes = {"channel.burst_length": (5, 15), "seed": (1, 2)}
    serial = SweepExecutor(jobs=1).run_grid(base, axes)
    process = SweepExecutor(jobs=2).run_grid(base, axes)
    assert len(serial) == len(process) == 4
    for row_s, row_p in zip(serial, process):
        assert row_s.spec_hash == row_p.spec_hash
        assert row_s.rmse_no_forecast_mm == row_p.rmse_no_forecast_mm
        assert row_s.rmse_foreco_mm == row_p.rmse_foreco_mm
        assert row_s.late_fraction == row_p.late_fraction
        assert row_s.recovery_fraction == row_p.recovery_fraction


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_runtime_registrations_reach_the_worker_processes():
    """Workers are forked, whatever the interpreter's default start method."""

    class LateRegistered(MovingAverageForecaster):
        name = "test-late-registered"

    assert _pool_context().get_start_method() == "fork"
    base = _custom_spec(LateRegistered)
    specs = [base, base.with_(seed=base.seed + 1)]  # two kernel groups
    serial_rows = SweepExecutor(jobs=1).run(specs)
    fanned = SweepExecutor(jobs=2).run(specs)
    assert [row.to_dict() for row in fanned] == [row.to_dict() for row in serial_rows]


def test_sweep_result_table_json_and_selectors():
    sweep = SweepExecutor(jobs=2).run(
        [
            _spec(clean_channel()),
            _spec(loss_burst_channel(burst_length=25, n_bursts=2)),
        ]
    )
    table = sweep.to_table()
    assert "scenario" in table and "FoReCo" in table
    records = sweep.to_records()
    assert len(records) == 2 and records[0]["scenario"] == "test"
    assert "rmse_foreco_mm" in sweep.to_json()
    worst = sweep.worst(metric="mean_rmse_no_forecast_mm")
    assert worst.spec.channel.kind == "loss-burst"
    assert sweep.best(metric="mean_rmse_no_forecast_mm").spec.channel.kind == "clean"
    only_clean = sweep.filter(lambda row: row.spec.channel.kind == "clean")
    assert len(only_clean) == 1
    assert sweep.metric("improvement_factor") == [
        row.improvement_factor for row in sweep
    ]


def test_registry_presets_run_end_to_end():
    engine = SessionEngine()
    for name in ("jammer-congestion", "random-loss"):
        spec = get_scenario(name).with_(run_seconds=RUN_SECONDS)
        result = engine.run(spec)
        assert result.mean_rmse_foreco_mm > 0.0
        assert 0.0 <= result.mean_late_fraction <= 1.0
