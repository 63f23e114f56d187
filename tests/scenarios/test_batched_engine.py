"""Bit-equality tests for the batched session kernel.

The serial repetition loop (``batch=False``) is the oracle: for every named
preset and every forecaster, routing :meth:`SessionEngine.run` through
:class:`repro.core.BatchedRemoteControlSimulation` must reproduce its metric
tuples exactly — not approximately.  Stacking several specs into one kernel
pass (:meth:`SessionEngine.run_many`, and sweeps through it) must in turn
reproduce each spec's own :meth:`SessionEngine.run`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BatchedRemoteControlSimulation, ForecoConfig, ForecoRecovery
from repro.errors import ConfigurationError, DimensionError
from repro.experiments.common import (
    FIG8_DURATIONS,
    FIG8_PROBABILITIES,
    FIG8_ROBOT_COUNTS,
    base_scenario,
)
from repro.forecasting import Forecaster, register_forecaster
from repro.scenarios import (
    ResultStore,
    SessionEngine,
    SessionResult,
    ScenarioSpec,
    SweepExecutor,
    get_scale,
    get_scenario,
    jammer_channel,
    kernel_group_key,
    loss_burst_channel,
    scenario_grid,
    scenario_names,
    wireless_channel,
)

#: Short but loss-rich runs keep the full preset × forecaster cross fast.
RUN_SECONDS = 8.0
REPETITIONS = 3

#: Tiny seq2seq so its NumPy BPTT fit does not dominate the suite.
SEQ2SEQ_OPTIONS = {
    "encoder_units": 4,
    "decoder_units": 2,
    "epochs": 1,
    "max_training_windows": 40,
}


def _assert_bit_identical(serial: SessionResult, batched: SessionResult) -> None:
    assert serial.rmse_no_forecast_mm == batched.rmse_no_forecast_mm
    assert serial.rmse_foreco_mm == batched.rmse_foreco_mm
    assert serial.late_fraction == batched.late_fraction
    assert serial.recovery_fraction == batched.recovery_fraction
    assert np.array_equal(serial.delays_ms, batched.delays_ms)
    assert serial.outcome is not None and batched.outcome is not None
    assert np.array_equal(serial.outcome.foreco.joints, batched.outcome.foreco.joints)
    assert np.array_equal(serial.outcome.baseline.joints, batched.outcome.baseline.joints)


def _run_both(spec) -> tuple[SessionResult, SessionResult]:
    serial = SessionEngine(cache_results=False).run(spec, batch=False)
    batched = SessionEngine(cache_results=False).run(spec, batch=True)
    return serial, batched


@pytest.mark.parametrize("name", scenario_names())
def test_batched_equals_serial_for_every_preset(name):
    """Every named preset (incl. the PID jammer and the compound channel)."""
    spec = get_scenario(name).with_(run_seconds=RUN_SECONDS, repetitions=REPETITIONS)
    _assert_bit_identical(*_run_both(spec))


@pytest.mark.parametrize("algorithm", ["ma", "var", "varma", "ses", "seq2seq"])
def test_batched_equals_serial_for_every_forecaster(algorithm):
    """Every built-in forecaster over a loss-heavy channel."""
    options = SEQ2SEQ_OPTIONS if algorithm == "seq2seq" else {}
    spec = (
        get_scenario("bursty-loss")
        .with_(run_seconds=RUN_SECONDS, repetitions=REPETITIONS)
        .with_foreco(algorithm=algorithm, algorithm_options=options)
    )
    _assert_bit_identical(*_run_both(spec))


def test_batched_respects_recovery_knobs():
    """Tolerance, oracle feedback, unclamped steps and 'stop' fallback."""
    base = get_scenario("bursty-loss").with_(run_seconds=RUN_SECONDS, repetitions=2)
    for spec in (
        base.with_foreco(tolerance_ms=40.0),
        base.with_foreco(feedback="oracle"),
        base.with_foreco(max_step_rad=None),
        base.with_(fallback="stop"),
        base.with_foreco(record=1),
    ):
        _assert_bit_identical(*_run_both(spec))


def test_engine_serial_fallback_for_custom_forecaster():
    """A registered forecaster without batch support still runs (serially)."""

    class HoldLast(Forecaster):
        name = "hold-last"

        def _fit(self, commands):
            return None

        def _predict_next(self, history):
            return history[-1]

    try:
        register_forecaster("hold-last", HoldLast)
    except ConfigurationError:
        pass  # already registered by an earlier parametrisation
    spec = ScenarioSpec(
        name="custom",
        channel=loss_burst_channel(burst_length=10),
        run_seconds=RUN_SECONDS,
        repetitions=2,
    ).with_foreco(algorithm="hold-last")
    serial, batched = _run_both(spec)
    # batch=True silently falls back to the serial path, so the results are
    # trivially identical — the point is that nothing breaks.
    _assert_bit_identical(serial, batched)


def test_batched_simulation_rejects_unbatchable_forecaster():
    class Unbatchable(Forecaster):
        name = "unbatchable"

        def _fit(self, commands):
            return None

        def _predict_next(self, history):
            return history[-1]

    config = ForecoConfig()
    recovery = ForecoRecovery(config=config, forecaster=Unbatchable(record=config.record))
    rng = np.random.default_rng(0)
    recovery.train(np.cumsum(rng.normal(size=(100, 6)), axis=0))
    with pytest.raises(ConfigurationError):
        BatchedRemoteControlSimulation(recovery)


def test_batched_simulation_validates_shapes():
    rng = np.random.default_rng(0)
    train = np.cumsum(rng.normal(scale=0.02, size=(200, 6)), axis=0)
    recovery = ForecoRecovery(config=ForecoConfig()).train(train)
    simulation = BatchedRemoteControlSimulation(recovery)
    commands = train[:50]
    with pytest.raises(DimensionError):
        simulation.run(commands, np.ones((2, 49)))
    outcomes = simulation.run(commands, np.ones(50))  # 1-D => B = 1
    assert len(outcomes) == 1


def test_improvement_factor_inf_contract():
    """A zero/near-zero FoReCo RMSE denominator yields inf, never NaN."""
    result = SessionEngine(cache_results=False).run(
        get_scenario("clean").with_(run_seconds=RUN_SECONDS)
    )
    # Documented contract: near-zero denominators (< 1e-12 mm) report inf.
    tweaked = SessionResult(
        spec=result.spec,
        spec_hash=result.spec_hash,
        n_commands=result.n_commands,
        rmse_no_forecast_mm=(1.0,),
        rmse_foreco_mm=(0.0,),
        late_fraction=(0.0,),
        recovery_fraction=(0.0,),
    )
    assert tweaked.improvement_factor == float("inf")
    assert not np.isnan(tweaked.improvement_factor)
    subnormal = SessionResult(
        spec=result.spec,
        spec_hash=result.spec_hash,
        n_commands=result.n_commands,
        rmse_no_forecast_mm=(1.0,),
        rmse_foreco_mm=(1e-13,),
        late_fraction=(0.0,),
        recovery_fraction=(0.0,),
    )
    assert subnormal.improvement_factor == float("inf")


# ----------------------------------------------------------- stacked specs
def _fig8_ci_grid() -> list[ScenarioSpec]:
    scale = get_scale("ci")
    base = base_scenario(
        "fig8",
        scale,
        42,
        None,
        channel=wireless_channel(),
        repetitions=scale.heatmap_repetitions,
        run_seconds=scale.run_seconds * 2,
    )
    return scenario_grid(
        base,
        {
            "channel.n_robots": FIG8_ROBOT_COUNTS,
            "channel.probability": FIG8_PROBABILITIES,
            "channel.duration_slots": FIG8_DURATIONS,
        },
    )


def _assert_same_row(expected: SessionResult, actual: SessionResult) -> None:
    assert actual.spec_hash == expected.spec_hash
    assert actual.n_commands == expected.n_commands
    _assert_bit_identical(expected, actual)
    assert np.array_equal(expected.outcome.defined.joints, actual.outcome.defined.joints)


def test_run_many_fig8_grid_equals_per_spec_runs():
    """The Fig. 8 ci grid is one kernel group; stacking it changes no bit."""
    specs = _fig8_ci_grid()
    assert len({kernel_group_key(spec) for spec in specs}) == 1
    stacked = SessionEngine(cache_results=False).run_many(specs)
    engine = SessionEngine(cache_results=False)
    assert len(stacked) == len(specs)
    for spec, row in zip(specs, stacked):
        _assert_same_row(engine.run(spec), row)
    # The harshest cell (most robots, longest and likeliest bursts) against
    # the serial loop, which shares no code with the stacked split.
    harshest = specs[-1]
    assert harshest.channel.options()["n_robots"] == max(FIG8_ROBOT_COUNTS)
    serial = SessionEngine(cache_results=False, batch=False).run(harshest)
    _assert_same_row(serial, stacked[-1])


def _interleaved_specs() -> list[ScenarioSpec]:
    """Two-plus kernel identities interleaved, with a 1-repetition spec."""
    base = get_scenario("bursty-loss").with_(run_seconds=RUN_SECONDS, repetitions=2)
    return [
        base,
        base.with_foreco(record=5),
        base.with_(channel=jammer_channel(), repetitions=3),
        base.with_(use_pid=True),
        base.with_(repetitions=1, channel=loss_burst_channel(burst_length=12)),
        base.with_(operator="experienced", channel=jammer_channel()),
        base.with_foreco(record=5).with_(channel=jammer_channel()),
        base.with_(operator="experienced"),
    ]


def test_sweep_interleaving_kernel_groups_keeps_order_and_one_shard_per_spec(tmp_path):
    specs = _interleaved_specs()
    assert len({kernel_group_key(spec) for spec in specs}) == 4
    memory_hit = specs[3]
    store_hit = specs[5]
    store = ResultStore(tmp_path / "store")
    SweepExecutor(store=store).run([store_hit])

    engine = SessionEngine()
    warm = engine.run(memory_hit)  # cached in memory before the store is attached
    store = ResultStore(tmp_path / "store")
    duplicate = specs[1]
    sweep = SweepExecutor(engine=engine, store=store).run(specs + [duplicate])

    assert [row.spec_hash for row in sweep] == [s.spec_hash() for s in specs + [duplicate]]
    assert sweep.store_hits == 1 and sweep.store_misses == len(specs)
    assert sweep[3] is warm
    assert sweep[len(specs)] is sweep[1]
    oracle = SessionEngine(cache_results=False, batch=False)  # the serial loop
    for spec, row in zip(specs, sweep):
        expected = oracle.run(spec)
        if row.outcome is None:  # the store hit keeps no trajectories
            assert row.to_dict() == expected.to_dict()
            assert np.array_equal(row.delays_ms, expected.delays_ms)
        else:
            _assert_same_row(expected, row)

    shards = sorted(path.stem for path in store.epoch_dir.glob("??/*.json"))
    computed = {spec.spec_hash() for spec in specs} - {memory_hit.spec_hash()}
    assert shards == sorted(computed)
    assert store.stats().writes == len(computed) - 1  # the store hit was not rewritten


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_stacked_sweep_jobs_1_equals_jobs_4(backend):
    specs = _interleaved_specs()
    serial = SweepExecutor(jobs=1).run(specs)
    parallel = SweepExecutor(jobs=4, backend=backend).run(specs)
    assert serial.to_records() == parallel.to_records()
    for one, four in zip(serial, parallel):
        assert np.array_equal(one.delays_ms, four.delays_ms)
        assert np.array_equal(one.outcome.foreco.joints, four.outcome.foreco.joints)
