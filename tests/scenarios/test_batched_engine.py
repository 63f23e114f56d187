"""Bit-equality tests for the session kernel.

The serial repetition loop (``tests/oracles/serial.py``) is the oracle: for
every named preset and every forecaster, :meth:`SessionEngine.run` through
:class:`repro.core.BatchedRemoteControlSimulation` must reproduce its metric
tuples exactly — not approximately.  Stacking several specs into one kernel
pass (:meth:`SessionEngine.run_many`, and sweeps through it) must in turn
reproduce each spec's own :meth:`SessionEngine.run`."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from oracles.serial import (
    SerialFleetEngine,
    SerialSessionEngine,
    assert_replays_last_session,
    assert_same_trajectories,
)

from repro.core import BatchedRemoteControlSimulation, ForecoConfig, ForecoRecovery
from repro.errors import ConfigurationError, DimensionError
from repro.experiments.common import (
    FIG8_DURATIONS,
    FIG8_PROBABILITIES,
    FIG8_ROBOT_COUNTS,
    base_scenario,
)
from repro.fleet import FleetEngine, FleetSpec
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
    # The serial loop's replay of the expected row against the kernel's of the batched one.
    assert_same_trajectories(
        SerialSessionEngine().trajectories(serial), SessionEngine().trajectories(batched)
    )


def _run_both(spec) -> tuple[SessionResult, SessionResult]:
    serial = SerialSessionEngine().run(spec)
    batched = SessionEngine().run(spec)
    return serial, batched


@pytest.mark.parametrize("name", scenario_names())
def test_batched_equals_serial_for_every_preset(name):
    """Every named preset (incl. the PID jammer and the compound channel)."""
    spec = get_scenario(name).with_(run_seconds=RUN_SECONDS, repetitions=REPETITIONS)
    _assert_bit_identical(*_run_both(spec))


@pytest.mark.parametrize("name", scenario_names())
def test_single_repetition_equals_serial_for_every_preset(name):
    """B = 1 runs through the kernel too."""
    spec = get_scenario(name).with_(run_seconds=RUN_SECONDS, repetitions=1)
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


class DriftingCounter(Forecaster):
    """Stateful and not batchable: every forecast drifts by this instance's call count."""

    name = "drifting-counter"

    def _fit(self, commands):
        self.calls = 0

    def _predict_next(self, history):
        self.calls += 1
        return history[-1] + 1e-3 * self.calls


def _drifting_counter_spec() -> ScenarioSpec:
    try:
        register_forecaster(DriftingCounter.name, DriftingCounter)
    except ConfigurationError:
        pass  # already registered by an earlier test
    return ScenarioSpec(
        name="custom",
        channel=loss_burst_channel(burst_length=10),
        run_seconds=RUN_SECONDS,
        repetitions=2,
    ).with_foreco(algorithm=DriftingCounter.name)


def test_unbatchable_forecaster_forecasts_each_row_on_its_own_copy():
    """Rows of one kernel pass must not share predict-time state.

    One group stacks specs of 1, 3 and 2 repetitions; every row must equal
    its own serial session, which starts from a fresh copy of the master.
    """
    base = _drifting_counter_spec()
    specs = [
        base.with_(repetitions=1),
        base.with_(channel=jammer_channel(), repetitions=3),
        base,
    ]
    assert len({kernel_group_key(spec) for spec in specs}) == 1
    engine = SessionEngine()
    oracle = SerialSessionEngine()
    for spec, row in zip(specs, engine.run_many(specs), strict=True):
        _assert_bit_identical(oracle.run(spec), row)
    assert engine.trained_forecaster(base).calls == 0  # the master never forecasts

    fleet = FleetSpec(name="custom", template=base, operators=3, aps=1, ap_capacity=3, ap_service_ms=4.0)
    kernel = FleetEngine().run(fleet)
    serial = SerialFleetEngine().run(fleet)
    assert kernel.rmse_foreco_mm == serial.rmse_foreco_mm
    assert kernel.rmse_no_forecast_mm == serial.rmse_no_forecast_mm
    assert kernel.recovery_fraction == serial.recovery_fraction
    assert np.array_equal(kernel.delays_ms, serial.delays_ms)


@pytest.mark.parametrize("use_pid", [False, True], ids=["kinematic", "pid"])
def test_every_kernel_row_equals_its_serial_session(use_pid):
    """Every row of the engine's kernel pass, not only the kept last one."""
    spec = get_scenario("jammer").with_(run_seconds=RUN_SECONDS, repetitions=REPETITIONS, use_pid=use_pid)
    engine, oracle = SessionEngine(), SerialSessionEngine()
    commands = engine.test_commands(spec)
    batch, delays = engine._simulate([spec], commands)
    expected, expected_delays = oracle._simulate([spec], commands)
    assert np.array_equal(delays, expected_delays)
    assert batch.repetitions == expected.repetitions == REPETITIONS
    for row in range(REPETITIONS):
        outcome, serial = batch.outcome(row), expected.outcome(row)
        assert outcome.rmse_no_forecast_mm == serial.rmse_no_forecast_mm == batch.rmse_no_forecast_mm[row]
        assert outcome.rmse_foreco_mm == serial.rmse_foreco_mm == batch.rmse_foreco_mm[row]
        assert outcome.late_fraction == serial.late_fraction
        assert outcome.recovery_fraction == serial.recovery_fraction
        assert np.array_equal(outcome.baseline.joints, serial.baseline.joints)
        assert np.array_equal(outcome.foreco.joints, serial.foreco.joints)


def _assert_kept_row_owns_its_arrays(result, template: ScenarioSpec) -> None:
    """The kept delay row is the result's one array, a copy of the last session's row."""
    arrays = [f.name for f in fields(result) if isinstance(getattr(result, f.name), np.ndarray)]
    assert arrays == ["delays_ms"]
    assert result.delays_ms.shape == (result.n_commands,)
    assert result.delays_ms.flags.owndata
    assert_replays_last_session(result, template)


@pytest.mark.parametrize("use_pid", [False, True], ids=["kinematic", "pid"])
def test_kept_session_fleet_and_hybrid_rows_own_their_arrays(use_pid):
    sessions = SessionEngine()
    spec = get_scenario("jammer").with_(run_seconds=RUN_SECONDS, repetitions=REPETITIONS, use_pid=use_pid)
    row = sessions.run(spec)
    _assert_kept_row_owns_its_arrays(row, spec)
    assert_same_trajectories(SerialSessionEngine().trajectories(row), sessions.trajectories(row))

    fleet = FleetSpec(name="custom", template=spec, operators=3, aps=1, ap_capacity=3, ap_service_ms=4.0)
    _assert_kept_row_owns_its_arrays(FleetEngine(sessions=sessions).run(fleet), spec)
    hybrid = FleetEngine(sessions=sessions).run(fleet.with_(tier="hybrid", hot_threshold=1e-9))
    assert hybrid.cold_aps == 0  # so the last admitted session is hot and kept
    _assert_kept_row_owns_its_arrays(hybrid, spec)


def test_batched_simulation_validates_shapes():
    rng = np.random.default_rng(0)
    train = np.cumsum(rng.normal(scale=0.02, size=(200, 6)), axis=0)
    recovery = ForecoRecovery(config=ForecoConfig()).train(train)
    simulation = BatchedRemoteControlSimulation(recovery)
    commands = train[:50]
    with pytest.raises(DimensionError):
        simulation.run(commands, np.ones((2, 49)))
    batch = simulation.run(commands, np.ones(50))  # 1-D => B = 1
    assert batch.repetitions == 1 and len(batch.rmse_no_forecast_mm) == 1


def test_improvement_factor_inf_contract():
    """A zero/near-zero FoReCo RMSE denominator yields inf, never NaN."""
    result = SessionEngine().run(
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


def test_run_many_fig8_grid_equals_per_spec_runs():
    """The Fig. 8 ci grid is one kernel group; stacking it changes no bit."""
    specs = _fig8_ci_grid()
    assert len({kernel_group_key(spec) for spec in specs}) == 1
    stacked = SessionEngine().run_many(specs)
    engine = SessionEngine()
    assert len(stacked) == len(specs)
    for spec, row in zip(specs, stacked):
        _assert_same_row(engine.run(spec), row)
    # The harshest cell (most robots, longest and likeliest bursts) against
    # the serial loop, which shares no code with the stacked split.
    harshest = specs[-1]
    assert harshest.channel.options()["n_robots"] == max(FIG8_ROBOT_COUNTS)
    serial = SerialSessionEngine().run(harshest)
    _assert_same_row(serial, stacked[-1])


@pytest.mark.parametrize("use_pid", [False, True])
def test_hold_and_stop_specs_share_one_kernel_pass(use_pid):
    """``fallback`` changes no result, so it is not part of the group key:
    hold and stop specs stack into one pass, and every row still equals the
    serial driver loop run under its own spec's policy."""
    base = get_scenario("jammer").with_(run_seconds=RUN_SECONDS, repetitions=2, use_pid=use_pid)
    specs = [
        base,
        base.with_(fallback="stop"),
        base.with_(fallback="stop", channel=loss_burst_channel(burst_length=12), repetitions=1),
    ]
    assert len({kernel_group_key(spec) for spec in specs}) == 1
    stacked = SessionEngine().run_many(specs)
    oracle = SerialSessionEngine()
    for spec, row in zip(specs, stacked, strict=True):
        _assert_same_row(oracle.run(spec), row)


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
    oracle = SerialSessionEngine()  # the serial loop
    for spec, row in zip(specs, sweep):  # the store hit included
        _assert_same_row(oracle.run(spec), row)

    shards = sorted(path.stem for path in store.epoch_dir.glob("??/*.json"))
    computed = {spec.spec_hash() for spec in specs} - {memory_hit.spec_hash()}
    assert shards == sorted(computed)
    assert store.stats().writes == len(computed) - 1  # the store hit was not rewritten


@pytest.mark.parametrize("jobs", [2, 4])
def test_stacked_sweep_jobs_1_equals_jobs_n(jobs):
    specs = _interleaved_specs()
    serial = SweepExecutor(jobs=1).run(specs)
    parallel = SweepExecutor(jobs=jobs).run(specs)
    assert serial.to_records() == parallel.to_records()
    engine = SessionEngine()
    for one, many in zip(serial, parallel):
        assert np.array_equal(one.delays_ms, many.delays_ms)
        assert_same_trajectories(engine.trajectories(one), engine.trajectories(many))
