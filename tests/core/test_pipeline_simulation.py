"""Tests for the training pipeline and the end-to-end simulation."""

from __future__ import annotations

import numpy as np
import pytest
from oracles import serial

import repro.core.simulation as simulation_module
from repro.core import (
    BatchedRemoteControlSimulation,
    CommandDataset,
    ForecoConfig,
    ForecoRecovery,
    RemoteControlSimulation,
    TrainingPipeline,
    baseline_target_indices,
    compare_baseline_and_foreco,
)
from repro.errors import ConfigurationError, DatasetError, DimensionError
from repro.robot.niryo import NiryoOneArm
from repro.wireless import ConsecutiveLossInjector, GilbertElliottJammer, InterferenceSource, WirelessChannel


# ------------------------------------------------------------------ pipeline
def test_pipeline_produces_fitted_forecaster_and_timings(experienced_stream):
    dataset = CommandDataset(6)
    dataset.extend(experienced_stream.commands)
    pipeline = TrainingPipeline(ForecoConfig())
    forecaster, report = pipeline.run(dataset)
    assert forecaster.is_fitted
    assert report.timings.total_s > 0.0
    assert report.timings.training_s > 0.0
    assert report.n_training_commands > report.n_test_commands
    assert report.test_rmse >= 0.0
    assert report.inference_time_ms < 20.0  # far below the control period
    assert report.quality.is_clean


def test_pipeline_downsampling_reduces_training_set(experienced_stream):
    dataset = CommandDataset(6)
    dataset.extend(experienced_stream.commands)
    plain = TrainingPipeline(ForecoConfig())
    halved = TrainingPipeline(ForecoConfig(), downsample_factor=2)
    _, report_plain = plain.run(dataset)
    _, report_halved = halved.run(dataset)
    assert report_halved.n_training_commands < report_plain.n_training_commands


def test_pipeline_rejects_tiny_dataset():
    dataset = CommandDataset(6)
    dataset.extend(np.zeros((5, 6)))
    with pytest.raises(DatasetError):
        TrainingPipeline(ForecoConfig(record=10)).run(dataset)


# ---------------------------------------------------------------- simulation
def test_simulation_requires_trained_recovery():
    with pytest.raises(ConfigurationError):
        RemoteControlSimulation(ForecoRecovery(ForecoConfig()))


def test_simulation_perfect_channel_gives_zero_error(trained_recovery, inexperienced_stream):
    commands = inexperienced_stream.commands[:300]
    delays = np.full(300, 1.0)
    outcome = RemoteControlSimulation(trained_recovery).run(commands, delays)
    assert outcome.rmse_foreco_mm == pytest.approx(0.0, abs=1e-9)
    assert outcome.rmse_no_forecast_mm == pytest.approx(0.0, abs=1e-6)
    assert outcome.late_fraction == 0.0


def test_simulation_foreco_beats_baseline_under_bursty_loss(trained_recovery, inexperienced_stream):
    commands = inexperienced_stream.commands[:1200]
    injector = ConsecutiveLossInjector(burst_length=10, n_bursts=6, min_gap=80, seed=3)
    delays = injector.to_trace(1200).delays()
    outcome = RemoteControlSimulation(trained_recovery).run(commands, delays)
    assert outcome.rmse_foreco_mm < outcome.rmse_no_forecast_mm
    assert outcome.improvement_factor > 1.0
    assert outcome.late_fraction > 0.0
    assert len(outcome.defined) == len(outcome.foreco) == len(outcome.baseline)


def test_simulation_foreco_beats_baseline_under_interference(trained_recovery, inexperienced_stream):
    commands = inexperienced_stream.commands[:1200]
    channel = WirelessChannel(
        n_robots=15, interference=InterferenceSource(0.025, 50), seed=9
    )
    trace = channel.sample_trace(1200)
    outcome = RemoteControlSimulation(trained_recovery).run_trace(commands, trace)
    assert outcome.rmse_foreco_mm < outcome.rmse_no_forecast_mm


def test_simulation_foreco_beats_baseline_under_jammer(trained_recovery, inexperienced_stream):
    commands = inexperienced_stream.commands[:1500]
    delays = GilbertElliottJammer(seed=4).sample_trace(1500).delays()
    outcome = RemoteControlSimulation(trained_recovery).run(commands, delays)
    assert outcome.rmse_foreco_mm < outcome.rmse_no_forecast_mm


def test_simulation_baseline_lags_behind_with_delayed_commands(trained_recovery, inexperienced_stream):
    """Delayed (not lost) commands make the stock stack lag and accrue error,
    while FoReCo bridges a short delayed stretch with forecasts."""
    commands = inexperienced_stream.commands[:600]
    delays = np.full(600, 1.0)
    delays[200:215] = 400.0  # a 15-command stretch arrives 400 ms late
    outcome = RemoteControlSimulation(trained_recovery).run(commands, delays)
    assert outcome.rmse_no_forecast_mm > 0.3
    assert outcome.rmse_foreco_mm < outcome.rmse_no_forecast_mm

    # A sustained lag (every command late by two periods for one second)
    # accrues baseline error even though nothing is lost.
    delays_lag = np.full(600, 1.0)
    delays_lag[300:350] = 45.0
    lagged = RemoteControlSimulation(trained_recovery).run(commands, delays_lag)
    assert lagged.rmse_no_forecast_mm > 0.1


def test_simulation_single_session_equals_serial_oracle(trained_recovery, inexperienced_stream):
    """The one-session wrapper is the kernel at B = 1, bit-identical to the slot-by-slot path."""
    commands = inexperienced_stream.commands[:600]
    delays = GilbertElliottJammer(seed=8).sample_trace(600).delays()
    outcome = RemoteControlSimulation(trained_recovery).run(commands, delays)
    expected = serial.RemoteControlSimulation(trained_recovery).run(commands, delays)
    assert outcome.rmse_no_forecast_mm == expected.rmse_no_forecast_mm
    assert outcome.rmse_foreco_mm == expected.rmse_foreco_mm
    assert outcome.late_fraction == expected.late_fraction
    assert outcome.recovery_fraction == expected.recovery_fraction
    assert np.array_equal(outcome.foreco.joints, expected.foreco.joints)
    assert np.array_equal(outcome.baseline.joints, expected.baseline.joints)


def test_simulation_rejects_non_finite_commands(trained_recovery, inexperienced_stream):
    """A NaN command fails with a typed error on every entry point, never as a NaN RMSE."""
    commands = inexperienced_stream.commands[:200].copy()
    commands[50, 2] = np.nan  # an on-time slot
    delays = np.full(200, 1.0)
    with pytest.raises(DatasetError, match="NaN or infinite"):
        RemoteControlSimulation(trained_recovery).run(commands, delays)
    with pytest.raises(DatasetError, match="NaN or infinite"):
        BatchedRemoteControlSimulation(trained_recovery).run(commands, np.stack([delays, delays]))
    commands[50, 2] = np.inf
    with pytest.raises(DatasetError, match="NaN or infinite"):
        trained_recovery.process_stream_batch(commands, delays)


def test_simulation_shape_validation(trained_recovery):
    with pytest.raises(DimensionError):
        RemoteControlSimulation(trained_recovery).run(np.zeros((10, 6)), np.zeros(9))


def test_simulation_run_trace_length_check(trained_recovery, inexperienced_stream):
    commands = inexperienced_stream.commands[:100]
    channel = WirelessChannel(n_robots=5, seed=1)
    short_trace = channel.sample_trace(50)
    with pytest.raises(DimensionError):
        RemoteControlSimulation(trained_recovery).run_trace(commands, short_trace)


def test_compare_helper_end_to_end(experienced_stream, inexperienced_stream):
    commands = inexperienced_stream.commands[:800]
    injector = ConsecutiveLossInjector(burst_length=8, n_bursts=4, min_gap=60, seed=5)
    delays = injector.to_trace(800).delays()
    outcome = compare_baseline_and_foreco(
        experienced_stream.commands, commands, delays, config=ForecoConfig(record=10)
    )
    assert outcome.improvement_factor > 1.0
    assert 0.0 < outcome.recovery_fraction <= 1.0


# ------------------------------------------------- batched RMSE by provenance
def _jammed_delays(n_batch: int, n_slots: int) -> np.ndarray:
    """Per-row jammer traces with a late (not lost) stretch in every row."""
    delays = np.stack([GilbertElliottJammer(seed=seed).sample_delays(n_slots) for seed in range(n_batch)])
    delays[:, n_slots // 3 : n_slots // 3 + 12] = 70.0
    return delays


def _assert_batched_equals_serial(recovery, commands, delays, use_pid=False, fallback="hold"):
    """Every batched row reproduces a serial run of its delay trace, bit for bit.

    The kernel takes no fallback; ``fallback`` selects the serial oracle's
    driver policy, which the kernel must match under either value."""
    batch = BatchedRemoteControlSimulation(recovery, use_pid=use_pid).run(commands, delays)
    oracle = serial.RemoteControlSimulation(recovery, use_pid=use_pid, fallback=fallback)
    assert batch.repetitions == delays.shape[0]
    for index, row in enumerate(delays):
        expected = oracle.run(commands, row)
        outcome = batch.outcome(index)
        assert batch.rmse_no_forecast_mm[index] == outcome.rmse_no_forecast_mm == expected.rmse_no_forecast_mm
        assert batch.rmse_foreco_mm[index] == outcome.rmse_foreco_mm == expected.rmse_foreco_mm
        assert batch.late_fraction[index] == outcome.late_fraction == expected.late_fraction
        assert batch.recovery_fraction[index] == outcome.recovery_fraction == expected.recovery_fraction
        assert np.array_equal(outcome.defined.joints, commands)
        assert np.array_equal(outcome.baseline.joints, expected.baseline.joints)
        assert np.array_equal(outcome.foreco.joints, expected.foreco.joints)
        for trajectory in (outcome.defined, outcome.baseline, outcome.foreco):
            assert trajectory.joints.shape == commands.shape
            assert trajectory.joints.flags.owndata


def test_baseline_target_indices_rows_equal_single_sessions():
    delays = _jammed_delays(6, 500)
    delays[2] = np.inf  # a session that never receives a command
    delays[3, ::7] = 1e4  # commands overtaken by later arrivals
    stacked = baseline_target_indices(delays, 20.0)
    assert stacked.shape == delays.shape
    for row, indices in zip(delays, stacked, strict=True):
        assert np.array_equal(baseline_target_indices(row, 20.0), indices)
    assert not stacked[2].any()
    with pytest.raises(DimensionError):
        baseline_target_indices(delays[None], 20.0)


def test_batched_rmse_equals_serial_with_commands_outside_the_limits(trained_recovery, inexperienced_stream):
    """The clip changes command rows, so the clipped stream's FK is not the defined one's."""
    commands = inexperienced_stream.commands[:400].copy()
    limits = NiryoOneArm().limits
    commands[100:180, 1] = limits.position_max[1] + 0.2
    commands[250:300, 4] = limits.position_min[4] - 0.3
    commands[300:320, ::2] = -0.0
    clipped = np.clip(commands, limits.position_min, limits.position_max)
    assert not np.array_equal(clipped, commands)
    _assert_batched_equals_serial(trained_recovery, commands, _jammed_delays(4, 400))


def test_batched_rmse_equals_serial_under_pid(trained_recovery, inexperienced_stream):
    """PID states rarely equal a command row, so nearly every row is evaluated afresh."""
    commands = inexperienced_stream.commands[:400]
    _assert_batched_equals_serial(trained_recovery, commands, _jammed_delays(3, 400), use_pid=True)


def test_batched_rmse_equals_serial_with_stop_fallback(trained_recovery, inexperienced_stream):
    commands = inexperienced_stream.commands[:400]
    for use_pid in (False, True):
        _assert_batched_equals_serial(
            trained_recovery, commands, _jammed_delays(3, 400), use_pid=use_pid, fallback="stop"
        )


def test_batched_rmse_equals_serial_across_row_blocks(trained_recovery, inexperienced_stream):
    """A batch one row larger than a block runs the gather over two blocks."""
    n_slots = 2000
    commands = inexperienced_stream.commands[:n_slots]
    assert commands.shape[0] == n_slots
    rows_per_block = simulation_module._BLOCK_SLOTS // n_slots
    assert 1 <= rows_per_block < 20
    delays = _jammed_delays(rows_per_block + 1, n_slots)
    _assert_batched_equals_serial(trained_recovery, commands, delays)


@pytest.mark.parametrize("use_pid", [False, True], ids=["kinematic", "pid"])
@pytest.mark.parametrize(
    "case",
    [
        "no-losses",
        "all-lost-row",
        "early-losses",
        "slot0-record1",
        "fallback-equals-command",
        "clipped-forecast",
    ],
)
def test_batched_rmse_equals_serial_on_kernel_edge_cases(case, use_pid, kernel_edge_case, edge_case_training):
    """Missing rows whose bits equal their command, and forecasts clipped at a limit, included."""
    config, _, commands, delays = kernel_edge_case(case)
    recovery = ForecoRecovery(config).train(edge_case_training)
    _assert_batched_equals_serial(recovery, commands, delays, use_pid=use_pid)
