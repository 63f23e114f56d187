"""Tests for the FoReCo runtime recovery engine."""

from __future__ import annotations

import copy
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.serial import process_stream

from repro.core import ForecoConfig, ForecoRecovery
from repro.core.recovery import _WINDOW_SLACK
from repro.errors import ConfigurationError, DatasetError, DimensionError, SimulationError
from repro.forecasting import (
    Forecaster,
    MovingAverageForecaster,
    VarForecaster,
    make_forecaster,
    register_forecaster,
)
from repro.forecasting.base import _CUSTOM_FORECASTERS
from repro.robot.niryo import NiryoOneArm
from repro.scenarios import ScenarioSpec, SessionEngine, loss_burst_channel


def _ramp(n: int = 200, d: int = 6, step: float = 0.005) -> np.ndarray:
    return np.cumsum(np.full((n, d), step), axis=0)


def test_recovery_requires_matching_record():
    with pytest.raises(ConfigurationError):
        ForecoRecovery(ForecoConfig(record=5), forecaster=VarForecaster(record=7))


def test_recovery_reset_required_before_processing(trained_recovery):
    recovery = ForecoRecovery(ForecoConfig())
    recovery.forecaster = trained_recovery.forecaster
    with pytest.raises(ConfigurationError):
        recovery.process_slot(np.zeros(6), 1.0)


def test_is_on_time_uses_deadline():
    recovery = ForecoRecovery(ForecoConfig(command_period_ms=20.0, tolerance_ms=5.0))
    assert recovery.is_on_time(24.9)
    assert not recovery.is_on_time(25.1)
    assert not recovery.is_on_time(float("inf"))


def test_on_time_commands_pass_through(trained_recovery):
    commands = _ramp(50)
    delays = np.full(50, 1.0)
    executed = process_stream(trained_recovery, commands, delays)
    assert np.allclose(executed, commands)
    assert trained_recovery.stats.n_missing == 0


def test_missing_commands_are_forecast(trained_recovery):
    commands = _ramp(100)
    delays = np.full(100, 1.0)
    delays[50:55] = np.inf
    executed = process_stream(trained_recovery, commands, delays)
    stats = trained_recovery.stats
    assert stats.n_missing == 5
    assert stats.n_forecasted == 5
    assert stats.recovery_fraction == pytest.approx(1.0)
    # The forecasts differ from the hold-last baseline: they keep moving.
    assert not np.allclose(executed[54], executed[49])


def test_forecast_better_than_hold_on_ramp():
    """On a steadily moving trajectory the forecast beats repeating the last command."""
    recovery = ForecoRecovery(ForecoConfig(record=5))
    recovery.train(_ramp(600, step=0.01))
    commands = _ramp(120, step=0.01)
    delays = np.full(120, 1.0)
    delays[60:70] = np.inf
    executed = process_stream(recovery, commands, delays)
    forecast_error = np.abs(executed[60:70] - commands[60:70]).mean()
    hold_error = np.abs(commands[59] - commands[60:70]).mean()
    assert forecast_error < hold_error


def test_untrained_recovery_falls_back_to_hold():
    recovery = ForecoRecovery(ForecoConfig(record=3))
    commands = _ramp(30)
    delays = np.full(30, 1.0)
    delays[10:12] = np.inf
    executed = process_stream(recovery, commands, delays)
    assert np.allclose(executed[10], commands[9])
    assert recovery.stats.n_forecasted == 0


def test_forecast_clamped_to_moving_offset(experienced_stream):
    config = ForecoConfig(record=5, max_step_rad=0.04)
    recovery = ForecoRecovery(config)
    recovery.train(experienced_stream.commands)
    commands = experienced_stream.commands[:200]
    delays = np.full(200, 1.0)
    delays[100:140] = np.inf
    executed = process_stream(recovery, commands, delays)
    deltas = np.abs(np.diff(executed[99:140], axis=0))
    assert np.all(deltas <= config.max_step_rad + 1e-9)


def test_oracle_feedback_reduces_drift(experienced_stream, inexperienced_stream):
    """Feeding the true (late) commands back is at least as good as forecast feedback."""
    commands = inexperienced_stream.commands[:800]
    delays = np.full(800, 1.0)
    delays[200:260] = np.inf
    delays[500:560] = np.inf

    results = {}
    for feedback in ("forecast", "oracle"):
        recovery = ForecoRecovery(ForecoConfig(record=10, feedback=feedback))
        recovery.train(experienced_stream.commands)
        executed = process_stream(recovery, commands, delays)
        results[feedback] = float(np.abs(executed - commands).mean())
    assert results["oracle"] <= results["forecast"] + 1e-9


def test_process_stream_validates_shapes(trained_recovery):
    with pytest.raises(DimensionError):
        process_stream(trained_recovery, np.zeros((10, 6)), np.zeros(8))


def test_process_slot_validates_joint_count(trained_recovery):
    trained_recovery.reset(6)
    with pytest.raises(DimensionError):
        trained_recovery.process_slot(np.zeros(4), 1.0)


def test_stats_fractions():
    recovery = ForecoRecovery(ForecoConfig(record=2, algorithm="ma"))
    recovery.train(_ramp(50))
    commands = _ramp(40)
    delays = np.full(40, 1.0)
    delays[10:20] = np.inf
    process_stream(recovery, commands, delays)
    assert recovery.stats.missing_fraction == pytest.approx(0.25)
    assert 0.0 <= recovery.stats.recovery_fraction <= 1.0


def test_ma_forecaster_can_be_plugged_in(experienced_stream):
    recovery = ForecoRecovery(
        ForecoConfig(record=5, algorithm="ma"), forecaster=MovingAverageForecaster(record=5)
    )
    recovery.train(experienced_stream.commands[:1000])
    assert recovery.is_ready


@pytest.mark.parametrize("delay_ms", [1.0, 20.0, 25.1, float("inf"), float("nan"), np.float64(3.0)])
def test_is_on_time_returns_python_bool(delay_ms):
    recovery = ForecoRecovery(ForecoConfig(command_period_ms=np.float64(20.0), tolerance_ms=5.0))
    assert type(recovery.is_on_time(delay_ms)) is bool
    recovery.reset(2)
    decision = recovery.process_slot(np.zeros(2), delay_ms)
    assert type(decision.on_time) is bool
    json.dumps({"on_time": decision.on_time, "forecasted": decision.forecasted})


# ------------------------------------------------ online == batched kernel
#: Several times the window buffer, so the online path compacts it many times.
_LONG = 5 * (10 + _WINDOW_SLACK) + 7


@functools.lru_cache(maxsize=None)
def _fitted(algorithm: str, record: int) -> Forecaster:
    rng = np.random.default_rng(7)
    training = np.cumsum(rng.normal(0.0, 0.01, size=(600, 6)), axis=0)
    return make_forecaster(algorithm, record=record).fit(training)


def _stream(n: int, tolerance_ms: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """A wandering command stream whose delays mix on-time, late and lost slots."""
    rng = np.random.default_rng(11)
    commands = np.cumsum(rng.normal(0.0, 0.01, size=(n, 6)), axis=0)
    delays = rng.uniform(1.0, 19.0, size=n)
    delays[rng.random(n) < 0.15] = 20.0 + tolerance_ms + 1.0
    delays[rng.random(n) < 0.1] = 20.0 + tolerance_ms
    for start in rng.integers(0, n - 40, size=n // 60):
        delays[start : start + rng.integers(1, 40)] = np.inf
    delays[2] = np.inf  # before the window fills: the hold-last fallback
    return commands, delays


def _online(config: ForecoConfig, forecaster: Forecaster, commands, delays):
    recovery = ForecoRecovery(config, forecaster=copy.deepcopy(forecaster))
    recovery.reset(commands.shape[1], seed_history=commands[:1])
    decisions = [recovery.process_slot(row, delay) for row, delay in zip(commands, delays.tolist())]
    return recovery, decisions


@pytest.mark.parametrize("algorithm", ["var", "ma", "ses", "varma"])
@pytest.mark.parametrize(
    "overrides",
    [{}, {"feedback": "oracle"}, {"max_step_rad": None}, {"record": 1}, {"tolerance_ms": 4.0}],
    ids=["default", "oracle", "unclamped", "record1", "tolerance"],
)
def test_online_matches_batched_across_window_compactions(algorithm, overrides):
    config = ForecoConfig(algorithm=algorithm, **overrides)
    forecaster = _fitted(algorithm, config.record)
    commands, delays = _stream(_LONG, config.tolerance_ms)

    recovery, decisions = _online(config, forecaster, commands, delays)
    batched = ForecoRecovery(config, forecaster=copy.deepcopy(forecaster)).process_stream_batch(
        commands, delays
    )

    executed = np.stack([decision.executed_command for decision in decisions])
    forecasted = np.array([decision.forecasted for decision in decisions])
    on_time = np.array([decision.on_time for decision in decisions])
    assert executed.tobytes() == batched.executed[0].tobytes()
    assert np.array_equal(forecasted, batched.forecasted[0])
    assert np.array_equal(on_time, batched.on_time[0])
    assert 0 < recovery.stats.n_forecasted <= recovery.stats.n_missing < recovery.stats.n_slots
    for name, count in _mask_counts(batched, 0).items():
        assert getattr(recovery.stats, name) == count
    assert len(recovery.dataset) == recovery.stats.n_on_time


def _mask_counts(batched, row: int) -> dict[str, int]:
    """A kernel row's four recovery counts, summed from its masks."""
    return {
        "n_slots": batched.on_time.shape[1],
        "n_on_time": int(batched.on_time[row].sum()),
        "n_missing": int((~batched.on_time[row]).sum()),
        "n_forecasted": int(batched.forecasted[row].sum()),
    }


def _edge_case_holds(case: str, batched, commands: np.ndarray) -> bool:
    """Whether the batch really takes the path its edge case is named after."""
    missing = ~batched.on_time
    if case == "no-losses":
        return not missing.any()
    if case == "all-lost-row":
        return bool(missing[1].all() and batched.forecasted[1].any())
    if case in ("early-losses", "slot0-record1"):
        return bool(missing[:, 0].any() and batched.forecasted.any())
    if case == "untrained":
        return bool(missing.any() and not batched.forecasted.any())
    if case == "fallback-equals-command":
        same_bits = (batched.executed.view(np.uint64) == commands.view(np.uint64)).all(axis=-1)
        return bool((missing & same_bits).any())
    if case in ("gap-equals-record", "gap-exceeds-record"):
        gap = ForecoConfig().record + (case == "gap-exceeds-record")
        lost = np.flatnonzero(missing[0, 20:50]) + 20
        return lost.tolist() == [25, 25 + gap] and bool(batched.forecasted[0, lost].all())
    upper = NiryoOneArm().limits.position_max[1]
    overshoot = batched.forecasted & (batched.executed[:, :, 1] > upper) & (commands[:, 1] <= upper)
    return bool(overshoot.any())


@pytest.mark.parametrize(
    "case",
    [
        "no-losses",
        "all-lost-row",
        "early-losses",
        "slot0-record1",
        "untrained",
        "fallback-equals-command",
        "clipped-forecast",
        "gap-equals-record",
        "gap-exceeds-record",
    ],
)
def test_batched_kernel_edge_cases_match_online(case, kernel_edge_case, edge_case_training):
    config, trained, commands, delays = kernel_edge_case(case)
    forecaster = make_forecaster(config.algorithm, record=config.record)
    if trained:
        forecaster.fit(edge_case_training)
    batched = ForecoRecovery(config, forecaster=copy.deepcopy(forecaster)).process_stream_batch(
        commands, delays
    )
    assert _edge_case_holds(case, batched, commands)
    for row, row_delays in enumerate(delays):
        recovery, decisions = _online(config, forecaster, commands, row_delays)
        executed = np.stack([decision.executed_command for decision in decisions])
        assert executed.tobytes() == batched.executed[row].tobytes()
        assert np.array_equal([decision.forecasted for decision in decisions], batched.forecasted[row])
        for name, count in _mask_counts(batched, row).items():
            assert getattr(recovery.stats, name) == count


#: Loss bursts of one row, as ``(first slot, length)`` pairs.
_BURSTS = st.lists(st.tuples(st.integers(0, 95), st.integers(1, 24)), max_size=6)


@settings(max_examples=40, deadline=None)
@given(
    record=st.sampled_from([1, 3, 10]),
    feedback=st.sampled_from(["forecast", "oracle"]),
    clamped=st.booleans(),
    n_slots=st.integers(1, 96),
    head=st.integers(0, 12),
    bursts=st.lists(_BURSTS, min_size=1, max_size=4),
)
def test_batched_kernel_matches_online_on_random_bursts(record, feedback, clamped, n_slots, head, bursts):
    """Every kernel row equals its ``process_slot`` run, whatever the loss pattern.

    Bursts overlap, touch and sit ``record`` slots apart at random, so losses
    share a cluster or start new ones; ``head`` loses row 0's first slots,
    before the window fills, and a stream may end before it ever fills.
    """
    config = ForecoConfig(record=record, feedback=feedback, max_step_rad=0.04 if clamped else None)
    commands = _stream(96)[0][:n_slots]
    delays = np.full((len(bursts), commands.shape[0]), 1.0)
    for row, row_bursts in enumerate(bursts):
        for start, length in row_bursts:
            delays[row, start : start + length] = np.inf
    delays[0, :head] = np.inf
    forecaster = _fitted("var", record)
    batched = ForecoRecovery(config, forecaster=copy.deepcopy(forecaster)).process_stream_batch(
        commands, delays
    )
    for row, row_delays in enumerate(delays):
        _, decisions = _online(config, forecaster, commands, row_delays)
        executed = np.stack([decision.executed_command for decision in decisions])
        assert executed.tobytes() == batched.executed[row].tobytes()
        assert np.array_equal([decision.forecasted for decision in decisions], batched.forecasted[row])
        assert np.array_equal([decision.on_time for decision in decisions], batched.on_time[row])


# ---------------------------------------------------- ownership and errors
class _HoldLastView(Forecaster):
    """Repeats the last command, returning a view into the history it is given."""

    name = "hold-last-view"

    def _fit(self, commands):
        return None

    def _predict_next(self, history):
        return history[-1]


@pytest.mark.parametrize(
    "config",
    [
        ForecoConfig(record=4),
        ForecoConfig(record=4, algorithm="hold-last-view", max_step_rad=None),
        ForecoConfig(record=1, algorithm="hold-last-view", max_step_rad=None),
    ],
    ids=["var", "view-forecaster", "view-forecaster-record1"],
)
def test_executed_commands_stay_owned_by_the_caller(config):
    register_forecaster("hold-last-view", _HoldLastView, overwrite=True)
    commands, delays = _stream(_LONG)
    recovery = ForecoRecovery(config)
    recovery.train(commands[:200])
    recovery.reset(commands.shape[1], seed_history=commands[:1])
    kept = []
    for row, delay in zip(commands, delays.tolist()):
        decision = recovery.process_slot(row, delay)
        kept.append((decision, decision.executed_command.copy()))
    assert recovery.stats.n_forecasted > 0
    for decision, snapshot in kept:
        assert decision.executed_command.tobytes() == snapshot.tobytes()


def test_nan_on_time_command_raises_and_leaves_state_untouched():
    commands, delays = _stream(2 * (10 + _WINDOW_SLACK))
    forecaster = _fitted("var", 10)
    cut = commands.shape[0] // 2

    reference, expected = _online(ForecoConfig(), forecaster, commands, delays)
    recovery = ForecoRecovery(ForecoConfig(), forecaster=copy.deepcopy(forecaster))
    recovery.reset(commands.shape[1], seed_history=commands[:1])
    decisions = [recovery.process_slot(row, delay) for row, delay in zip(commands[:cut], delays[:cut])]
    poisoned = commands[cut].copy()
    poisoned[2] = np.nan
    with pytest.raises(DatasetError):
        recovery.process_slot(poisoned, 1.0)
    decisions += [recovery.process_slot(row, delay) for row, delay in zip(commands[cut:], delays[cut:])]

    for got, want in zip(decisions, expected, strict=True):
        assert (got.slot, got.on_time, got.forecasted) == (want.slot, want.on_time, want.forecasted)
        assert got.executed_command.tobytes() == want.executed_command.tobytes()
    assert recovery.stats == reference.stats
    assert recovery.dataset.to_array().tobytes() == reference.dataset.to_array().tobytes()


class _NanForecast(Forecaster):
    """Forecasts NaN for every joint."""

    name = "test-nan-forecast"

    def _fit(self, commands):
        return None

    def _predict_next(self, history):
        return np.full(history.shape[1], np.nan)


def test_non_finite_forecast_raises_on_every_path():
    """A NaN forecast fails with a typed error, never as a NaN RMSE."""
    register_forecaster(_NanForecast.name, _NanForecast, overwrite=True)
    try:
        config = ForecoConfig(algorithm=_NanForecast.name)
        commands, delays = _stream(300)
        recovery = ForecoRecovery(config).train(commands)
        recovery.reset(commands.shape[1], seed_history=commands[:1])
        # The first missing command with a full window; earlier ones hold.
        late = delays[config.record - 1 :] > config.deadline_ms
        lost = config.record - 1 + int(np.flatnonzero(late)[0])
        for row, delay in zip(commands[:lost], delays[:lost].tolist()):
            assert not recovery.process_slot(row, delay).forecasted
        with pytest.raises(SimulationError, match="non-finite forecast"):
            recovery.process_slot(commands[lost], np.inf)
        assert recovery.stats.n_slots == lost

        with pytest.raises(SimulationError, match="non-finite forecast"):
            ForecoRecovery(config).train(commands).process_stream_batch(commands, delays)

        spec = ScenarioSpec(channel=loss_burst_channel(burst_length=10), run_seconds=8.0)
        with pytest.raises(SimulationError, match="non-finite forecast"):
            SessionEngine().run(spec.with_foreco(algorithm=_NanForecast.name))
    finally:
        _CUSTOM_FORECASTERS.pop(_NanForecast.name, None)
