"""Property-based invariants of the recovery loop and the simulation.

These tests use Hypothesis to generate arbitrary loss/delay patterns and
check structural invariants that must hold for *any* channel realisation —
the kind of guarantees a downstream user of the library relies on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import serial

from repro.core import CommandDataset, ForecoConfig, ForecoRecovery, RemoteControlSimulation
from repro.forecasting import MovingAverageForecaster


def _ramp(n: int, d: int = 6, step: float = 0.004) -> np.ndarray:
    return np.cumsum(np.full((n, d), step), axis=0)


def _make_recovery(record: int = 4) -> ForecoRecovery:
    recovery = ForecoRecovery(
        ForecoConfig(record=record, algorithm="ma"),
        forecaster=MovingAverageForecaster(record=record),
    )
    recovery.train(_ramp(200))
    return recovery


@settings(max_examples=25, deadline=None)
@given(
    delays=st.lists(
        st.one_of(st.floats(0.0, 15.0), st.just(float("inf")), st.floats(30.0, 500.0)),
        min_size=30,
        max_size=120,
    )
)
def test_on_time_slots_execute_the_true_command(delays):
    """Invariant: whenever a command arrives within the deadline, FoReCo
    executes exactly that command (constraint eq. 3 of the paper)."""
    delays_arr = np.array(delays, dtype=float)
    commands = _ramp(delays_arr.size)
    recovery = _make_recovery()
    executed = serial.process_stream(recovery, commands, delays_arr)
    on_time = np.isfinite(delays_arr) & (delays_arr <= recovery.config.deadline_ms)
    assert np.allclose(executed[on_time], commands[on_time])


@settings(max_examples=25, deadline=None)
@given(
    delays=st.lists(
        st.one_of(st.floats(0.0, 10.0), st.just(float("inf"))),
        min_size=30,
        max_size=100,
    )
)
def test_recovery_stats_are_consistent(delays):
    """Invariant: slot counters always add up and fractions stay in [0, 1]."""
    delays_arr = np.array(delays, dtype=float)
    commands = _ramp(delays_arr.size)
    recovery = _make_recovery()
    serial.process_stream(recovery, commands, delays_arr)
    stats = recovery.stats
    assert stats.n_slots == delays_arr.size
    assert stats.n_on_time + stats.n_missing == stats.n_slots
    assert stats.n_forecasted <= stats.n_missing
    assert 0.0 <= stats.missing_fraction <= 1.0
    assert 0.0 <= stats.recovery_fraction <= 1.0


@settings(max_examples=15, deadline=None)
@given(
    burst_start=st.integers(10, 60),
    burst_length=st.integers(1, 30),
)
def test_simulation_trajectories_have_consistent_lengths(
    burst_start, burst_length, trained_recovery, inexperienced_stream
):
    """Invariant: defined, baseline and FoReCo trajectories always align."""
    n = 120
    commands = inexperienced_stream.commands[:n]
    delays = np.full(n, 1.0)
    end = min(n, burst_start + burst_length)
    delays[burst_start:end] = np.inf
    outcome = RemoteControlSimulation(trained_recovery).run(commands, delays)
    expected = serial.RemoteControlSimulation(trained_recovery).run(commands, delays)
    assert np.array_equal(outcome.foreco.joints, expected.foreco.joints)
    assert outcome.rmse_foreco_mm == expected.rmse_foreco_mm
    assert outcome.rmse_no_forecast_mm == expected.rmse_no_forecast_mm
    assert len(outcome.defined) == len(outcome.baseline) == len(outcome.foreco) == n
    assert outcome.rmse_foreco_mm >= 0.0
    assert outcome.rmse_no_forecast_mm >= 0.0
    assert 0.0 <= outcome.late_fraction <= 1.0


@settings(max_examples=20, deadline=None)
@given(
    n_commands=st.integers(5, 80),
    max_history=st.integers(4, 40),
)
def test_dataset_roundtrip_through_csv(tmp_path_factory, n_commands, max_history):
    """Invariant: save -> load preserves the stored commands exactly."""
    rng = np.random.default_rng(n_commands)
    dataset = CommandDataset(n_joints=6, max_history=max_history, period_ms=20.0)
    dataset.extend(rng.normal(0.0, 0.5, size=(n_commands, 6)))
    path = tmp_path_factory.mktemp("datasets") / "commands.csv"
    dataset.save(str(path))
    restored = CommandDataset.load(str(path))
    assert restored.n_joints == 6
    assert restored.period_ms == pytest.approx(20.0)
    assert np.allclose(restored.to_array(), dataset.to_array())


def test_dataset_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# n_joints=6 period_ms=20.0\n")
    from repro.errors import DatasetError

    with pytest.raises((DatasetError, ValueError)):
        CommandDataset.load(str(path))
