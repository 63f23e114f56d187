"""The lost-slot session kernel and the stock stack's baseline rule, against the serial oracles.

The recovery kernel computes only the missing slots, in one stream of
the defined commands and the lost slots' values, and returns them sparsely; the simulation clips and
measures only those.  These tests drive that path's edge cases against
``oracles.serial.process_stream``, check the baseline's slot arithmetic
against a slot-by-slot reference, and bound what one kinematic pass
allocates.
"""

from __future__ import annotations

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles.serial import baseline_indices, process_stream

from repro.core import BatchedRemoteControlSimulation, ForecoConfig, ForecoRecovery, baseline_target_indices
from repro.forecasting import Forecaster, VarForecaster

# ------------------------------------------------------------ baseline rule
#: Ω values whose slot ends ``(s + 1) * Ω`` are exact: the paper's 20 ms,
#: and others.  At a period whose multiples round (0.1 or 33.3 ms) the
#: kernel's ``ceil(arrival / Ω)`` slot arithmetic can place an arrival that
#: lands exactly on a slot end one slot away from this rule.
_PERIODS = (20.0, 1.0, 0.5, 25.0)


@st.composite
def _delay_batches(draw) -> tuple[float, np.ndarray]:
    """``(Ω, delays)``: ``B`` rows of on-time, late, lost and on-boundary delays."""
    period = draw(st.sampled_from(_PERIODS))
    n_slots = draw(st.integers(1, 30))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = []
        for slot in range(n_slots):
            late = draw(st.integers(0, 5))
            # ``(slot + late) * Ω - slot * Ω`` lands on the end of slot
            # ``slot + late - 1``, up to rounding.
            choices = [0.0, np.inf, late * period, (slot + late) * period - slot * period]
            row.append(draw(st.sampled_from([*choices, draw(st.floats(0.0, 6.0 * period))])))
        rows.append(row)
    if draw(st.booleans()):
        rows[0] = [np.inf] * n_slots
    return period, np.array(rows)


@settings(max_examples=200, deadline=None)
@given(_delay_batches())
@example((20.0, np.array([[np.inf]])))
@example((20.0, np.array([[0.0]])))
# Command 1 arrives at 40 ms, the end of its own slot; command 2 at 80 ms,
# the end of slot 3, where it is the newest arrived.
@example((20.0, np.array([[0.0, 20.0, 40.0, np.inf]])))
@example((20.0, np.array([[np.inf] * 5, [0.0, 20.0, 40.0, 20.0, 0.0]])))
def test_baseline_indices_follow_the_newest_arrived_rule(case):
    """Each slot feeds the newest command that has arrived by the slot's end."""
    period, delays = case
    stacked = baseline_target_indices(delays, period)
    for row, row_delays in enumerate(delays):
        expected = baseline_indices(row_delays, period)
        assert stacked[row].tolist() == expected
        assert baseline_target_indices(row_delays, period).tolist() == expected


# ---------------------------------------------------- compact recovery path
class _WindowMean(Forecaster):
    """Forecasts the window's mean, one history at a time (no batched predict)."""

    name = "test-window-mean"

    def _fit(self, commands):
        return None

    def _predict_next(self, history):
        return history.mean(axis=0)


_RECORD = ForecoConfig().record


def _case(name: str) -> tuple[ForecoConfig, Forecaster, np.ndarray, np.ndarray]:
    """``(config, forecaster, commands, delays)`` for the named edge case."""
    rng = np.random.default_rng(35)
    n_slots = 60
    commands = np.cumsum(rng.normal(0.0, 0.01, size=(n_slots, 6)), axis=0)
    delays = np.full((4, n_slots), 1.0)
    delays[:, 30:34] = np.inf
    delays[1, 40:52] = np.inf
    config = ForecoConfig()
    forecaster: Forecaster = VarForecaster(record=_RECORD)
    fitted = True
    if name == "shorter-than-record":
        commands, delays = commands[: _RECORD - 3], delays[:, : _RECORD - 3]
        delays[:, 1:4] = np.inf
    elif name == "early-losses-in-first-window":
        # Slots 2 and 5 hold (short windows); the windows of slots 9 and 12
        # read them back.
        delays[:, [2, 5, 9, 12]] = np.inf
        delays[2, : _RECORD - 1] = np.inf
    elif name == "loss-at-last-slot":
        delays[:, -1] = np.inf
        delays[0, -6:] = np.inf
    elif name == "all-lost-and-none-lost":
        delays[0] = np.inf
        delays[1] = 1.0
    elif name == "oracle-feedback":
        # Every row's short windows read the command stream, never row 0's holds.
        config = ForecoConfig(feedback="oracle")
        delays[0, 1:5] = np.inf
        delays[:, [6, 12]] = np.inf
    elif name == "unfitted":
        fitted = False
        delays[:, [3, 12]] = np.inf
    elif name == "unbatchable":
        forecaster = _WindowMean(record=_RECORD)
        delays[:, [3, 12]] = np.inf
    else:
        raise KeyError(name)
    if fitted:
        forecaster.fit(np.cumsum(rng.normal(0.0, 0.01, size=(400, 6)), axis=0))
    return config, forecaster, commands, delays


@pytest.mark.parametrize(
    "name",
    [
        "shorter-than-record",
        "early-losses-in-first-window",
        "loss-at-last-slot",
        "all-lost-and-none-lost",
        "oracle-feedback",
        "unfitted",
        "unbatchable",
    ],
)
def test_compact_recovery_edge_cases_equal_the_serial_stream(name):
    config, forecaster, commands, delays = _case(name)
    batched = ForecoRecovery(config, forecaster=copy.deepcopy(forecaster)).process_stream_batch(
        commands, delays
    )
    lost_rows, lost_slots = np.nonzero(~batched.on_time)
    assert np.array_equal(batched.lost_rows, lost_rows)
    assert np.array_equal(batched.lost_slots, lost_slots)
    executed = batched.executed
    assert batched.lost_values.tobytes() == executed[lost_rows, lost_slots].tobytes()
    for row, row_delays in enumerate(delays):
        decisions = []
        recovery = ForecoRecovery(config, forecaster=copy.deepcopy(forecaster))
        serial = process_stream(recovery, commands, row_delays, decisions)
        assert serial.tobytes() == executed[row].tobytes()
        assert [decision.on_time for decision in decisions] == batched.on_time[row].tolist()
        assert [decision.forecasted for decision in decisions] == batched.forecasted[row].tolist()
    if name in ("unfitted", "shorter-than-record"):
        assert not batched.forecasted.any()
    else:
        assert batched.forecasted.any()


# ------------------------------------------------------------- memory guard
def test_a_kinematic_pass_allocates_less_than_one_session_stack():
    """``run`` at B = 512, n = 1500, d = 6 peaks below one ``(B, n, d)`` float64 array."""
    rng = np.random.default_rng(8)
    n_batch, n_slots, n_joints = 512, 1500, 6
    commands = np.cumsum(rng.normal(0.0, 0.01, size=(n_slots, n_joints)), axis=0)
    delays = rng.uniform(1.0, 19.0, size=(n_batch, n_slots))
    delays[rng.random((n_batch, n_slots)) < 0.03] = np.inf
    delays[rng.random((n_batch, n_slots)) < 0.02] = 45.0
    recovery = ForecoRecovery(ForecoConfig()).train(commands)
    simulation = BatchedRemoteControlSimulation(recovery)
    stack_bytes = n_batch * n_slots * n_joints * np.dtype(float).itemsize

    tracemalloc.start()
    try:
        batch = simulation.run(commands, delays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.repetitions == n_batch
    assert peak < stack_bytes, f"peak {peak / 1e6:.1f} MB >= one (B, n, d) stack {stack_bytes / 1e6:.1f} MB"
