"""Edge cases of the batched recovery kernel, shared by the kernel and the
simulation tests: each builds one ``(B, n)`` delay batch that drives the
kernel down a rarely taken path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ForecoConfig
from repro.robot.niryo import NiryoOneArm

N_ROWS = 4
N_SLOTS = 80


def _edge_case(name: str) -> tuple[ForecoConfig, bool, np.ndarray, np.ndarray]:
    """``(config, trained, commands, delays)`` for the named edge case."""
    rng = np.random.default_rng(21)
    commands = np.cumsum(rng.normal(0.0, 0.01, size=(N_SLOTS, 6)), axis=0)
    delays = rng.uniform(1.0, 19.0, size=(N_ROWS, N_SLOTS))
    delays[rng.random((N_ROWS, N_SLOTS)) < 0.1] = np.inf
    config = ForecoConfig()
    if name == "no-losses":
        delays[np.isinf(delays)] = 1.0
    elif name == "all-lost-row":
        delays[1] = np.inf
    elif name == "early-losses":
        # The window holds fewer than ``record`` commands before slot
        # ``record - 1``: the hold-last fallback, then the first forecast.
        delays[0, : config.record - 1] = np.inf
        delays[2, 3] = np.inf
        delays[:, config.record - 1] = np.inf
    elif name == "slot0-record1":
        config = ForecoConfig(record=1)
        delays[:, 0] = np.inf
    elif name == "fallback-equals-command":
        # An idle start: the held command has the same bits as the lost one.
        commands[:6] = commands[0]
        delays[::2, 1:5] = np.inf
    elif name == "clipped-forecast":
        # Joint 1 is commanded past its upper limit and then back to it, so
        # the forecasts of a loss burst that starts there overshoot the
        # limit while the lost commands themselves sit on it.
        upper = NiryoOneArm().limits.position_max[1]
        commands[40:50, 1] = upper + 0.1
        commands[50:, 1] = upper
        delays[:, 50:66] = np.inf
    elif name in ("gap-equals-record", "gap-exceeds-record"):
        # Two losses in a row: ``record`` slots apart the second forecast
        # reads the first (one cluster); one slot further it cannot, and the
        # second loss starts a new cluster at wave 0.
        gap = config.record + (name == "gap-exceeds-record")
        delays[::2, 20:50] = 1.0
        delays[::2, [25, 25 + gap]] = np.inf
    elif name != "untrained":
        raise KeyError(name)
    return config, name != "untrained", commands, delays


@pytest.fixture(scope="session")
def kernel_edge_case():
    """Builder of ``(config, trained, commands, delays)`` for a named edge case."""
    return _edge_case


@pytest.fixture(scope="session")
def edge_case_training():
    """A training stream for the edge-case forecasters."""
    rng = np.random.default_rng(7)
    return np.cumsum(rng.normal(0.0, 0.01, size=(600, 6)), axis=0)
