"""Remote controller: turns operator motion into the on-the-wire command stream.

The joystick-based remote controller in the testbed issues one absolute joint
command every Ω = 20 ms, where consecutive commands differ by at most the
robot's configured *moving offset* (0.04 rad per joint).  This module applies
that quantisation to an operator's raw motion and packages the result as a
:class:`CommandStream`, the canonical input of every experiment:

* the defined (ideal) command sequence ``c_1 .. c_N``,
* the generation timestamps ``g(c_i)`` on the Ω grid,
* convenience accessors used by the dataset/recovery layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_command_array, ensure_positive
from ..errors import DimensionError
from ..robot.niryo import NiryoOneArm
from .operator import OperatorModel


@dataclass
class CommandStream:
    """An ordered stream of remote-control commands on the Ω time grid.

    Attributes
    ----------
    commands:
        Absolute joint commands, shape ``(n, d)``.
    period_ms:
        Command interval Ω in milliseconds.
    label:
        Free-form provenance label ("experienced", "inexperienced", ...).
    """

    commands: np.ndarray
    period_ms: float = 20.0
    label: str = ""

    def __post_init__(self) -> None:
        self.commands = as_command_array("commands", self.commands)
        self.period_ms = ensure_positive("period_ms", self.period_ms)

    def __len__(self) -> int:
        return self.commands.shape[0]

    @property
    def n_joints(self) -> int:
        """Dimensionality ``d`` of each command."""
        return self.commands.shape[1]

    @property
    def duration_s(self) -> float:
        """Wall-clock duration spanned by the stream."""
        return len(self) * self.period_ms / 1000.0

    def generation_times_s(self) -> np.ndarray:
        """``g(c_i)`` — the time each command is issued, in seconds."""
        return np.arange(len(self)) * self.period_ms / 1000.0

    def slice(self, start: int, stop: int) -> "CommandStream":
        """Sub-stream of commands ``start <= i < stop``."""
        return CommandStream(self.commands[start:stop], period_ms=self.period_ms, label=self.label)

    def head_seconds(self, seconds: float) -> "CommandStream":
        """The first ``seconds`` worth of commands (e.g. a 30 s experiment run)."""
        n = int(round(seconds * 1000.0 / self.period_ms))
        n = max(1, min(n, len(self)))
        return self.slice(0, n)

    def distance_from_origin_mm(self, arm: NiryoOneArm | None = None) -> np.ndarray:
        """Distance-from-origin series of the defined trajectory (Fig. 6 y-axis)."""
        arm = arm if arm is not None else NiryoOneArm()
        return arm.trajectory_distance_mm(self.commands)


class RemoteController:
    """Quantising remote controller sitting between the operator and the network.

    Parameters
    ----------
    arm:
        The target arm (provides the moving offset and joint limits).
    command_period_ms:
        Ω, the command interval.
    moving_offset_rad:
        Maximum per-joint change between consecutive commands.  ``None`` uses
        the arm's configured offset (0.04 rad for the Niryo One).
    """

    def __init__(
        self,
        arm: NiryoOneArm | None = None,
        command_period_ms: float = 20.0,
        moving_offset_rad: float | None = None,
    ) -> None:
        self.arm = arm if arm is not None else NiryoOneArm()
        self.command_period_ms = ensure_positive("command_period_ms", command_period_ms)
        offset = (
            moving_offset_rad
            if moving_offset_rad is not None
            else self.arm.limits.moving_offset_rad
        )
        self.moving_offset_rad = ensure_positive("moving_offset_rad", offset)

    def quantise(self, raw_motion: np.ndarray, label: str = "") -> CommandStream:
        """Convert raw operator motion into a rate-limited command stream.

        Each output command moves every joint at most ``moving_offset_rad``
        from the previous command towards the operator's current position, and
        is clamped to the arm's joint limits — exactly what the joystick
        controller in the testbed does.
        """
        raw_motion = as_command_array("raw_motion", raw_motion)
        if raw_motion.shape[1] != self.arm.n_joints:
            raise DimensionError(
                f"raw motion must have {self.arm.n_joints} joints, got {raw_motion.shape[1]}"
            )
        low, high = self.arm.limits.position_min, self.arm.limits.position_max
        offset = self.moving_offset_rad
        commands = np.empty_like(raw_motion)
        current = raw_motion[0].copy()
        commands[0] = self.arm.clamp(current)
        delta = np.empty_like(current)
        # In-place maximum-then-minimum gives np.clip's bits without its
        # per-call overhead; the rate limit itself stays a sequential loop.
        for index in range(1, raw_motion.shape[0]):
            np.subtract(raw_motion[index], current, out=delta)
            np.minimum(np.maximum(delta, -offset, out=delta), offset, out=delta)
            np.add(current, delta, out=current)
            np.minimum(np.maximum(current, low, out=current), high, out=current)
            commands[index] = current
        return CommandStream(commands, period_ms=self.command_period_ms, label=label)

    def stream_from_operator(self, operator: OperatorModel, n_repetitions: int = 10) -> CommandStream:
        """Generate an operator dataset and quantise it into a command stream."""
        raw = operator.generate_dataset(n_repetitions)
        return self.quantise(raw, label=operator.profile.name)
