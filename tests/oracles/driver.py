"""The robot driver loop: the per-slot reference for the session kernel.

The Niryo One ROS stack expects a control command every Ω ms.  When a command
does not arrive on time (``Δ(c_i) > τ``, with τ = 0 on the real robot) the
stack simply re-feeds the previous command to the motion-planning layer; some
robots instead stop in place.  Either way the executed trajectory deviates
from the defined one — this is precisely the gap FoReCo fills by injecting a
*forecast* command instead.

:class:`RobotDriver` reproduces that loop one slot at a time:

* the caller feeds it one "slot" per command period, saying whether the
  original command arrived on time and, if FoReCo is attached, providing the
  forecast to inject otherwise;
* the driver applies its fallback policy (``hold`` = repeat last command,
  ``stop`` = freeze) when neither a command nor a forecast is available;
* the resulting target stream is executed either perfectly (kinematic mode)
  or through the per-joint PID controller (dynamic mode used for Fig. 10).

The library executes whole ``(B, n, d)`` target arrays in
:class:`~repro.core.BatchedRemoteControlSimulation`; the serial session
oracle (:mod:`oracles.serial`) runs this loop instead, and every
batched-vs-serial equality test compares against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.errors import ConfigurationError, DimensionError
from repro.robot.niryo import NiryoOneArm
from repro.robot.pid import JointPidController, PidGains
from repro.robot.trajectory import JointTrajectory

FallbackPolicy = Literal["hold", "stop"]


@dataclass
class DriverConfig:
    """Configuration of the robot driver loop.

    Attributes
    ----------
    command_period_ms:
        Ω, the expected command interval.
    tolerance_ms:
        τ, the extra delay tolerated before a command is considered missing.
    fallback:
        What to execute when a command is missing and no forecast is
        injected: ``"hold"`` repeats the previous target (Niryo behaviour),
        ``"stop"`` keeps the current joint position.
    use_pid:
        When True, targets are executed through the PID joint controller
        (dynamic mode); when False the robot tracks targets exactly
        (kinematic mode), which is what the simulation study needs.
    pid_gains:
        Gains for the dynamic mode.
    """

    command_period_ms: float = 20.0
    tolerance_ms: float = 0.0
    fallback: FallbackPolicy = "hold"
    use_pid: bool = False
    pid_gains: PidGains = field(default_factory=PidGains)

    def __post_init__(self) -> None:
        if self.command_period_ms <= 0:
            raise ConfigurationError("command_period_ms must be positive")
        if self.tolerance_ms < 0:
            raise ConfigurationError("tolerance_ms must be non-negative")
        if self.fallback not in ("hold", "stop"):
            raise ConfigurationError(f"unknown fallback policy {self.fallback!r}")


@dataclass
class DriverLog:
    """Per-slot record of what the driver received and executed."""

    times_s: list[float] = field(default_factory=list)
    targets: list[np.ndarray] = field(default_factory=list)
    executed: list[np.ndarray] = field(default_factory=list)
    on_time: list[bool] = field(default_factory=list)
    injected: list[bool] = field(default_factory=list)

    def executed_trajectory(self, label: str = "executed") -> JointTrajectory:
        """Executed joint trajectory as a :class:`JointTrajectory`."""
        return JointTrajectory(np.array(self.times_s), np.array(self.executed), label=label)

    def target_trajectory(self, label: str = "target") -> JointTrajectory:
        """Targets the driver fed to the control loop."""
        return JointTrajectory(np.array(self.times_s), np.array(self.targets), label=label)

    @property
    def n_missing(self) -> int:
        """Number of slots whose original command did not arrive on time."""
        return sum(1 for flag in self.on_time if not flag)

    @property
    def n_injected(self) -> int:
        """Number of slots where a forecast was injected."""
        return sum(1 for flag in self.injected if flag)


class RobotDriver:
    """Command-period driver loop for a Niryo-One-like arm."""

    def __init__(self, arm: NiryoOneArm | None = None, config: DriverConfig | None = None) -> None:
        self.arm = arm if arm is not None else NiryoOneArm()
        self.config = config if config is not None else DriverConfig()
        self._pid: JointPidController | None = None
        self.reset(self.arm.home_pose())

    def reset(self, initial_joints: np.ndarray) -> None:
        """Reset the driver and its controller to a known joint state."""
        initial_joints = np.asarray(initial_joints, dtype=float).ravel()
        if initial_joints.size != self.arm.n_joints:
            raise DimensionError(f"expected {self.arm.n_joints} joints, got {initial_joints.size}")
        self.current_target = initial_joints.copy()
        self.current_position = initial_joints.copy()
        self.log = DriverLog()
        self._slot = 0
        if self.config.use_pid:
            self._pid = JointPidController(
                self.arm.n_joints,
                dt_s=self.config.command_period_ms / 1000.0,
                gains=self.config.pid_gains,
                velocity_limits=self.arm.limits.velocity_max,
            )
            self._pid.reset(initial_joints)
        else:
            self._pid = None

    # ----------------------------------------------------------- slot intake
    def execute_slot(
        self,
        command: np.ndarray | None,
        forecast: np.ndarray | None = None,
    ) -> np.ndarray:
        """Process one command period.

        Parameters
        ----------
        command:
            The joint command that arrived on time for this slot, or ``None``
            if it was delayed beyond τ or lost.
        forecast:
            Forecast to inject when ``command`` is ``None`` (FoReCo).  Ignored
            when the real command arrived.

        Returns
        -------
        numpy.ndarray
            The joint position actually executed during this slot.
        """
        on_time = command is not None
        injected = False
        if on_time:
            target = np.asarray(command, dtype=float).ravel()
        elif forecast is not None:
            target = np.asarray(forecast, dtype=float).ravel()
            injected = True
        elif self.config.fallback == "hold":
            target = self.current_target.copy()
        else:  # "stop"
            target = self.current_position.copy()

        if target.size != self.arm.n_joints:
            raise DimensionError(f"command must have {self.arm.n_joints} joints, got {target.size}")
        target = self.arm.clamp(target)
        self.current_target = target

        if self._pid is not None:
            executed = self._pid.step(target)
        else:
            executed = target.copy()
        self.current_position = executed

        time_s = self._slot * self.config.command_period_ms / 1000.0
        self.log.times_s.append(time_s)
        self.log.targets.append(target.copy())
        self.log.executed.append(executed.copy())
        self.log.on_time.append(on_time)
        self.log.injected.append(injected)
        self._slot += 1
        return executed

    def run(
        self,
        commands: np.ndarray,
        on_time_mask: np.ndarray,
        forecasts: np.ndarray | None = None,
    ) -> DriverLog:
        """Run a full command stream through the driver.

        Parameters
        ----------
        commands:
            Defined command stream, shape ``(n, d)``.
        on_time_mask:
            Boolean array of length ``n``; False marks commands that did not
            arrive within the tolerance.
        forecasts:
            Optional array of the same shape as ``commands`` giving the value
            to inject for each missing slot (rows for on-time slots are
            ignored).  ``None`` disables injection (the no-forecast baseline).
        """
        commands = np.asarray(commands, dtype=float)
        on_time_mask = np.asarray(on_time_mask, dtype=bool).ravel()
        if commands.ndim != 2 or commands.shape[0] != on_time_mask.size:
            raise DimensionError("commands and on_time_mask lengths must match")
        if forecasts is not None:
            forecasts = np.asarray(forecasts, dtype=float)
            if forecasts.shape != commands.shape:
                raise DimensionError("forecasts must have the same shape as commands")

        self.reset(commands[0])
        for index in range(commands.shape[0]):
            if on_time_mask[index]:
                self.execute_slot(commands[index])
            else:
                forecast = forecasts[index] if forecasts is not None else None
                self.execute_slot(None, forecast=forecast)
        return self.log
