"""End-to-end remote-control session: operator → channel → FoReCo → robot.

This module wires the substrates together into the experiment the paper runs
over and over (§VI-C, §VI-D): replay an operator's command stream, subject it
to a wireless channel (analytical 802.11 model, controlled loss bursts or a
jammer), and execute it on the robot twice —

* the **no-forecast baseline**: the stock robot stack.  It executes commands
  *when they arrive*: while no new command has arrived it keeps re-feeding
  the previous one to the control loop, and when delayed commands finally
  make it through the backlogged access-point queue it executes them late —
  so the executed trajectory lags behind (and loses pieces of) the operator's
  motion;
* **FoReCo**: the recovery engine never waits — each slot either executes the
  command that arrived on time or injects a forecast, discarding stale
  commands.

Both executions are compared against the *defined* trajectory (the commands
the operator actually issued, on the Ω time grid) using the Cartesian RMSE of
the end effector.  :func:`compare_baseline_and_foreco` is the single-call
helper the figures, examples and benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError, DimensionError
from ..robot.driver import DriverConfig, RobotDriver
from ..robot.niryo import NiryoOneArm
from ..robot.pid import JointPidController
from ..robot.trajectory import JointTrajectory, trajectory_rmse_mm
from ..wireless.channel import CommandDelayTrace
from .config import ForecoConfig
from .recovery import ForecoRecovery


@dataclass
class SimulationOutcome:
    """Result of one remote-control session simulation.

    Attributes
    ----------
    rmse_no_forecast_mm / rmse_foreco_mm:
        Trajectory RMSE of the baseline and of FoReCo against the defined
        trajectory.
    improvement_factor:
        ``rmse_no_forecast / rmse_foreco`` — the paper's headline "x18 / x2"
        figures.
    late_fraction:
        Fraction of commands that missed their deadline in this run.
    defined / baseline / foreco:
        The three joint trajectories (for plotting Figs. 9/10-style curves).
    recovery_fraction:
        Fraction of missing slots FoReCo managed to fill with a forecast.
    """

    rmse_no_forecast_mm: float
    rmse_foreco_mm: float
    late_fraction: float
    recovery_fraction: float
    defined: JointTrajectory = field(repr=False)
    baseline: JointTrajectory = field(repr=False)
    foreco: JointTrajectory = field(repr=False)

    @property
    def improvement_factor(self) -> float:
        """How many times FoReCo reduces the trajectory RMSE."""
        if self.rmse_foreco_mm <= 0:
            return float("inf")
        return self.rmse_no_forecast_mm / self.rmse_foreco_mm


def baseline_target_indices(delays_ms: np.ndarray, command_period_ms: float) -> np.ndarray:
    """Per-slot command indices executed by the stock (no-forecast) robot stack.

    Command ``c_i`` is generated at ``g_i = i * Ω`` and arrives at
    ``g_i + Δ(c_i)`` (never, if lost).  At every control tick the stock
    stack feeds the most recently *arrived* command to the control loop,
    re-feeding the previous one while nothing new has arrived — which is
    exactly the "laggy" behaviour the paper attributes to delayed
    commands, on top of the outright losses.

    Parameters
    ----------
    delays_ms:
        Per-command end-to-end delays (ms, ``inf`` = lost), shape ``(n,)``.
    command_period_ms:
        Ω, the command period in milliseconds.

    Returns
    -------
    numpy.ndarray of int, shape ``(n,)``
        For each slot, the index of the command the stock stack feeds to the
        control loop (``indices[0]`` is always 0: slots before the first
        arrival hold the initial command).
    """
    delays_ms = np.asarray(delays_ms, dtype=float).ravel()
    period = float(command_period_ms)
    n = delays_ms.size
    arrival_times = np.arange(n) * period + delays_ms
    # Slot s spans (s*Ω, (s+1)*Ω]; command i is usable in slot s once it
    # has arrived by the end of the slot, i.e. from slot
    # ceil(arrival_i / Ω) - 1 onwards (and never before its own slot).
    first_usable_slot = np.full(n, n, dtype=int)
    delivered = np.isfinite(arrival_times)
    slots = np.ceil(arrival_times[delivered] / period).astype(int) - 1
    first_usable_slot[delivered] = np.maximum(
        np.arange(n)[delivered], np.maximum(slots, 0)
    )
    # newest_at[s] = largest command index usable at slot s (-1 if none yet).
    newest_at = np.full(n, -1, dtype=int)
    usable = first_usable_slot < n
    np.maximum.at(newest_at, first_usable_slot[usable], np.arange(n)[usable])
    newest_at = np.maximum.accumulate(newest_at)
    return np.where(newest_at >= 0, newest_at, 0)


class RemoteControlSimulation:
    """Replays a command stream through a channel, with and without FoReCo."""

    def __init__(
        self,
        recovery: ForecoRecovery,
        arm: NiryoOneArm | None = None,
        use_pid: bool = False,
        fallback: str = "hold",
    ) -> None:
        if not recovery.is_ready:
            raise ConfigurationError("the recovery engine must be trained before simulating")
        self.recovery = recovery
        self.arm = arm if arm is not None else NiryoOneArm()
        self.use_pid = bool(use_pid)
        self.fallback = fallback

    # ------------------------------------------------------------------ run
    def run(self, commands: np.ndarray, delays_ms: np.ndarray) -> SimulationOutcome:
        """Execute one session given per-command end-to-end delays."""
        commands = np.asarray(commands, dtype=float)
        delays_ms = np.asarray(delays_ms, dtype=float).ravel()
        if commands.ndim != 2 or commands.shape[0] != delays_ms.size:
            raise DimensionError("commands and delays_ms lengths must match")
        config = self.recovery.config

        # FoReCo pass: compute per-slot executed targets (real or forecast).
        foreco_targets = self.recovery.process_stream(commands, delays_ms)
        on_time_mask = np.array(
            [self.recovery.is_on_time(delay) for delay in delays_ms], dtype=bool
        )
        late_fraction = float(1.0 - on_time_mask.mean())
        recovery_fraction = self.recovery.stats.recovery_fraction

        driver_config = DriverConfig(
            command_period_ms=config.command_period_ms,
            tolerance_ms=config.tolerance_ms,
            fallback=self.fallback,  # type: ignore[arg-type]
            use_pid=self.use_pid,
        )

        # Baseline: execute commands as they arrive (stock stack behaviour).
        baseline_targets = self._baseline_targets(commands, delays_ms)
        baseline_driver = RobotDriver(arm=self.arm, config=driver_config)
        baseline_log = baseline_driver.run(
            baseline_targets, np.ones(commands.shape[0], dtype=bool), forecasts=None
        )

        # FoReCo: inject the recovery engine's forecasts for missing slots.
        foreco_driver = RobotDriver(arm=self.arm, config=driver_config)
        foreco_log = foreco_driver.run(commands, on_time_mask, forecasts=foreco_targets)

        period_s = config.command_period_ms / 1000.0
        times = np.arange(commands.shape[0]) * period_s
        defined = JointTrajectory(times, commands, label="defined")
        baseline = baseline_log.executed_trajectory(label="no-forecast")
        foreco = foreco_log.executed_trajectory(label="foreco")

        return SimulationOutcome(
            rmse_no_forecast_mm=trajectory_rmse_mm(baseline.joints, commands, arm=self.arm),
            rmse_foreco_mm=trajectory_rmse_mm(foreco.joints, commands, arm=self.arm),
            late_fraction=late_fraction,
            recovery_fraction=recovery_fraction,
            defined=defined,
            baseline=baseline,
            foreco=foreco,
        )

    def _baseline_targets(self, commands: np.ndarray, delays_ms: np.ndarray) -> np.ndarray:
        """Per-slot targets executed by the stock (no-forecast) robot stack."""
        period = self.recovery.config.command_period_ms
        return commands[baseline_target_indices(delays_ms, period)]

    def run_trace(self, commands: np.ndarray, trace: CommandDelayTrace) -> SimulationOutcome:
        """Convenience wrapper accepting a :class:`CommandDelayTrace`."""
        delays = trace.delays()
        if delays.size < commands.shape[0]:
            raise DimensionError(
                f"trace has {delays.size} samples but the stream has {commands.shape[0]} commands"
            )
        return self.run(commands, delays[: commands.shape[0]])


class BatchedRemoteControlSimulation:
    """Vectorized variant of :class:`RemoteControlSimulation` over ``B`` runs.

    The paper's headline numbers are means over many repeated sessions that
    share one command stream but see independent channel realisations.  Those
    repetitions are embarrassingly stackable: this class advances all ``B``
    delay traces, recovery state machines and robot trajectories in lockstep
    ``(B, ...)`` arrays, then reduces to one :class:`SimulationOutcome` per
    repetition.  Every array operation involved is elementwise or uses a
    batch-size-invariant reduction, so each outcome is **bit-identical** to
    what a serial :class:`RemoteControlSimulation` run would have produced
    for the same delay trace (this is asserted by the test suite).

    Parameters
    ----------
    recovery:
        A trained recovery engine whose forecaster has
        ``supports_batch_predict = True``.  One shared engine serves the
        whole batch; per-repetition bookkeeping lives in the stacked arrays.
    arm / use_pid / fallback:
        Same meaning as on :class:`RemoteControlSimulation`.
    """

    def __init__(
        self,
        recovery: ForecoRecovery,
        arm: NiryoOneArm | None = None,
        use_pid: bool = False,
        fallback: str = "hold",
    ) -> None:
        if not recovery.is_ready:
            raise ConfigurationError("the recovery engine must be trained before simulating")
        if not getattr(recovery.forecaster, "supports_batch_predict", False):
            raise ConfigurationError(
                f"{type(recovery.forecaster).__name__} does not support batched prediction; "
                "run the serial RemoteControlSimulation instead"
            )
        self.recovery = recovery
        self.arm = arm if arm is not None else NiryoOneArm()
        self.use_pid = bool(use_pid)
        self.fallback = fallback
        # Validates the period/tolerance/fallback combination exactly like
        # the serial driver does.
        self._driver_config = DriverConfig(
            command_period_ms=recovery.config.command_period_ms,
            tolerance_ms=recovery.config.tolerance_ms,
            fallback=fallback,  # type: ignore[arg-type]
            use_pid=self.use_pid,
        )

    # ------------------------------------------------------------------ run
    def run(self, commands: np.ndarray, delays_ms: np.ndarray) -> list[SimulationOutcome]:
        """Execute ``B`` sessions given per-repetition delay traces.

        Parameters
        ----------
        commands:
            The defined command stream, shape ``(n, d)``, shared by every
            repetition.
        delays_ms:
            Per-repetition end-to-end delays, shape ``(B, n)`` (``inf`` =
            lost); a 1-D array is treated as ``B = 1``.

        Returns
        -------
        list[SimulationOutcome]
            One outcome per repetition, in delay-trace order.
        """
        commands = np.asarray(commands, dtype=float)
        delays_ms = np.asarray(delays_ms, dtype=float)
        if delays_ms.ndim == 1:
            delays_ms = delays_ms[None, :]
        if commands.ndim != 2 or delays_ms.ndim != 2 or commands.shape[0] != delays_ms.shape[1]:
            raise DimensionError("commands (n, d) and delays_ms (B, n) lengths must match")
        n_batch, n_slots = delays_ms.shape
        period_ms = self.recovery.config.command_period_ms

        # FoReCo pass: all recovery state machines advance in lockstep.
        batch = self.recovery.process_stream_batch(commands, delays_ms)

        # Baseline pass: the stock stack's "most recently arrived command"
        # rule is exact integer slot arithmetic, computed per repetition.
        baseline_targets = np.empty((n_batch, n_slots, commands.shape[1]))
        for index in range(n_batch):
            baseline_targets[index] = commands[
                baseline_target_indices(delays_ms[index], period_ms)
            ]

        # Both serial driver runs start from the raw first defined command
        # (RobotDriver.run resets to its stream's first row, which is
        # commands[0] for the FoReCo stream and for the baseline stream).
        # The targets are clipped in place and released once executed, so
        # a stacked pass makes no clipped copies of its ``(B, n, d)`` arrays.
        on_time, stats = batch.on_time, batch.stats
        baseline_executed = self._execute_batch(baseline_targets, initial=commands[0])
        foreco_executed = self._execute_batch(batch.executed, initial=commands[0])
        del batch, baseline_targets

        times = np.arange(n_slots) * (period_ms / 1000.0)
        # The defined trajectory is shared by every repetition and both
        # metric passes: evaluate its forward kinematics once instead of 2B
        # times inside trajectory_rmse_mm (same function of the same input,
        # so the RMSE stays bit-identical to the serial path's).
        defined_mm = self.arm.kinematics.positions(commands) * 1000.0

        def rmse_mm(executed: np.ndarray) -> float:
            executed_mm = self.arm.kinematics.positions(executed) * 1000.0
            errors = np.linalg.norm(executed_mm - defined_mm, axis=1)
            return float(np.sqrt(np.mean(errors ** 2)))

        outcomes = []
        for index in range(n_batch):
            late_fraction = float(1.0 - on_time[index].mean())
            outcomes.append(
                SimulationOutcome(
                    rmse_no_forecast_mm=rmse_mm(baseline_executed[index]),
                    rmse_foreco_mm=rmse_mm(foreco_executed[index]),
                    late_fraction=late_fraction,
                    recovery_fraction=stats[index].recovery_fraction,
                    defined=JointTrajectory(times, commands, label="defined"),
                    baseline=JointTrajectory(
                        times, baseline_executed[index], label="no-forecast"
                    ),
                    foreco=JointTrajectory(times, foreco_executed[index], label="foreco"),
                )
            )
        return outcomes

    # ------------------------------------------------------------- execution
    def _execute_batch(self, targets: np.ndarray, initial: np.ndarray) -> np.ndarray:
        """Drive ``(B, n, d)`` per-slot targets through the robot stack.

        Kinematic mode reduces to the joint-limit clamp; dynamic mode steps
        one :class:`~repro.robot.pid.JointPidController` whose ``B * d``
        "joints" are the stacked repetitions, reusing the serial PID
        implementation verbatim — its math is purely elementwise, so each
        repetition's trajectory is unchanged by the stacking.  ``initial`` is
        the (raw, unclamped) joint state the serial driver resets to.
        ``targets`` is clamped in place (the caller owns it and needs only
        the clamped values).
        """
        limits = self.arm.limits
        clamped = np.clip(targets, limits.position_min, limits.position_max, out=targets)
        if not self.use_pid:
            return clamped
        n_batch, n_slots, n_joints = clamped.shape
        controller = JointPidController(
            n_batch * n_joints,
            dt_s=self._driver_config.command_period_ms / 1000.0,
            gains=self._driver_config.pid_gains,
            velocity_limits=np.tile(limits.velocity_max, n_batch),
        )
        controller.reset(np.tile(np.asarray(initial, dtype=float).ravel(), n_batch))
        executed = np.empty_like(clamped)
        for slot in range(n_slots):
            stepped = controller.step(clamped[:, slot, :].reshape(-1))
            executed[:, slot, :] = stepped.reshape(n_batch, n_joints)
        return executed


def compare_baseline_and_foreco(
    training_commands: np.ndarray,
    test_commands: np.ndarray,
    delays_ms: np.ndarray,
    config: ForecoConfig | None = None,
    use_pid: bool = False,
) -> SimulationOutcome:
    """Train FoReCo and run one baseline-vs-FoReCo comparison in a single call.

    Parameters
    ----------
    training_commands:
        Experienced-operator stream used to fit the forecaster, shape
        ``(n_train, d)`` in radians.
    test_commands:
        Inexperienced-operator stream replayed through the channel, shape
        ``(n, d)`` in radians (one row per 20 ms Ω slot).
    delays_ms:
        Per-command end-to-end delay in milliseconds (``inf`` = lost),
        length matching ``test_commands``.
    config:
        FoReCo configuration; defaults to the paper's prototype settings.
    use_pid:
        Execute through the PID joint controller (dynamic mode) instead of
        perfect tracking.

    Returns
    -------
    SimulationOutcome
        Baseline and FoReCo trajectory RMSE in millimetres, the late/lost
        command fraction, the recovery fraction and the three executed
        joint trajectories.
    """
    config = config if config is not None else ForecoConfig()
    recovery = ForecoRecovery(config=config)
    recovery.train(training_commands)
    simulation = RemoteControlSimulation(recovery, use_pid=use_pid)
    return simulation.run(test_commands, delays_ms)
