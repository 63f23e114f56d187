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
from typing import Callable

import numpy as np

from ..errors import ConfigurationError, DimensionError
from ..robot.niryo import NiryoOneArm
from ..robot.pid import JointPidController, PidGains
from ..robot.trajectory import JointTrajectory
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
        Built by :meth:`SimulationBatch.outcome`, each holds an ``(n, d)``
        array of its own, never a view into the kernel pass's arrays.
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


class MetricColumns:
    """Per-session metric columns and their means, for any batch of session rows.

    Subclasses hold the four columns as ``tuple[float, ...]`` fields, one
    entry per row, each with the meaning of the :class:`SimulationOutcome`
    field of the same name.
    """

    rmse_no_forecast_mm: tuple[float, ...]
    rmse_foreco_mm: tuple[float, ...]
    late_fraction: tuple[float, ...]
    recovery_fraction: tuple[float, ...]

    @property
    def repetitions(self) -> int:
        """Number of session rows (entries per metric tuple)."""
        return len(self.rmse_foreco_mm)

    @property
    def mean_rmse_no_forecast_mm(self) -> float:
        """Baseline trajectory RMSE averaged over the rows."""
        return float(np.mean(self.rmse_no_forecast_mm))

    @property
    def mean_rmse_foreco_mm(self) -> float:
        """FoReCo trajectory RMSE averaged over the rows."""
        return float(np.mean(self.rmse_foreco_mm))

    @property
    def mean_late_fraction(self) -> float:
        """Late/lost command share averaged over the rows."""
        return float(np.mean(self.late_fraction))

    @property
    def mean_recovery_fraction(self) -> float:
        """Share of missing slots FoReCo filled, averaged over the rows."""
        return float(np.mean(self.recovery_fraction))

    @property
    def improvement_factor(self) -> float:
        """Mean baseline RMSE over mean FoReCo RMSE (the paper's ×18 / ×2).

        ``inf``, never a NaN, an exception or a huge float, when the FoReCo
        mean is below 1e-12 mm (a clean channel, where FoReCo replays the
        defined trajectory exactly): callers that tabulate or JSON-encode
        results must expect it.
        """
        denominator = self.mean_rmse_foreco_mm
        if denominator < 1e-12:
            return float("inf")
        return self.mean_rmse_no_forecast_mm / denominator


@dataclass(frozen=True, eq=False)
class SimulationBatch(MetricColumns):
    """One session-kernel pass: per-row metric columns, trajectories on demand.

    The metric tuples hold one entry per row, in delay-trace order.  The
    pass's arrays stay here and :meth:`outcome` builds one row out of them,
    so an outcome a caller keeps does not pin the batch.  A kinematic pass
    keeps no ``(B, n, d)`` array: its rows execute the clipped stream except
    at their lost slots.  ``SimulationBatch()`` is the empty batch.
    """

    rmse_no_forecast_mm: tuple[float, ...] = ()
    rmse_foreco_mm: tuple[float, ...] = ()
    late_fraction: tuple[float, ...] = ()
    recovery_fraction: tuple[float, ...] = ()
    #: Slot times ``(n,)``, the defined and clipped streams ``(n, d)``, the
    #: baseline's source slots ``(B, n)`` and FoReCo's clipped targets at its
    #: missing slots: ``lost_targets[i]`` ``(L, d)`` at the row-major pair
    #: ``(lost_rows[i], lost_slots[i])``.  Kinematic mode executes the targets
    #: as they are: ``clipped[baseline_sources]`` and ``clipped`` with the lost
    #: slots set.  PID mode also keeps both executed ``(B, n, d)`` stacks.
    times_s: np.ndarray | None = field(default=None, repr=False)
    commands: np.ndarray | None = field(default=None, repr=False)
    clipped: np.ndarray | None = field(default=None, repr=False)
    baseline_sources: np.ndarray | None = field(default=None, repr=False)
    lost_rows: np.ndarray | None = field(default=None, repr=False)
    lost_slots: np.ndarray | None = field(default=None, repr=False)
    lost_targets: np.ndarray | None = field(default=None, repr=False)
    baseline_executed: np.ndarray | None = field(default=None, repr=False)
    foreco_executed: np.ndarray | None = field(default=None, repr=False)

    def outcome(self, row: int) -> SimulationOutcome:
        """Row ``row`` as an outcome whose three trajectories own ``(n, d)`` copies."""
        if self.foreco_executed is None:
            baseline = self.clipped[self.baseline_sources[row]]
            foreco = self.clipped.copy()
            lost = slice(*np.searchsorted(self.lost_rows, (row, row + 1)))
            foreco[self.lost_slots[lost]] = self.lost_targets[lost]
        else:
            baseline = self.baseline_executed[row].copy()
            foreco = self.foreco_executed[row].copy()
        return SimulationOutcome(
            rmse_no_forecast_mm=self.rmse_no_forecast_mm[row],
            rmse_foreco_mm=self.rmse_foreco_mm[row],
            late_fraction=self.late_fraction[row],
            recovery_fraction=self.recovery_fraction[row],
            defined=JointTrajectory(self.times_s, self.commands.copy(), label="defined"),
            baseline=JointTrajectory(self.times_s, baseline, label="no-forecast"),
            foreco=JointTrajectory(self.times_s, foreco, label="foreco"),
        )


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
        Per-command end-to-end delays (ms, ``inf`` = lost), shape ``(n,)``
        for one session or ``(B, n)`` for ``B`` sessions over one stream.
    command_period_ms:
        Ω, the command period in milliseconds.

    Returns
    -------
    numpy.ndarray of int, shape ``(n,)`` or ``(B, n)``
        For each slot, the index of the command the stock stack feeds to the
        control loop (``indices[..., 0]`` is always 0: slots before the first
        arrival hold the initial command).  Integer slot arithmetic, so row
        ``b`` of a ``(B, n)`` call equals the call on ``delays_ms[b]``.
    """
    delays_ms = np.asarray(delays_ms, dtype=float)
    if delays_ms.ndim > 2:
        raise DimensionError(f"delays_ms must have shape (n,) or (B, n), got {delays_ms.shape}")
    one_session = delays_ms.ndim < 2
    delays_ms = delays_ms.reshape(1, -1) if one_session else delays_ms
    period = float(command_period_ms)
    n_batch, n = delays_ms.shape
    slot_index = np.arange(n)
    # Slot s spans (s*Ω, (s+1)*Ω]; command i is usable in slot s once it
    # has arrived by the end of the slot, i.e. from slot
    # ceil(arrival_i / Ω) - 1 onwards (and never before its own slot, nor
    # for a non-finite arrival).  newest_at[b, s] is the largest command
    # index first usable at slot s of session b (0 if none).  A command
    # usable in its own slot is the newest there, so only late-but-delivered
    # commands need the scatter; each session's slots sit at offset b * n of
    # the flattened array, so one maximum.at scatters every session at once.
    arrival = slot_index * period + delays_ms
    first_usable = np.ceil(arrival / period) - 1.0
    newest_at = np.where((first_usable <= slot_index) & (arrival > -np.inf), slot_index, 0)
    late_rows, late_slots = np.nonzero((first_usable > slot_index) & (first_usable < n))
    np.maximum.at(
        newest_at.reshape(-1),
        late_rows * n + first_usable[late_rows, late_slots].astype(int),
        late_slots,
    )
    indices = np.maximum.accumulate(newest_at, axis=1)
    return indices[0] if one_session else indices


#: Slots per block of batch rows in the baseline-index and forward-kinematics
#: passes; bounds the ``(rows, n, ...)`` temporaries a stacked pass allocates.
_BLOCK_SLOTS = 1 << 15


def _row_blocks(n_batch: int, n_slots: int) -> list[slice]:
    """Consecutive blocks of batch rows holding at most ``_BLOCK_SLOTS`` slots."""
    rows = max(1, _BLOCK_SLOTS // n_slots)
    return [slice(start, start + rows) for start in range(0, n_batch, rows)]


#: Per block of rows, the slots a pass executes off the clipped stream:
#: block-relative rows, slots and the executed joints, in row-major order.
_Changes = tuple[np.ndarray, np.ndarray, np.ndarray]


def _fresh_changes(executed: np.ndarray, source_bits: np.ndarray) -> _Changes:
    """The slots of ``executed`` whose bits differ from their source rows."""
    rows, slots = np.nonzero((executed.view(np.uint64) != source_bits).any(axis=-1))
    return rows, slots, executed[rows, slots]


def _scatter(
    errors: np.ndarray, rows: np.ndarray, slots: np.ndarray, positions_mm: np.ndarray, defined_mm: np.ndarray
) -> None:
    """Set ``errors[rows, slots]`` to the distance of ``positions_mm`` from their slots' defined positions."""
    errors[rows, slots] = np.linalg.norm(positions_mm - defined_mm[slots], axis=-1)


class BatchedRemoteControlSimulation:
    """The session kernel: ``B`` remote-control sessions over one command stream.

    The paper's headline numbers are means over many repeated sessions that
    share one command stream but see independent channel realisations.  Those
    repetitions are embarrassingly stackable: this class advances all ``B``
    delay traces, recovery state machines and robot trajectories in lockstep
    ``(B, ...)`` arrays, then reduces them to one :class:`SimulationBatch` of
    per-repetition metrics.  Every array operation involved is elementwise or
    uses a batch-size-invariant reduction, so each row is **bit-identical** to
    a one-session-at-a-time run of its delay trace (the test suite keeps
    that serial path as its oracle).

    Parameters
    ----------
    recovery:
        A trained recovery engine.  One shared engine serves the whole
        batch; per-repetition bookkeeping lives in the stacked arrays (see
        :meth:`ForecoRecovery.process_stream_batch` for forecasters without
        batched prediction).
    arm:
        The robot (a default :class:`~repro.robot.niryo.NiryoOneArm` when
        omitted).
    use_pid:
        Execute through the PID joint controller instead of perfect tracking.

    The stock stack's fallback policy for missing commands
    (:attr:`~repro.scenarios.ScenarioSpec.fallback`) is not a parameter: it
    changes no result at ``ENGINE_EPOCH`` 6.  The baseline replays every
    slot's most recently arrived command, and the recovery engine supplies
    a target for every missing slot, so neither execution ever falls back.
    """

    def __init__(
        self,
        recovery: ForecoRecovery,
        arm: NiryoOneArm | None = None,
        use_pid: bool = False,
    ) -> None:
        if not recovery.is_ready:
            raise ConfigurationError("the recovery engine must be trained before simulating")
        self.recovery = recovery
        self.arm = arm if arm is not None else NiryoOneArm()
        self.use_pid = bool(use_pid)

    # ------------------------------------------------------------------ run
    def run(self, commands: np.ndarray, delays_ms: np.ndarray) -> SimulationBatch:
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
        SimulationBatch
            The per-repetition metric columns, in delay-trace order; its
            :meth:`~SimulationBatch.outcome` builds one row's trajectories.
        """
        commands = np.asarray(commands, dtype=float)
        delays_ms = np.asarray(delays_ms, dtype=float)
        if delays_ms.ndim == 1:
            delays_ms = delays_ms[None, :]
        if commands.ndim != 2 or delays_ms.ndim != 2 or commands.shape[0] != delays_ms.shape[1]:
            raise DimensionError("commands (n, d) and delays_ms (B, n) lengths must match")
        n_batch, n_slots = delays_ms.shape
        period_ms = self.recovery.config.command_period_ms

        # Baseline pass: the stock stack's "most recently arrived command"
        # rule is exact integer slot arithmetic, one block of rows at a time.
        blocks = _row_blocks(n_batch, n_slots)
        baseline_sources = np.empty((n_batch, n_slots), dtype=int)
        for block in blocks:
            baseline_sources[block] = baseline_target_indices(delays_ms[block], period_ms)

        # FoReCo pass: all recovery state machines advance in lockstep.
        batch = self.recovery.process_stream_batch(commands, delays_ms)

        # Both executions start from the raw first defined command, the
        # first row of the FoReCo stream and of the baseline stream.
        # ``np.clip`` is elementwise, so the baseline gathers the clipped
        # stream, and FoReCo executes it too except at its lost slots, whose
        # recovered commands are clipped on their own.
        limits = self.arm.limits
        clipped = np.clip(commands, limits.position_min, limits.position_max)
        if (clipped.view(np.uint64) == commands.view(np.uint64)).all():
            clipped = commands
        late_fraction = tuple((1.0 - batch.on_time.mean(axis=1)).tolist())
        # A row with nothing missing forecast nothing, so it reads 0 / 1.
        n_missing = np.maximum(n_slots - batch.on_time.sum(axis=1), 1)
        recovery_fraction = tuple((batch.forecasted.sum(axis=1) / n_missing).tolist())
        lost_rows, lost_slots = batch.lost_rows, batch.lost_slots
        lost_targets = np.clip(
            batch.lost_values, limits.position_min, limits.position_max, out=batch.lost_values
        )
        del batch

        # Kinematic mode executes the targets as they are: its only fresh
        # slots are the lost ones, a contiguous slice per block of rows.
        # PID mode steps dense ``(B, n, d)`` targets through the controller
        # and finds its fresh slots by a bitwise compare.
        baseline_executed = foreco_executed = None
        if self.use_pid:
            targets = np.repeat(clipped[None], n_batch, axis=0)
            targets[lost_rows, lost_slots] = lost_targets
            baseline_executed = self._execute_batch(clipped[baseline_sources], initial=commands[0])
            foreco_executed = self._execute_batch(targets, initial=commands[0])
            del targets
            clipped_bits = clipped.view(np.uint64)

            def changes(block: slice) -> tuple[_Changes, _Changes]:
                return (
                    _fresh_changes(baseline_executed[block], clipped_bits[baseline_sources[block]]),
                    _fresh_changes(foreco_executed[block], clipped_bits),
                )

        else:
            unchanged = (np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty((0, commands.shape[1])))

            def changes(block: slice) -> tuple[_Changes, _Changes]:
                lo, hi = np.searchsorted(lost_rows, (block.start, block.stop))
                return unchanged, (lost_rows[lo:hi] - block.start, lost_slots[lo:hi], lost_targets[lo:hi])

        baseline_rmse, foreco_rmse = self._rmse_mm(commands, clipped, blocks, baseline_sources, changes)
        return SimulationBatch(
            rmse_no_forecast_mm=baseline_rmse,
            rmse_foreco_mm=foreco_rmse,
            late_fraction=late_fraction,
            recovery_fraction=recovery_fraction,
            commands=commands,
            times_s=np.arange(n_slots) * period_ms / 1000.0,
            clipped=clipped,
            baseline_sources=baseline_sources,
            lost_rows=lost_rows,
            lost_slots=lost_slots,
            lost_targets=lost_targets,
            baseline_executed=baseline_executed,
            foreco_executed=foreco_executed,
        )

    # ---------------------------------------------------------------- metrics
    def _rmse_mm(
        self,
        commands: np.ndarray,
        clipped: np.ndarray,
        blocks: list[slice],
        baseline_sources: np.ndarray,
        changes: Callable[[slice], tuple[_Changes, _Changes]],
    ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Per-repetition baseline and FoReCo RMSE (mm) against ``commands``.

        ``clipped`` is the clamped command stream (``commands`` itself when
        no command leaves the limits).  Slot ``s`` of every row starts from
        the distance between the clipped and the defined command ``s``, which
        is what an on-time FoReCo slot and an up-to-date baseline slot
        execute.  Only two kinds of slot get a fresh distance, scattered by
        ``(row, slot)``: lagged baseline slots, which gather the position of
        their source row, and the slots ``changes(block)`` lists for the
        baseline and for FoReCo, which get their own forward kinematics, one
        call per block.  ``positions`` and the per-row norm are row-pure, so
        every distance is bit-identical to evaluating the whole executed
        trajectory, as :func:`~repro.robot.trajectory.trajectory_rmse_mm`
        does.
        """
        kinematics = self.arm.kinematics
        defined_mm = kinematics.positions(commands) * 1000.0
        source_mm = defined_mm if clipped is commands else kinematics.positions(clipped) * 1000.0
        source_errors = np.linalg.norm(source_mm - defined_mm, axis=-1)
        slot_index = np.arange(commands.shape[0])

        baseline_rmse: list[float] = []
        foreco_rmse: list[float] = []
        for block in blocks:
            sources = baseline_sources[block]
            baseline_fresh, foreco_fresh = changes(block)
            n_baseline_fresh = baseline_fresh[0].size
            # Kinematic mode has no fresh baseline slots: its lost targets go to FK uncopied.
            fresh = foreco_fresh[2]
            if n_baseline_fresh:
                fresh = np.concatenate((baseline_fresh[2], fresh))
            fresh_mm = kinematics.positions(fresh) * 1000.0
            baseline_errors = np.repeat(source_errors[None], sources.shape[0], axis=0)
            foreco_errors = baseline_errors.copy()
            lag_rows, lag_slots = np.nonzero(sources != slot_index)
            lagged_mm = source_mm[sources[lag_rows, lag_slots]]
            _scatter(baseline_errors, lag_rows, lag_slots, lagged_mm, defined_mm)
            _scatter(baseline_errors, *baseline_fresh[:2], fresh_mm[:n_baseline_fresh], defined_mm)
            _scatter(foreco_errors, *foreco_fresh[:2], fresh_mm[n_baseline_fresh:], defined_mm)
            baseline_rmse += np.sqrt(np.mean(baseline_errors ** 2, axis=-1)).tolist()
            foreco_rmse += np.sqrt(np.mean(foreco_errors ** 2, axis=-1)).tolist()
        return tuple(baseline_rmse), tuple(foreco_rmse)

    # ------------------------------------------------------------- execution
    def _execute_batch(self, clamped: np.ndarray, initial: np.ndarray) -> np.ndarray:
        """Drive ``(B, n, d)`` clamped per-slot targets through the PID controller.

        One :class:`~repro.robot.pid.JointPidController` steps ``B * d``
        "joints", the stacked repetitions, reusing the one-arm PID
        implementation verbatim — its math is purely elementwise, so each
        repetition's trajectory is unchanged by the stacking.  ``initial`` is
        the (raw, unclamped) joint state the controller resets to.
        """
        limits = self.arm.limits
        n_batch, n_slots, n_joints = clamped.shape
        controller = JointPidController(
            n_batch * n_joints,
            dt_s=self.recovery.config.command_period_ms / 1000.0,
            gains=PidGains(),
            velocity_limits=np.tile(limits.velocity_max, n_batch),
        )
        controller.reset(np.tile(np.asarray(initial, dtype=float).ravel(), n_batch))
        executed = np.empty_like(clamped)
        for slot in range(n_slots):
            stepped = controller.step(clamped[:, slot, :].reshape(-1))
            executed[:, slot, :] = stepped.reshape(n_batch, n_joints)
        return executed


class RemoteControlSimulation:
    """Replays a command stream through a channel, with and without FoReCo.

    One session: the ``B = 1`` case of :class:`BatchedRemoteControlSimulation`,
    which it holds and runs.
    """

    def __init__(
        self,
        recovery: ForecoRecovery,
        arm: NiryoOneArm | None = None,
        use_pid: bool = False,
    ) -> None:
        self.kernel = BatchedRemoteControlSimulation(recovery, arm=arm, use_pid=use_pid)
        self.recovery = recovery
        self.arm = self.kernel.arm
        self.use_pid = self.kernel.use_pid

    # ------------------------------------------------------------------ run
    def run(self, commands: np.ndarray, delays_ms: np.ndarray) -> SimulationOutcome:
        """Execute one session given per-command end-to-end delays."""
        return self.kernel.run(commands, np.ravel(delays_ms)[None]).outcome(0)

    def run_trace(self, commands: np.ndarray, trace: CommandDelayTrace) -> SimulationOutcome:
        """Convenience wrapper accepting a :class:`CommandDelayTrace`."""
        delays = trace.delays()
        if delays.size < commands.shape[0]:
            raise DimensionError(
                f"trace has {delays.size} samples but the stream has {commands.shape[0]} commands"
            )
        return self.run(commands, delays[: commands.shape[0]])


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
