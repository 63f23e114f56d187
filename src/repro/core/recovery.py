"""FoReCo runtime recovery engine: timeout detection and forecast injection.

At runtime FoReCo sits between the wireless link and the robot driver
(paper Fig. 3).  It awaits a control command every Ω ms; if the next command
has not arrived by ``a(c_i) + Ω + τ`` it forecasts the missing command from
the last ``R`` effective commands and injects the forecast into the driver.
Commands that arrive on time are stored in the dataset and become part of the
forecasting history; commands that miss their deadline are replaced in that
history by the forecast that was injected instead (the paper's constraint
eq. 3), which is why forecast error accumulates during long loss bursts.

:class:`ForecoRecovery` implements that state machine over *slots*: one slot
per command period.  The slot-level notion of "on time" used throughout the
evaluation is ``Δ(c_i) <= Ω + τ`` — i.e. command ``c_i`` is usable if it
arrives before the moment the following command is already due (plus the
configured tolerance).  With the Niryo stack's τ = 0 this reduces to "the
command arrived within its own 20 ms slot".
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ..errors import ConfigurationError, DatasetError, DimensionError, SimulationError
from ..forecasting import Forecaster, make_forecaster
from .config import ForecoConfig
from .dataset import CommandDataset

#: Spare rows in the online history window: the last ``record - 1`` rows are
#: moved to the front once every this many slots.
_WINDOW_SLACK = 128


@dataclass
class RecoveryDecision:
    """What FoReCo decided for one command slot."""

    slot: int
    on_time: bool
    executed_command: np.ndarray
    forecasted: bool


@dataclass
class BatchedRecoveryResult:
    """Output of :meth:`ForecoRecovery.process_stream_batch`.

    Row ``b`` executes the command stream except at its lost slots, so the
    result keeps the stream once and the lost slots' values, never a
    ``(B, n, d)`` array.

    Attributes
    ----------
    commands:
        ``(n, d)`` — the defined command stream every row shares.
    on_time:
        ``(B, n)`` boolean — which commands met the ``Ω + τ`` deadline.
    forecasted:
        ``(B, n)`` boolean — which missing slots were filled by a forecast.
        Row ``b``'s counts are ``forecasted[b].sum()`` and
        ``(~on_time[b]).sum()``.
    lost_rows / lost_slots:
        ``(L,)`` int — the missing ``(row, slot)`` pairs in row-major order,
        ``np.nonzero(~on_time)``; row ``b``'s pairs are one contiguous
        slice, found by ``np.searchsorted(lost_rows, (b, b + 1))``.
    lost_values:
        ``(L, d)`` — the command executed at each missing slot (a forecast
        or the held last command).
    """

    commands: np.ndarray
    on_time: np.ndarray
    forecasted: np.ndarray
    lost_rows: np.ndarray
    lost_slots: np.ndarray
    lost_values: np.ndarray

    @property
    def executed(self) -> np.ndarray:
        """``(B, n, d)`` executed commands (real or forecast), built on each access.

        Row ``b`` is bit-identical to one session of the serial oracle's
        slot loop (``process_stream`` in ``tests/oracles/serial.py``, one
        :meth:`ForecoRecovery.process_slot` call per slot).
        """
        executed = np.repeat(self.commands[None], self.on_time.shape[0], axis=0)
        executed[self.lost_rows, self.lost_slots] = self.lost_values
        return executed


@dataclass
class RecoveryStats:
    """Aggregate statistics of a recovery run."""

    n_slots: int = 0
    n_on_time: int = 0
    n_missing: int = 0
    n_forecasted: int = 0

    @property
    def missing_fraction(self) -> float:
        """Fraction of slots whose command missed the deadline."""
        return self.n_missing / self.n_slots if self.n_slots else 0.0

    @property
    def recovery_fraction(self) -> float:
        """Fraction of missing slots FoReCo filled with a forecast."""
        return self.n_forecasted / self.n_missing if self.n_missing else 0.0


class ForecoRecovery:
    """Slot-by-slot recovery engine around a pluggable forecaster."""

    def __init__(
        self,
        config: ForecoConfig | None = None,
        forecaster: Forecaster | None = None,
    ) -> None:
        self.config = config if config is not None else ForecoConfig()
        if forecaster is None:
            forecaster = make_forecaster(
                self.config.algorithm,
                record=self.config.record,
                **self.config.algorithm_options,
            )
        if forecaster.record != self.config.record:
            raise ConfigurationError(
                f"forecaster record ({forecaster.record}) differs from config record ({self.config.record})"
            )
        self.forecaster = forecaster
        self.dataset: CommandDataset | None = None
        # Effective-command history: rows ``_end - record : _end`` of
        # ``_window`` are the forecast window (fewer while it fills up).
        self._window = np.empty((0, 0))
        self._end = 0
        self.stats = RecoveryStats()
        self._slot = 0

    # ------------------------------------------------------------------ fit
    def train(self, training_commands: np.ndarray) -> "ForecoRecovery":
        """Fit the forecaster on a training command stream (experienced operator)."""
        self.forecaster.fit(training_commands)
        return self

    @property
    def is_ready(self) -> bool:
        """True when the forecaster has been trained."""
        return self.forecaster.is_fitted

    # ---------------------------------------------------------------- reset
    def reset(self, n_joints: int, seed_history: np.ndarray | None = None) -> None:
        """Reset runtime state before a new remote-control session.

        ``seed_history`` optionally pre-populates the effective-command window
        (e.g. with the robot's starting pose) so forecasts are possible from
        the very first slot.
        """
        self.dataset = CommandDataset(
            n_joints, max_history=self.config.max_history, period_ms=self.config.command_period_ms
        )
        self._window = np.empty((self.config.record + _WINDOW_SLACK, n_joints))
        self._end = 0
        if seed_history is not None:
            seed_history = np.atleast_2d(np.asarray(seed_history, dtype=float))
            if seed_history.shape[1] != n_joints:
                raise DimensionError("seed_history joint dimensionality mismatch")
            seed_history = seed_history[-self.config.record :]
            self._end = seed_history.shape[0]
            self._window[: self._end] = seed_history
        self.stats = RecoveryStats()
        self._slot = 0

    # ----------------------------------------------------------- per slot
    def is_on_time(self, delay_ms: float) -> bool:
        """Slot-level deadline check: ``Δ(c_i) <= Ω + τ``."""
        delay_ms = float(delay_ms)
        return math.isfinite(delay_ms) and bool(delay_ms <= self.config.deadline_ms)

    def process_slot(self, command: np.ndarray, delay_ms: float) -> RecoveryDecision:
        """Process one command slot.

        Parameters
        ----------
        command:
            The command the remote controller issued for this slot (the true
            ``c_i``); used directly when it arrives on time, and as the oracle
            feedback value when ``config.feedback == "oracle"``.
        delay_ms:
            The end-to-end delay ``Δ(c_i)`` this command experienced
            (``inf`` when the command was lost).

        Returns
        -------
        RecoveryDecision
            The executed command and whether it was a forecast.  Its
            ``executed_command`` is a fresh array the caller owns.

        Raises
        ------
        ConfigurationError, DimensionError, DatasetError, SimulationError
            Before :meth:`reset`; for a command of the wrong length; for a NaN
            or infinite on-time command; for a NaN or infinite forecast.  None
            of them changes the engine's state.
        """
        dataset = self.dataset
        if dataset is None:
            raise ConfigurationError("call reset() before processing slots")
        command = np.asarray(command, dtype=float)
        if command.ndim != 1:
            command = command.ravel()
        if command.size != dataset.n_joints:
            raise DimensionError(f"command must have {dataset.n_joints} joints, got {command.size}")

        on_time = self.is_on_time(delay_ms)
        forecasted = False
        if on_time:
            # Rejects a non-finite command before any state changes.
            dataset._append_row(command)
            executed = command.copy()
            feedback = executed
        else:
            end = self._end
            if end:
                window = self._window[max(end - self.config.record, 0) : end]
                executed, forecasted = self._recover(window[None], self.forecaster.predict_next_batch)
                executed = executed[0]
            else:
                # No history at all: the lost command is all there is to hold.
                executed = command.copy()
            feedback = command if self.config.feedback == "oracle" else executed
        self._push_history(feedback)

        stats = self.stats
        stats.n_slots += 1
        if on_time:
            stats.n_on_time += 1
        else:
            stats.n_missing += 1
            if forecasted:
                stats.n_forecasted += 1
        decision = RecoveryDecision(
            slot=self._slot, on_time=on_time, executed_command=executed, forecasted=forecasted
        )
        self._slot += 1
        return decision

    def _push_history(self, row: np.ndarray) -> None:
        """Write ``row`` after the window, compacting the buffer when it is full.

        Compaction moves the last ``record - 1`` rows to the front, so the
        window stays one contiguous view and costs a copy every
        ``_WINDOW_SLACK`` slots.
        """
        end = self._end
        if end == self._window.shape[0]:
            keep = self.config.record - 1
            self._window[:keep] = self._window[end - keep : end]
            end = keep
        self._window[end] = row
        self._end = end + 1

    def _recover(
        self, windows: np.ndarray, predict: Callable[[np.ndarray], np.ndarray]
    ) -> tuple[np.ndarray, bool]:
        """The FoReCo rule for ``k`` missing commands, given their windows.

        ``windows`` is ``(k, w, d)``: each row's last ``w <= record``
        effective commands.  With a trained model and full windows,
        ``predict`` maps them to ``(k, d)`` forecasts, each clamped to the
        per-step envelope around its row's last command; otherwise every row
        holds its last command (the robot's native fallback).  Returns the
        executed commands as a fresh ``(k, d)`` array, which no window
        shares, and whether they are forecasts.  A NaN or infinite forecast
        raises :class:`~repro.errors.SimulationError`.
        """
        previous = windows[:, -1]
        if windows.shape[1] < self.config.record or not self.forecaster.is_fitted:
            return previous.copy(), False
        forecasts = predict(windows)
        # The sum of squares is finite only when every element is, so the
        # elementwise test runs only for a NaN, an infinity or an overflow.
        if not math.isfinite(np.vdot(forecasts, forecasts)) and not np.isfinite(forecasts).all():
            raise SimulationError(f"forecaster {self.forecaster.name!r} returned a non-finite forecast")
        max_step = self.config.max_step_rad
        if max_step is None:
            return forecasts.copy(), True
        # The remote controller never moves a joint by more than the robot's
        # moving offset between consecutive commands, so an injected forecast
        # is clamped to the same per-step envelope around the last executed
        # command.  This keeps iterated forecasts physically plausible during
        # long loss bursts.
        step = np.subtract(forecasts, previous)
        np.maximum(step, -max_step, out=step)
        np.minimum(step, max_step, out=step)
        return np.add(previous, step, out=step), True

    # ------------------------------------------------------------ streaming
    def process_stream_batch(
        self, commands: np.ndarray, delays_ms: np.ndarray
    ) -> BatchedRecoveryResult:
        """Process ``B`` independent realisations of one command stream at once.

        This is the vectorized core of the batched session kernel: all ``B``
        repetitions share the command stream but experience different channel
        delays.  A row executes the command stream except at its missing
        slots, so only those are computed, one dependency wave per Python
        iteration (a wave's forecasts read only earlier waves' results), and
        only those are returned: no ``(B, n, d)`` array is allocated.

        Parameters
        ----------
        commands:
            The defined command stream, shape ``(n, d)``.
        delays_ms:
            Per-repetition end-to-end delays, shape ``(B, n)`` (``inf`` marks
            lost commands).  A 1-D array is treated as ``B = 1``.

        Returns
        -------
        BatchedRecoveryResult
            Whose ``executed[b]`` is bit-identical to the serial oracle's
            ``process_stream(recovery, commands, delays_ms[b])`` on a fresh
            recovery engine.  A forecaster that honours
            :attr:`~repro.forecasting.Forecaster.supports_batch_predict`
            forecasts every missing command of a wave in one call; any other
            forecaster is deep-copied once per row, at the row's first
            forecast, and each row predicts on its own copy, slot by slot.

        Raises
        ------
        DatasetError
            When a command is NaN or infinite.
        SimulationError
            When the forecaster returns a NaN or infinite forecast.

        Notes
        -----
        Each wave applies the same rule as :meth:`process_slot`
        (:meth:`_recover`) to its missing commands.  Unlike the serial slot
        loop this method keeps no per-slot dataset and leaves the instance's
        serial state (``dataset``, ``stats``) untouched.
        """
        commands = np.asarray(commands, dtype=float)
        delays_ms = np.asarray(delays_ms, dtype=float)
        if delays_ms.ndim == 1:
            delays_ms = delays_ms[None, :]
        if commands.ndim != 2 or delays_ms.ndim != 2 or commands.shape[0] != delays_ms.shape[1]:
            raise DimensionError("commands (n, d) and delays_ms (B, n) lengths must match")
        if not np.isfinite(commands).all():
            raise DatasetError("command contains NaN or infinite values")
        n_batch, n_slots = delays_ms.shape
        record = self.config.record
        # One shared instance forecasts every row at once, or each row
        # forecasts on its own copy (made at its first forecast).
        predict = self.forecaster.predict_next_batch
        batched = getattr(self.forecaster, "supports_batch_predict", False)
        row_forecasters: dict[int, Forecaster] = {}

        on_time = np.isfinite(delays_ms) & (delays_ms <= self.config.deadline_ms)
        missing = ~on_time
        # From slot ``record - 1`` on windows are full: a ready model forecasts every loss.
        forecasted = missing & (np.arange(n_slots) >= record - 1) & self.forecaster.is_fitted
        lost_rows, lost_slots = np.nonzero(missing)
        # One stream: rows ``0..n`` are the ``commands[0]`` seed and the command
        # stream (``ext`` indices), then every lost slot's executed command in
        # row-major order.  ``rows_of[b, e]`` is the stream row of row ``b``'s
        # effective command at ``ext`` index ``e``; under oracle feedback windows
        # read the seeded command stream instead.  A window before slot ``t`` is
        # ``ext`` indices ``t + 1 - record`` to ``t``.
        stream = np.empty((n_slots + 1 + lost_rows.size, commands.shape[1]))
        stream[0], stream[1 : n_slots + 1] = commands[0], commands
        lost_values = stream[n_slots + 1 :]
        index_type = np.int32 if stream.shape[0] <= np.iinfo(np.int32).max else np.intp
        rows_of = np.broadcast_to(np.arange(n_slots + 1, dtype=index_type), (n_batch, n_slots + 1))
        if self.config.feedback != "oracle":
            rows_of = rows_of.copy()
            rows_of[lost_rows, lost_slots + 1] = np.arange(n_slots + 1, stream.shape[0])
        # Slots before ``record - 1`` have short windows and hold, in slot order.
        early = np.flatnonzero(lost_slots < record - 1)
        for slot in range(min(record - 1, n_slots)):
            at = early[lost_slots[early] == slot]
            history = stream.take(rows_of[lost_rows[at], : slot + 1], axis=0)
            lost_values[at] = self._recover(history, predict)[0]

        # Later losses split into row clusters at gaps ``> record``; a forecast reads
        # only earlier losses of its cluster, so each wave (place in the cluster; slot
        # for copies) is one call.  ``key`` orders the losses and keeps rows apart.
        late = np.flatnonzero(lost_slots >= record - 1)
        if late.size:
            key = lost_rows[late] * (n_slots + record + 1) + lost_slots[late]
            new = np.diff(key, prepend=-record - 1) > record
            index = np.arange(late.size)
            waves = index - np.maximum.accumulate(new * index) if batched else lost_slots[late]
            order = np.argsort(waves, kind="stable")
            bounds = np.flatnonzero(np.diff(waves[order], prepend=-1, append=-1)).tolist()
            windows = np.lib.stride_tricks.sliding_window_view(rows_of, record, axis=1)
            rows, starts = lost_rows[late], lost_slots[late] + 1 - record
            for start, end in zip(bounds, bounds[1:]):
                wave = order[start:end]
                if not batched:
                    predict = partial(_predict_each_row, self.forecaster, row_forecasters, rows[wave])
                history = stream.take(windows[rows[wave], starts[wave]], axis=0)
                lost_values[late[wave]] = self._recover(history, predict)[0]

        return BatchedRecoveryResult(
            commands=commands,
            on_time=on_time,
            forecasted=forecasted,
            lost_rows=lost_rows,
            lost_slots=lost_slots,
            lost_values=lost_values,
        )


def _predict_each_row(
    master: Forecaster, copies: dict[int, Forecaster], rows: np.ndarray, windows: np.ndarray
) -> np.ndarray:
    """Forecast ``windows[i]`` on row ``rows[i]``'s own deep copy of ``master``."""
    forecasts = np.empty((rows.size, windows.shape[2]))
    for index, row in enumerate(rows.tolist()):
        if row not in copies:
            copies[row] = copy.deepcopy(master)
        forecasts[index] = copies[row].predict_next(windows[index])
    return forecasts
