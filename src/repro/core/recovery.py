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

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError, DimensionError
from ..forecasting import Forecaster, make_forecaster
from .config import ForecoConfig
from .dataset import CommandDataset


@dataclass
class RecoveryDecision:
    """What FoReCo decided for one command slot."""

    slot: int
    on_time: bool
    executed_command: np.ndarray
    forecasted: bool

    @property
    def was_recovered(self) -> bool:
        """True when the slot's command was missing and a forecast was injected."""
        return self.forecasted


@dataclass
class BatchedRecoveryResult:
    """Output of :meth:`ForecoRecovery.process_stream_batch`.

    Attributes
    ----------
    executed:
        ``(B, n, d)`` — per-repetition executed commands (real or forecast),
        row-for-row bit-identical to ``B`` serial :meth:`ForecoRecovery.
        process_stream` runs.
    on_time:
        ``(B, n)`` boolean — which commands met the ``Ω + τ`` deadline.
    forecasted:
        ``(B, n)`` boolean — which missing slots were filled by a forecast.
    stats:
        One :class:`RecoveryStats` per repetition.
    """

    executed: np.ndarray
    on_time: np.ndarray
    forecasted: np.ndarray
    stats: "list[RecoveryStats]"


@dataclass
class RecoveryStats:
    """Aggregate statistics of a recovery run."""

    n_slots: int = 0
    n_on_time: int = 0
    n_missing: int = 0
    n_forecasted: int = 0
    forecast_errors_mm: list[float] = field(default_factory=list)

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
        self._history: list[np.ndarray] = []
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
        self._history = []
        if seed_history is not None:
            seed_history = np.atleast_2d(np.asarray(seed_history, dtype=float))
            if seed_history.shape[1] != n_joints:
                raise DimensionError("seed_history joint dimensionality mismatch")
            self._history = [row.copy() for row in seed_history[-self.config.record :]]
        self.stats = RecoveryStats()
        self._slot = 0

    # ----------------------------------------------------------- per slot
    def is_on_time(self, delay_ms: float) -> bool:
        """Slot-level deadline check: ``Δ(c_i) <= Ω + τ``."""
        return np.isfinite(delay_ms) and delay_ms <= self.config.deadline_ms

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
            The executed command and whether it was a forecast.
        """
        if self.dataset is None:
            raise ConfigurationError("call reset() before processing slots")
        command = np.asarray(command, dtype=float).ravel()
        if command.size != self.dataset.n_joints:
            raise DimensionError(
                f"command must have {self.dataset.n_joints} joints, got {command.size}"
            )

        on_time = self.is_on_time(float(delay_ms))
        forecasted = False
        if on_time:
            executed = command.copy()
            self.dataset.append(command)
        else:
            executed = self._forecast_missing(command)
            forecasted = executed is not None
            if executed is None:
                # Not enough history (or untrained model): fall back to the
                # robot's native behaviour and repeat the previous command.
                executed = self._history[-1].copy() if self._history else command.copy()

        feedback = command.copy() if (not on_time and self.config.feedback == "oracle") else executed
        self._history.append(feedback.copy())
        if len(self._history) > max(self.config.record, 1):
            self._history = self._history[-self.config.record :]

        self.stats.n_slots += 1
        if on_time:
            self.stats.n_on_time += 1
        else:
            self.stats.n_missing += 1
            if forecasted:
                self.stats.n_forecasted += 1
        decision = RecoveryDecision(
            slot=self._slot, on_time=on_time, executed_command=executed, forecasted=forecasted
        )
        self._slot += 1
        return decision

    def _forecast_missing(self, true_command: np.ndarray) -> np.ndarray | None:
        """Forecast the command for a missing slot, or ``None`` if impossible."""
        if not self.forecaster.is_fitted:
            return None
        if len(self._history) < self.config.record:
            return None
        history = np.array(self._history[-self.config.record :])
        forecast = np.asarray(self.forecaster.predict_next(history), dtype=float).ravel()
        if self.config.max_step_rad is not None:
            # The remote controller never moves a joint by more than the
            # robot's moving offset between consecutive commands, so an
            # injected forecast is clamped to the same per-step envelope
            # around the last executed command.  This keeps iterated
            # forecasts physically plausible during long loss bursts.
            previous = history[-1]
            step = np.clip(forecast - previous, -self.config.max_step_rad, self.config.max_step_rad)
            forecast = previous + step
        return forecast

    # ------------------------------------------------------------ streaming
    def process_stream(self, commands: np.ndarray, delays_ms: np.ndarray) -> np.ndarray:
        """Process a full command stream and return the executed commands.

        ``commands`` has shape ``(n, d)`` and ``delays_ms`` length ``n``
        (``inf`` marks lost commands).  The first command is assumed to arrive
        on time and also seeds the history window.
        """
        commands = np.asarray(commands, dtype=float)
        delays_ms = np.asarray(delays_ms, dtype=float).ravel()
        if commands.ndim != 2 or commands.shape[0] != delays_ms.size:
            raise DimensionError("commands and delays_ms lengths must match")
        self.reset(commands.shape[1], seed_history=commands[:1])
        executed = np.empty_like(commands)
        for index in range(commands.shape[0]):
            decision = self.process_slot(commands[index], float(delays_ms[index]))
            executed[index] = decision.executed_command
        return executed

    def process_stream_batch(
        self, commands: np.ndarray, delays_ms: np.ndarray
    ) -> BatchedRecoveryResult:
        """Process ``B`` independent realisations of one command stream at once.

        This is the vectorized core of the batched session kernel: all ``B``
        repetitions share the command stream but experience different channel
        delays, so their recovery state machines can advance slot by slot in
        lockstep ``(B, ...)`` arrays — one Python iteration per slot instead
        of one per slot *per repetition*.

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
            Whose ``executed[b]`` is bit-identical to
            ``process_stream(commands, delays_ms[b])`` on a fresh recovery
            engine, provided the forecaster honours
            :attr:`~repro.forecasting.Forecaster.supports_batch_predict`.

        Notes
        -----
        Unlike :meth:`process_stream` this method keeps no per-slot dataset
        and leaves the instance's serial state (``dataset``, ``stats``)
        untouched; all bookkeeping is returned in the result object.
        """
        commands = np.asarray(commands, dtype=float)
        delays_ms = np.asarray(delays_ms, dtype=float)
        if delays_ms.ndim == 1:
            delays_ms = delays_ms[None, :]
        if commands.ndim != 2 or delays_ms.ndim != 2 or commands.shape[0] != delays_ms.shape[1]:
            raise DimensionError("commands (n, d) and delays_ms (B, n) lengths must match")
        n_batch, n_slots = delays_ms.shape
        n_joints = commands.shape[1]
        record = self.config.record
        max_step = self.config.max_step_rad
        oracle = self.config.feedback == "oracle"
        model_ready = self.forecaster.is_fitted

        on_time = np.isfinite(delays_ms) & (delays_ms <= self.config.deadline_ms)
        executed = np.empty((n_batch, n_slots, n_joints))
        forecasted = np.zeros((n_batch, n_slots), dtype=bool)

        # Rolling effective-command window per repetition, seeded with the
        # first command exactly like the serial path; ``filled`` tracks the
        # serial history length min(1 + slot, record), which gates forecasts.
        history = np.zeros((n_batch, record, n_joints))
        history[:, -1, :] = commands[0]
        filled = 1

        for slot in range(n_slots):
            command = commands[slot]
            missing = ~on_time[:, slot]
            slot_executed = executed[:, slot, :]
            slot_executed[...] = command
            if missing.any():
                if model_ready and filled >= record:
                    recent = history[missing]
                    forecasts = self.forecaster.predict_next_batch(recent)
                    if max_step is not None:
                        previous = recent[:, -1, :]
                        step = np.clip(forecasts - previous, -max_step, max_step)
                        forecasts = previous + step
                    slot_executed[missing] = forecasts
                    forecasted[missing, slot] = True
                else:
                    # Not enough history yet: repeat the previous effective
                    # command (the robot's native fallback behaviour).
                    slot_executed[missing] = history[missing, -1, :]
            feedback = slot_executed
            if oracle:
                feedback = np.where(missing[:, None], command, slot_executed)
            if record > 1:
                history[:, :-1, :] = history[:, 1:, :]
            history[:, -1, :] = feedback
            filled = min(filled + 1, record)

        stats = []
        for index in range(n_batch):
            n_on_time = int(on_time[index].sum())
            stats.append(
                RecoveryStats(
                    n_slots=n_slots,
                    n_on_time=n_on_time,
                    n_missing=n_slots - n_on_time,
                    n_forecasted=int(forecasted[index].sum()),
                )
            )
        return BatchedRecoveryResult(
            executed=executed, on_time=on_time, forecasted=forecasted, stats=stats
        )
