"""Command dataset accumulated by FoReCo.

FoReCo receives a copy of every control command that reaches the robot and
stores it in a dataset (paper §IV-A).  The dataset keeps a history of up to
``H`` commands; ``αH`` of them are used for training the forecasting model
and ``βH`` for testing.  Before training, the prototype down-samples and
quality-checks the data (these are the "Down Sampling" and "Check Quality"
stages timed in Table I).

:class:`CommandDataset` implements that container plus the two preprocessing
stages:

* **down-sampling** — keep every ``k``-th command, used when the training
  budget on the robot's Raspberry Pi is limited;
* **quality check** — detect NaNs, out-of-range joints, frozen segments and
  physically impossible jumps between consecutive commands; the check either
  reports or repairs depending on ``repair=True``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import as_command_array, ensure_int, ensure_probability
from ..errors import DatasetError
from ..robot.niryo import NiryoOneLimits


@dataclass
class TrainTestSplit:
    """Chronological train/test split of a command stream."""

    train: np.ndarray
    test: np.ndarray

    @property
    def train_fraction(self) -> float:
        """Achieved α (may differ slightly from the requested one by rounding)."""
        total = self.train.shape[0] + self.test.shape[0]
        return self.train.shape[0] / total if total else 0.0


@dataclass
class DatasetQualityReport:
    """Outcome of the dataset quality check.

    Attributes
    ----------
    n_commands:
        Number of commands inspected.
    n_nan:
        Commands containing NaN or infinite joint values.
    n_out_of_range:
        Commands with at least one joint outside the robot's limits.
    n_jumps:
        Transitions between consecutive commands larger than ``max_step_rad``.
    frozen_fraction:
        Fraction of transitions with no movement at all (long frozen segments
        usually indicate a recording problem).
    repaired:
        Whether offending commands were repaired in place.
    """

    n_commands: int
    n_nan: int
    n_out_of_range: int
    n_jumps: int
    frozen_fraction: float
    repaired: bool

    @property
    def is_clean(self) -> bool:
        """True when no anomalies were detected."""
        return self.n_nan == 0 and self.n_out_of_range == 0 and self.n_jumps == 0


class CommandDataset:
    """Bounded, append-only store of remote-control commands.

    The commands live in one ``(capacity, d)`` array, of which rows
    ``start:stop`` are stored.  Eviction advances ``start``; when ``stop``
    reaches the end the live rows move to the front, or the array doubles
    when they fill more than half of it.  With ``max_history`` set the
    capacity never exceeds ``2 * max_history``, so each append costs O(1)
    amortised.

    Parameters
    ----------
    n_joints:
        Dimensionality ``d`` of each command.
    max_history:
        H — maximum number of commands retained (FIFO eviction), ``None`` for
        unbounded.
    period_ms:
        Ω, recorded so the dataset knows its own time base.
    """

    #: Rows allocated by a new or cleared dataset (fewer when ``2 * H`` is smaller).
    _INITIAL_ROWS = 64

    def __init__(self, n_joints: int, max_history: int | None = None, period_ms: float = 20.0) -> None:
        self.n_joints = ensure_int("n_joints", n_joints, minimum=1)
        self.max_history = None if max_history is None else ensure_int("max_history", max_history, minimum=2)
        self.period_ms = float(period_ms)
        self.clear()

    # ------------------------------------------------------------- mutation
    def append(self, command: np.ndarray) -> None:
        """Append one command (evicting the oldest if the history is full)."""
        command = np.asarray(command, dtype=float).ravel()
        if command.size != self.n_joints:
            raise DatasetError(f"command must have {self.n_joints} joints, got {command.size}")
        self._append_row(command)

    def _append_row(self, command: np.ndarray) -> None:
        """Append a 1-D float row already known to hold ``n_joints`` values.

        The finiteness check comes first, so a rejected command leaves the
        dataset untouched.
        """
        if not np.isfinite(command).all():
            raise DatasetError("command contains NaN or infinite values")
        self._reserve(1)
        self._data[self._stop] = command
        self._stop += 1

    def extend(self, commands: np.ndarray) -> None:
        """Append a batch of commands."""
        commands = as_command_array("commands", commands)
        if commands.shape[1] != self.n_joints:
            raise DatasetError(f"commands must have {self.n_joints} joints, got {commands.shape[1]}")
        if self.max_history is not None:
            commands = commands[-self.max_history :]
        count = commands.shape[0]
        self._reserve(count)
        self._data[self._stop : self._stop + count] = commands
        self._stop += count

    def _reserve(self, count: int) -> None:
        """Evict what ``count`` new rows push out and make room for them after ``stop``."""
        if self.max_history is not None:
            self._start = max(self._start, self._stop + count - self.max_history)
        capacity = self._data.shape[0]
        if self._stop + count <= capacity:
            return
        live = self._data[self._start : self._stop]
        needed = live.shape[0] + count
        if needed > capacity // 2:
            capacity = max(2 * capacity, needed)
            if self.max_history is not None:
                capacity = min(capacity, 2 * self.max_history)
            data = np.empty((capacity, self.n_joints))
            data[: live.shape[0]] = live
            self._data = data
        else:
            self._data[: live.shape[0]] = live
        self._start, self._stop = 0, live.shape[0]

    def clear(self) -> None:
        """Remove every stored command."""
        rows = self._INITIAL_ROWS
        if self.max_history is not None:
            rows = min(rows, 2 * self.max_history)
        self._data = np.empty((rows, self.n_joints))
        self._start = self._stop = 0

    # -------------------------------------------------------------- access
    def __len__(self) -> int:
        return self._stop - self._start

    def to_array(self) -> np.ndarray:
        """All stored commands as an ``(n, d)`` array (copy)."""
        return self._data[self._start : self._stop].copy()

    def recent(self, count: int) -> np.ndarray:
        """The most recent ``count`` commands (fewer if not enough stored), as a copy."""
        count = ensure_int("count", count, minimum=1)
        return self._data[max(self._start, self._stop - count) : self._stop].copy()

    @property
    def duration_s(self) -> float:
        """Wall-clock span covered by the stored commands."""
        return len(self) * self.period_ms / 1000.0

    # -------------------------------------------------------- preprocessing
    def downsample(self, factor: int) -> np.ndarray:
        """Return every ``factor``-th command (the Table I down-sampling stage)."""
        factor = ensure_int("factor", factor, minimum=1)
        data = self.to_array()
        if data.shape[0] == 0:
            raise DatasetError("cannot downsample an empty dataset")
        return data[::factor]

    def quality_check(
        self,
        limits: NiryoOneLimits | None = None,
        max_step_rad: float = 0.2,
        repair: bool = False,
    ) -> DatasetQualityReport:
        """Inspect (and optionally repair) the stored commands.

        Repair policy: NaNs and out-of-range joints are replaced by the
        previous valid command's values (or clamped for the first command);
        jump transitions are left in place but reported, since they may be
        genuine operator motion.
        """
        data = self.to_array()
        if data.shape[0] == 0:
            raise DatasetError("cannot quality-check an empty dataset")
        limits = limits if limits is not None else NiryoOneLimits()

        nan_rows = ~np.all(np.isfinite(data), axis=1)
        clamped = np.clip(data, limits.position_min, limits.position_max)
        out_of_range_rows = np.any(np.abs(clamped - data) > 1e-12, axis=1) & ~nan_rows
        diffs = np.abs(np.diff(data, axis=0))
        jump_rows = np.any(diffs > max_step_rad, axis=1)
        frozen_rows = np.all(diffs == 0.0, axis=1)
        frozen_fraction = float(frozen_rows.mean()) if diffs.shape[0] else 0.0

        if repair:
            repaired = clamped.copy()
            for index in np.where(nan_rows)[0]:
                source = repaired[index - 1] if index > 0 else np.zeros(self.n_joints)
                repaired[index] = source
            self._data, self._start, self._stop = repaired, 0, repaired.shape[0]

        return DatasetQualityReport(
            n_commands=int(data.shape[0]),
            n_nan=int(nan_rows.sum()),
            n_out_of_range=int(out_of_range_rows.sum()),
            n_jumps=int(jump_rows.sum()),
            frozen_fraction=frozen_fraction,
            repaired=bool(repair),
        )

    # ---------------------------------------------------------- persistence
    def save(self, path: str) -> None:
        """Persist the stored commands to a CSV file (one command per row).

        The file starts with a comment header recording the joint count and
        command period so :meth:`load` can restore an equivalent dataset.
        """
        data = self.to_array()
        header = f"n_joints={self.n_joints} period_ms={self.period_ms}"
        np.savetxt(path, data, delimiter=",", header=header)

    @classmethod
    def load(cls, path: str, max_history: int | None = None) -> "CommandDataset":
        """Load a dataset previously written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            first = handle.readline().strip()
        period_ms = 20.0
        if first.startswith("#"):
            for token in first.lstrip("# ").split():
                key, _, value = token.partition("=")
                if key == "period_ms":
                    period_ms = float(value)
        import warnings

        with warnings.catch_warnings():
            # np.loadtxt warns (and returns an empty array) on data-less
            # files; we turn that case into a DatasetError below.
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", ndmin=2)
        if data.size == 0:
            raise DatasetError(f"{path} contains no commands")
        dataset = cls(n_joints=data.shape[1], max_history=max_history, period_ms=period_ms)
        dataset.extend(data)
        return dataset

    def split(self, train_fraction: float = 0.8) -> TrainTestSplit:
        """Chronological α / β split of the stored commands."""
        train_fraction = ensure_probability("train_fraction", train_fraction)
        data = self.to_array()
        if data.shape[0] < 2:
            raise DatasetError("need at least two commands to split the dataset")
        cut = int(round(train_fraction * data.shape[0]))
        cut = min(max(cut, 1), data.shape[0] - 1)
        return TrainTestSplit(train=data[:cut], test=data[cut:])
