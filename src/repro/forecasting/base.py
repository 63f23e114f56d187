"""Common forecaster interface and shared utilities.

Every forecasting algorithm in FoReCo follows the same contract (paper
Problem 1): given the last ``R`` commands ``{ĉ_j}``, produce the next command
``ĉ_{i+1} ∈ R^d``.  :class:`Forecaster` encodes that contract:

* :meth:`Forecaster.fit` learns the weights ``w`` from a training command
  stream (the experienced-operator dataset),
* :meth:`Forecaster.predict_next` forecasts a single command from a history
  window,
* :meth:`Forecaster.forecast_horizon` iterates the one-step forecast to fill
  an arbitrary forecasting window (20–1000 ms in Fig. 7), feeding its own
  forecasts back as inputs — exactly how FoReCo behaves during a loss burst.

:func:`sliding_windows` builds the supervised ``(history, next)`` pairs used
for training, and :func:`make_forecaster` is a small registry/factory used by
the experiments and the CLI.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass

import numpy as np

from .._validation import as_command_array, ensure_int
from ..errors import ConfigurationError, DimensionError, NotFittedError


@dataclass
class ForecastResult:
    """A multi-step forecast and the history it was produced from."""

    forecasts: np.ndarray
    history_length: int
    algorithm: str

    def __len__(self) -> int:
        return self.forecasts.shape[0]


def sliding_windows(commands: np.ndarray, record: int) -> tuple[np.ndarray, np.ndarray]:
    """Build supervised pairs ``(X, y)`` from a command stream.

    ``X[k]`` is the window of ``record`` consecutive commands ending at index
    ``k + record - 1`` and ``y[k]`` is the command that follows it.

    Returns
    -------
    X : numpy.ndarray of shape ``(n - record, record, d)``
    y : numpy.ndarray of shape ``(n - record, d)``
    """
    commands = as_command_array("commands", commands)
    record = ensure_int("record", record, minimum=1)
    n = commands.shape[0]
    if n <= record:
        raise DimensionError(
            f"need more than record={record} commands to build windows, got {n}"
        )
    # Window ``k`` is rows ``k .. k + record - 1``: a strided view of the
    # stream, copied once into fresh C-contiguous arrays the caller owns.
    view = np.lib.stride_tricks.sliding_window_view(commands[:-1], record, axis=0)
    windows = view.transpose(0, 2, 1).copy(order="C")
    targets = commands[record:].copy(order="C")
    return windows, targets


class Forecaster(abc.ABC):
    """Abstract one-step-ahead forecaster over ``R``-command histories.

    Parameters
    ----------
    record:
        ``R`` — the number of most recent commands a forecast is computed
        from (the paper's history window).

    Notes
    -----
    Subclasses implement ``_fit`` and ``_predict_next``; they may also
    override ``_predict_next_batch`` with a vectorized kernel and set
    :attr:`supports_batch_predict` once they honour its contract (see
    :meth:`predict_next_batch`).
    """

    #: Registry name; subclasses override it.
    name = "forecaster"

    #: Contract flag for the batched session kernel.  ``True`` promises that
    #: :meth:`predict_next_batch` called on ONE shared instance returns, for
    #: every row, exactly (bit-for-bit) what :meth:`predict_next` would
    #: return on an independent, freshly deep-copied instance fed the same
    #: history.  Stateless predictors satisfy this trivially; predictors with
    #: mutable predict-time state must either vectorize that state per row or
    #: leave the flag ``False``, and the session kernel then gives every row
    #: its own deep copy and calls :meth:`predict_next` on it.
    supports_batch_predict = False

    def __init__(self, record: int = 5) -> None:
        self.record = ensure_int("record", record, minimum=1)
        self._fitted = False
        self._n_joints: int | None = None

    # ------------------------------------------------------------------ api
    @abc.abstractmethod
    def _fit(self, commands: np.ndarray) -> None:
        """Algorithm-specific training on an ``(n, d)`` command stream."""

    @abc.abstractmethod
    def _predict_next(self, history: np.ndarray) -> np.ndarray:
        """Algorithm-specific one-step forecast from an ``(record, d)`` history."""

    def _predict_next_batch(self, windows: np.ndarray) -> np.ndarray:
        """Algorithm-specific batched forecast from ``(B, record, d)`` windows.

        The default applies :meth:`_predict_next` row by row on this very
        instance; vectorized subclasses override it with a stacked kernel
        whose rows are bit-identical to the serial one.
        """
        return np.stack(
            [np.asarray(self._predict_next(window), dtype=float).ravel() for window in windows]
        )

    # ------------------------------------------------------------- template
    def fit(self, commands: np.ndarray) -> "Forecaster":
        """Learn the forecaster weights from a training command stream."""
        commands = as_command_array("training commands", commands)
        if commands.shape[0] <= self.record:
            raise DimensionError(
                f"training stream must be longer than record={self.record}, got {commands.shape[0]}"
            )
        self._n_joints = commands.shape[1]
        self._fit(commands)
        self._fitted = True
        return self

    def predict_next(self, history: np.ndarray) -> np.ndarray:
        """Forecast the next command from the last ``record`` commands.

        Histories longer than ``record`` are truncated to the most recent
        ``record`` commands; shorter histories are rejected.
        """
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} must be fitted before predicting")
        history = as_command_array("history", history)
        if self._n_joints is not None and history.shape[1] != self._n_joints:
            raise DimensionError(
                f"history has {history.shape[1]} joints but the model was trained with {self._n_joints}"
            )
        if history.shape[0] < self.record:
            raise DimensionError(
                f"history must contain at least record={self.record} commands, got {history.shape[0]}"
            )
        window = history[-self.record :]
        return np.asarray(self._predict_next(window), dtype=float).ravel()

    def predict_next_batch(self, histories: np.ndarray) -> np.ndarray:
        """Forecast the next command for ``B`` independent histories at once.

        This is the kernel the batched session engine drives: one call per
        slot instead of one Python call per slot *per repetition*.

        Parameters
        ----------
        histories:
            Array of shape ``(B, n_history, d)`` stacking one history window
            per repetition.  As with :meth:`predict_next`, windows longer
            than ``record`` are truncated to the most recent ``record``
            commands; shorter windows are rejected.

        Returns
        -------
        numpy.ndarray of shape ``(B, d)``
            One forecast per row.  When :attr:`supports_batch_predict` is
            true, row ``b`` is bit-identical to
            ``predict_next(histories[b])`` on a fresh copy of this
            forecaster, which is what lets the session kernel forecast all
            missing rows of a slot in one call.
        """
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} must be fitted before predicting")
        histories = np.asarray(histories, dtype=float)
        if histories.ndim != 3:
            raise DimensionError(
                f"histories must have shape (B, n_history, d), got {histories.shape}"
            )
        if self._n_joints is not None and histories.shape[2] != self._n_joints:
            raise DimensionError(
                f"histories have {histories.shape[2]} joints but the model was trained "
                f"with {self._n_joints}"
            )
        if histories.shape[1] < self.record:
            raise DimensionError(
                f"histories must contain at least record={self.record} commands, "
                f"got {histories.shape[1]}"
            )
        windows = np.ascontiguousarray(histories[:, -self.record :, :])
        if windows.shape[0] == 0:
            return np.empty((0, windows.shape[2]))
        return np.asarray(self._predict_next_batch(windows), dtype=float).reshape(
            windows.shape[0], windows.shape[2]
        )

    def forecast_horizon(self, history: np.ndarray, steps: int) -> ForecastResult:
        """Iterate the one-step forecast ``steps`` times, feeding forecasts back.

        This reproduces the paper's forecasting-window evaluation (Fig. 7) and
        FoReCo's behaviour during a burst of consecutive losses: forecast
        ``ĉ_{i+1}`` from real history, then ``ĉ_{i+2}`` from history that
        already contains ``ĉ_{i+1}``, and so on — which is why forecast error
        accumulates over long bursts (paper §VI-D1).
        """
        steps = ensure_int("steps", steps, minimum=1)
        history = as_command_array("history", history)
        window = history[-self.record :].copy()
        forecasts = np.empty((steps, window.shape[1]))
        for step in range(steps):
            next_command = self.predict_next(window)
            forecasts[step] = next_command
            window = np.vstack([window[1:], next_command]) if self.record > 1 else next_command.reshape(1, -1)
        return ForecastResult(forecasts=forecasts, history_length=self.record, algorithm=self.name)

    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` has completed."""
        return self._fitted

    @property
    def n_joints(self) -> int | None:
        """Command dimensionality seen at fit time (``None`` before fitting)."""
        return self._n_joints


#: Extra forecaster classes registered at runtime (name -> class).
_CUSTOM_FORECASTERS: dict[str, type["Forecaster"]] = {}


def register_forecaster(name: str, cls: type["Forecaster"], overwrite: bool = False) -> None:
    """Register a custom forecaster class under ``name``.

    Registered classes become constructible through :func:`make_forecaster`
    — and therefore usable from a :class:`~repro.scenarios.ScenarioSpec`,
    whose ``algorithm`` field is a registry name.  The built-in names
    ("var", "ma", "seq2seq", "varma", "ses") cannot be shadowed.
    """
    key = name.lower()
    if key in _builtin_forecasters():
        raise ConfigurationError(f"cannot shadow the built-in forecaster {name!r}")
    if key in _CUSTOM_FORECASTERS and not overwrite:
        raise ConfigurationError(f"forecaster {name!r} is already registered")
    if not (isinstance(cls, type) and issubclass(cls, Forecaster)):
        raise ConfigurationError("a registered forecaster must subclass Forecaster")
    _CUSTOM_FORECASTERS[key] = cls


def forecaster_names() -> list[str]:
    """Sorted names accepted by :func:`make_forecaster`."""
    return sorted({**_builtin_forecasters(), **_CUSTOM_FORECASTERS})


@functools.cache
def _builtin_forecasters() -> dict[str, type["Forecaster"]]:
    """The built-in name -> class table, built once (callers must not mutate it)."""
    from .ma import MovingAverageForecaster
    from .seq2seq import Seq2SeqForecaster
    from .smoothing import ExponentialSmoothingForecaster
    from .var import VarForecaster
    from .varma import VarmaForecaster

    return {
        "var": VarForecaster,
        "ma": MovingAverageForecaster,
        "seq2seq": Seq2SeqForecaster,
        "varma": VarmaForecaster,
        "ses": ExponentialSmoothingForecaster,
    }


def make_forecaster(name: str, record: int = 5, **kwargs) -> Forecaster:
    """Factory building a forecaster by registry name.

    Built-in names: ``"var"``, ``"ma"``, ``"seq2seq"``, ``"varma"``,
    ``"ses"``; more can be added with :func:`register_forecaster`.
    """
    return _forecaster_class(name)(record=record, **kwargs)


def _forecaster_class(name: str) -> type[Forecaster]:
    """The class :func:`make_forecaster` builds for ``name``."""
    key = name.lower()
    cls = _builtin_forecasters().get(key) or _CUSTOM_FORECASTERS.get(key)
    if cls is None:
        raise ConfigurationError(f"unknown forecaster {name!r}; available: {forecaster_names()}")
    return cls
