"""Forecast accuracy metrics.

Fig. 7 of the paper reports the RMSE of the *Cartesian* forecast error — in
millimetres of end-effector position — as a function of the forecasting
window (how many consecutive commands are forecasted).  These helpers compute
both the joint-space RMSE (useful for model selection) and the Cartesian
errors used by the figure, via the robot's forward kinematics.
"""

from __future__ import annotations

import numpy as np

from .._validation import as_command_array, ensure_int
from ..errors import DimensionError
from ..robot.niryo import NiryoOneArm
from .base import Forecaster


def forecast_rmse(predicted: np.ndarray, actual: np.ndarray) -> float:
    """Joint-space RMSE between predicted and actual command arrays."""
    predicted = as_command_array("predicted", predicted)
    actual = as_command_array("actual", actual)
    if predicted.shape != actual.shape:
        raise DimensionError(f"shape mismatch: {predicted.shape} vs {actual.shape}")
    return float(np.sqrt(np.mean((predicted - actual) ** 2)))


def rolling_forecast_errors(
    forecaster: Forecaster,
    commands: np.ndarray,
    horizon: int,
    stride: int = 1,
    max_evaluations: int | None = None,
) -> np.ndarray:
    """Per-evaluation Cartesian errors of ``horizon``-step forecasts.

    Slides over the test command stream: at every ``stride``-th position,
    forecast the next ``horizon`` commands from the preceding history and
    record the Euclidean end-effector error of the *last* forecasted command
    (the command at the end of the forecasting window — the quantity Fig. 7
    plots against the window length).
    """
    commands = as_command_array("commands", commands)
    horizon = ensure_int("horizon", horizon, minimum=1)
    stride = ensure_int("stride", stride, minimum=1)
    record = forecaster.record
    arm = NiryoOneArm()

    errors: list[float] = []
    last_start = commands.shape[0] - record - horizon
    if last_start < 0:
        raise DimensionError("command stream too short for the requested record and horizon")
    starts = range(0, last_start + 1, stride)
    for count, start in enumerate(starts):
        if max_evaluations is not None and count >= max_evaluations:
            break
        history = commands[start : start + record]
        actual = commands[start + record : start + record + horizon]
        result = forecaster.forecast_horizon(history, horizon)
        predicted_mm = arm.kinematics.end_effector_position(result.forecasts[-1]) * 1000.0
        actual_mm = arm.kinematics.end_effector_position(actual[-1]) * 1000.0
        errors.append(float(np.linalg.norm(predicted_mm - actual_mm)))
    return np.array(errors)


def multi_step_rmse(
    forecaster: Forecaster,
    commands: np.ndarray,
    horizon: int,
    stride: int = 1,
    max_evaluations: int | None = None,
) -> float:
    """Cartesian RMSE (mm) of the final command of a ``horizon``-step forecast."""
    errors = rolling_forecast_errors(
        forecaster, commands, horizon, stride=stride, max_evaluations=max_evaluations
    )
    return float(np.sqrt(np.mean(errors ** 2)))
