"""Tests for the forecasting algorithms and their shared interface."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DimensionError, NotFittedError
from repro.forecasting import (
    ExponentialSmoothingForecaster,
    MovingAverageForecaster,
    Seq2SeqForecaster,
    VarForecaster,
    VarmaForecaster,
    forecast_rmse,
    forecaster_names,
    make_forecaster,
    multi_step_rmse,
    register_forecaster,
    rolling_forecast_errors,
    sliding_windows,
)


def _linear_stream(n: int = 300, d: int = 3, slope: float = 0.01) -> np.ndarray:
    t = np.arange(n).reshape(-1, 1)
    slopes = slope * (1.0 + np.arange(d))
    return t * slopes


# ------------------------------------------------------------------ utilities
def test_sliding_windows_shapes():
    commands = _linear_stream(50, 2)
    windows, targets = sliding_windows(commands, record=5)
    assert windows.shape == (45, 5, 2)
    assert targets.shape == (45, 2)
    assert np.allclose(windows[0, -1], commands[4])
    assert np.allclose(targets[0], commands[5])
    with pytest.raises(DimensionError):
        sliding_windows(commands[:3], record=5)


def _sliding_windows_loop(commands: np.ndarray, record: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference: the window-by-window loop ``sliding_windows`` replaced."""
    n, d = commands.shape
    windows = np.empty((n - record, record, d))
    targets = np.empty((n - record, d))
    for k in range(n - record):
        windows[k] = commands[k : k + record]
        targets[k] = commands[k + record]
    return windows, targets


@pytest.mark.parametrize(
    "n, d, record, strided",
    [
        (300, 6, 10, False),  # random streams
        (57, 3, 5, False),
        (40, 6, 1, False),  # record=1
        (6, 2, 5, False),  # n = record + 1: a single window
        (2, 4, 1, False),
        (80, 6, 4, True),  # non-contiguous input
        (30, 2, 1, True),
    ],
)
def test_sliding_windows_equal_the_loop_byte_for_byte(n, d, record, strided):
    rng = np.random.default_rng(n * 31 + d * 7 + record)
    if strided:  # every other row and joint of a wider stream: a non-contiguous view
        commands = rng.normal(size=(2 * n, 2 * d))[::2, ::2]
        assert not commands.flags.c_contiguous
    else:
        commands = rng.normal(size=(n, d))
    before = commands.copy()
    windows, targets = sliding_windows(commands, record)
    expected_windows, expected_targets = _sliding_windows_loop(commands, record)
    for got, expected in ((windows, expected_windows), (targets, expected_targets)):
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        assert got.flags.c_contiguous
        assert not np.shares_memory(got, commands)
    windows[...] = 0.0  # the caller owns its arrays: the stream is untouched
    targets[...] = 0.0
    assert np.array_equal(commands, before)


def test_forecast_rmse():
    a = np.zeros((4, 2))
    b = np.ones((4, 2))
    assert forecast_rmse(a, b) == pytest.approx(1.0)
    with pytest.raises(DimensionError):
        forecast_rmse(a, np.ones((3, 2)))


def test_make_forecaster_registry():
    assert isinstance(make_forecaster("var"), VarForecaster)
    assert isinstance(make_forecaster("ma"), MovingAverageForecaster)
    assert isinstance(make_forecaster("varma"), VarmaForecaster)
    assert isinstance(make_forecaster("ses"), ExponentialSmoothingForecaster)
    assert isinstance(make_forecaster("seq2seq"), Seq2SeqForecaster)
    with pytest.raises(ConfigurationError):
        make_forecaster("arima")


def test_registration_after_a_lookup_is_visible():
    """The built-in table is built once; runtime registrations still resolve."""
    assert isinstance(make_forecaster("ma"), MovingAverageForecaster)

    class LateForecaster(MovingAverageForecaster):
        name = "late-registered-ma"

    assert "late-registered-ma" not in forecaster_names()
    register_forecaster("Late-Registered-MA", LateForecaster, overwrite=True)
    assert isinstance(make_forecaster("late-registered-ma", record=3), LateForecaster)
    assert "late-registered-ma" in forecaster_names()
    with pytest.raises(ConfigurationError, match="late-registered-ma"):
        make_forecaster("arima")
    with pytest.raises(ConfigurationError):
        register_forecaster("VAR", LateForecaster)


# ------------------------------------------------------------------ interface
def test_predict_requires_fit():
    forecaster = VarForecaster(record=3)
    with pytest.raises(NotFittedError):
        forecaster.predict_next(np.zeros((3, 2)))


def test_history_shorter_than_record_rejected():
    forecaster = MovingAverageForecaster(record=5).fit(_linear_stream(50))
    with pytest.raises(DimensionError):
        forecaster.predict_next(np.zeros((3, 3)))


def test_joint_dimension_mismatch_rejected():
    forecaster = VarForecaster(record=3).fit(_linear_stream(100, 3))
    with pytest.raises(DimensionError):
        forecaster.predict_next(np.zeros((3, 4)))


def test_forecast_horizon_returns_requested_steps():
    forecaster = VarForecaster(record=4).fit(_linear_stream(200, 2))
    result = forecaster.forecast_horizon(_linear_stream(200, 2)[:10], steps=7)
    assert result.forecasts.shape == (7, 2)
    assert result.algorithm == "var"


# ------------------------------------------------------------------------ MA
def test_moving_average_predicts_window_mean():
    forecaster = MovingAverageForecaster(record=4).fit(_linear_stream(50, 2))
    history = np.array([[0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    prediction = forecaster.predict_next(history)
    assert np.allclose(prediction, [1.5, 3.0])


# ----------------------------------------------------------------------- VAR
def test_var_learns_linear_trend_exactly():
    stream = _linear_stream(400, 3)
    forecaster = VarForecaster(record=3, ridge=0.0).fit(stream)
    history = stream[100:103]
    prediction = forecaster.predict_next(history)
    assert np.allclose(prediction, stream[103], atol=1e-6)
    assert forecaster.n_parameters == 3 * 3 * 3 + 3
    assert forecaster.training_residual_rmse(stream) < 1e-6


def test_var_beats_moving_average_on_operator_data(experienced_stream, inexperienced_stream):
    """Fig. 7 headline: VAR is more accurate than the MA benchmark."""
    train = experienced_stream.commands
    test = inexperienced_stream.commands
    var = VarForecaster(record=10).fit(train)
    ma = MovingAverageForecaster(record=10).fit(train)
    var_rmse = multi_step_rmse(var, test, horizon=5, stride=200)
    ma_rmse = multi_step_rmse(ma, test, horizon=5, stride=200)
    assert var_rmse < ma_rmse


def test_var_multi_step_error_grows_with_window(experienced_stream, inexperienced_stream):
    """Fig. 7 shape: forecast error grows as the forecasting window lengthens."""
    var = VarForecaster(record=10).fit(experienced_stream.commands)
    test = inexperienced_stream.commands
    short = multi_step_rmse(var, test, horizon=1, stride=200)
    long = multi_step_rmse(var, test, horizon=25, stride=200)
    assert long > short


def test_var_ridge_must_be_non_negative():
    with pytest.raises(ConfigurationError):
        VarForecaster(ridge=-1.0)


# --------------------------------------------------------------------- VARMA
def test_varma_falls_back_to_var_without_residuals():
    stream = _linear_stream(300, 2)
    varma = VarmaForecaster(record=3, ma_order=2, ridge=0.0).fit(stream)
    var = VarForecaster(record=3, ridge=0.0).fit(stream)
    history = stream[50:53]
    assert np.allclose(varma.predict_next(history), var.predict_next(history), atol=1e-8)


def test_varma_observe_residual_changes_prediction():
    # A moving-average noise component gives the VAR structured residuals, so
    # the VARMA correction stage learns non-zero coefficients.
    rng = np.random.default_rng(0)
    noise = rng.normal(0.0, 0.05, size=(402, 2))
    stream = _linear_stream(400, 2) + noise[1:401] + 0.9 * noise[0:400]
    varma = VarmaForecaster(record=3, ma_order=2, ridge=0.0).fit(stream)
    assert np.any(np.abs(varma.ma_coefficients) > 1e-6)
    history = stream[50:53]
    baseline = varma.predict_next(history)
    varma.observe_residual(np.array([1.0, -1.0]))
    varma.observe_residual(np.array([1.0, -1.0]))
    shifted = varma.predict_next(history)
    assert not np.allclose(baseline, shifted)


# ------------------------------------------------------------------------ SES
def test_ses_tracks_linear_trend_approximately():
    stream = _linear_stream(300, 2, slope=0.02)
    ses = ExponentialSmoothingForecaster(record=10, tune_on_fit=False, damping=1.0).fit(stream)
    history = stream[100:110]
    prediction = ses.predict_next(history)
    assert np.allclose(prediction, stream[110], atol=0.02)


def test_ses_grid_search_selects_parameters(experienced_stream):
    ses = ExponentialSmoothingForecaster(record=5, tune_on_fit=True)
    ses.fit(experienced_stream.commands[:2000])
    assert 0.0 <= ses.alpha <= 1.0
    assert 0.0 <= ses.beta <= 1.0


# -------------------------------------------------------------------- seq2seq
def test_seq2seq_forecaster_end_to_end_small():
    stream = _linear_stream(150, 2)
    forecaster = Seq2SeqForecaster(
        record=4, encoder_units=8, decoder_units=4, epochs=2, max_training_windows=100, seed=0
    ).fit(stream)
    prediction = forecaster.predict_next(stream[20:24])
    assert prediction.shape == (2,)
    assert forecaster.n_parameters > 0
    assert len(forecaster.training_history) == 2


# -------------------------------------------------------------------- metrics
def test_rolling_forecast_errors_properties(experienced_stream, inexperienced_stream):
    var = VarForecaster(record=5).fit(experienced_stream.commands)
    errors = rolling_forecast_errors(var, inexperienced_stream.commands, horizon=3, stride=300)
    assert errors.ndim == 1
    assert np.all(errors >= 0.0)
    with pytest.raises(DimensionError):
        rolling_forecast_errors(var, inexperienced_stream.commands[:6], horizon=10)


@settings(max_examples=10, deadline=None)
@given(record=st.integers(1, 8))
def test_ma_prediction_within_history_envelope(record):
    """Property: an MA forecast always lies within the per-joint min/max of its window."""
    rng = np.random.default_rng(record)
    stream = rng.normal(size=(100, 3))
    forecaster = MovingAverageForecaster(record=record).fit(stream)
    history = stream[-record:]
    prediction = forecaster.predict_next(history)
    assert np.all(prediction <= history.max(axis=0) + 1e-12)
    assert np.all(prediction >= history.min(axis=0) - 1e-12)
