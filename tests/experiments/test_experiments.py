"""Integration tests: every paper figure/table experiment runs at CI scale and
reproduces the qualitative result reported by the paper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    build_datasets,
    fig6_dataset,
    fig7_forecast_accuracy,
    fig8_simulation_heatmap,
    fig9_controlled_losses,
    fig10_jammer,
    get_scale,
    table1_training_profile,
    table2_hardware_timing,
)
from repro.experiments.runner import EXPERIMENTS, run_experiments
from repro.errors import ConfigurationError


def test_scales_registry():
    assert get_scale("ci").name == "ci"
    assert get_scale(get_scale("standard")).name == "standard"
    with pytest.raises(ConfigurationError):
        get_scale("galactic")
    assert get_scale("full").train_repetitions == 100  # the paper's dataset size


def test_build_datasets_cached_and_sized():
    first = build_datasets("ci", seed=123)
    second = build_datasets("ci", seed=123)
    assert first is second  # cached
    assert first.n_joints == 6
    assert len(first.experienced) > len(first.inexperienced)


def test_fig6_dataset_trace_matches_paper_envelope():
    result = fig6_dataset.run("ci")
    assert result.n_commands > 1000
    assert 150.0 < result.min_distance_mm < 450.0
    assert 400.0 < result.max_distance_mm < 700.0
    assert result.max_distance_mm - result.min_distance_mm > 100.0
    assert "Fig. 6" in result.to_text()
    assert len(result.series(20)) <= 21


def test_fig7_var_beats_ma_and_error_grows():
    result = fig7_forecast_accuracy.run("ci", algorithms=("var", "ma"))
    assert set(result.rmse_mm) == {"var", "ma"}
    # Ordering: VAR at least as accurate as MA at every window (paper Fig. 7).
    var_curve = np.array(result.rmse_mm["var"])
    ma_curve = np.array(result.rmse_mm["ma"])
    assert np.all(var_curve <= ma_curve + 1e-9)
    # Error grows with the forecasting window for both algorithms.
    assert var_curve[-1] > var_curve[0]
    assert ma_curve[-1] > ma_curve[0]
    assert "window" in result.to_text()


def test_fig8_foreco_reduces_error_and_trends_hold():
    result = fig8_simulation_heatmap.run(
        "ci", robot_counts=(5, 25), probabilities=(0.01, 0.05), durations=(10, 100)
    )
    for robots in (5, 25):
        foreco = result.foreco[robots]
        baseline = result.no_forecast[robots]
        # FoReCo wins in the worst cell of every robot count.
        assert result.improvement_factor(robots) > 1.0
        # Errors grow when interference becomes heavier (best cell -> worst cell).
        assert baseline.cell(0.05, 100).mean > baseline.cell(0.01, 10).mean
        assert foreco.cell(0.05, 100).mean >= foreco.cell(0.01, 10).mean
        # FoReCo stays within the paper's bounded-error envelope (< 20 mm).
        assert foreco.max_mean() < 20.0
    assert "Fig. 8" in result.to_text()


def test_fig9_foreco_wins_and_drift_grows_with_burst_length():
    result = fig9_controlled_losses.run("ci")
    for burst in result.burst_lengths:
        assert result.improvement_factor(burst) > 1.0
    # The forecast drift (max error) grows as the loss bursts get longer.
    assert (
        result.max_error_foreco_mm[25]
        > result.max_error_foreco_mm[10]
        > result.max_error_foreco_mm[5]
    )
    # Trajectory-derived values at ci, seed 42, pinned bit for bit.
    assert result.max_error_foreco_mm == {
        5: 1.9343577951325959,
        10: 12.715178715457567,
        25: 16.522249405422226,
    }
    assert "Fig. 9" in result.to_text()


def test_fig10_jammer_improvement_and_recovery_transient():
    result = fig10_jammer.run("ci")
    assert result.improvement_factor > 1.0
    assert 0.0 < result.jammed_fraction < 1.0
    assert result.longest_burst_commands >= 5
    # The PID settling transient after channel recovery is below one second.
    assert 0.0 <= result.pid_settling_ms <= 1000.0
    # Trajectory-derived values at ci, seed 42, pinned bit for bit.
    assert result.rmse_foreco_mm == 4.304382933563913
    assert result.rmse_no_forecast_mm == 6.572795333188499
    assert result.pid_settling_ms == 0.0
    assert "Fig. 10" in result.to_text()


def test_table1_stage_profile_shape():
    result = table1_training_profile.run("ci", repetitions=2)
    assert set(result.stage_stats) == {"load_data", "downsampling", "check_quality", "training_model"}
    assert result.total_mean_s > 0.0
    # Inference is far below the 20 ms control period (paper: 1.6 ms on the Pi).
    assert result.inference_ms < 20.0
    assert result.projected_pi_total_s > result.total_mean_s
    assert "Table I" in result.to_text()


def test_table2_hardware_ordering():
    result = table2_hardware_timing.run("ci")
    assert result.training_minutes("raspberry-pi3") > result.training_minutes("jetson-nano")
    assert result.training_minutes("jetson-nano") > result.training_minutes("laptop")
    assert result.training_minutes("laptop") >= result.training_minutes("edge-server")
    assert result.inference_ms("raspberry-pi3") > result.inference_ms("edge-server")
    # Even the slowest platform forecasts well within the 20 ms control period.
    assert result.inference_ms("raspberry-pi3") < 20.0
    assert "Table II" in result.to_text()


def test_runner_registry_and_report():
    assert set(EXPERIMENTS) == {"fig6", "fig7", "fig8", "fig9", "fig10", "table1", "table2"}
    report = run_experiments(["fig6"], scale="ci", seed=42)
    assert "Fig. 6" in report
    with pytest.raises(ConfigurationError):
        run_experiments(["fig99"], scale="ci", seed=42)
    with pytest.raises(ConfigurationError):
        run_experiments([], scale="ci", seed=42)  # nothing selected


def test_runner_scenarios_and_json_format():
    import json

    report = run_experiments(
        ["fig6"], scale="ci", seed=42, jobs=2, fmt="json", scenarios=["bursty-loss"]
    )
    document = json.loads(report)
    assert document["experiments"]["fig6"]["experiment"] == "fig6"
    rows = document["scenarios"]
    assert len(rows) == 1 and rows[0]["scenario"] == "bursty-loss"
    assert rows[0]["mean_rmse_foreco_mm"] > 0.0
    # Text rendering of a scenario-only invocation.
    text = run_experiments([], scale="ci", seed=42, scenarios=["bursty-loss"])
    assert "scenario presets" in text and "bursty-loss" in text


def test_fig8_parallel_jobs_match_serial():
    serial = fig8_simulation_heatmap.run(
        "ci", robot_counts=(5,), probabilities=(0.01, 0.05), durations=(10, 100)
    )
    parallel = fig8_simulation_heatmap.run(
        "ci", robot_counts=(5,), probabilities=(0.01, 0.05), durations=(10, 100), jobs=4
    )
    assert np.array_equal(serial.no_forecast[5].matrix(), parallel.no_forecast[5].matrix())
    assert np.array_equal(serial.foreco[5].matrix(), parallel.foreco[5].matrix())
