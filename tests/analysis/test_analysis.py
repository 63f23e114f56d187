"""Tests for the analysis helpers (heatmaps, statistics, profiling)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.heatmap import HeatmapGrid
from repro.analysis.profiling import (
    HARDWARE_PROFILES,
    scale_timings_to_hardware,
)
from repro.analysis.statistics import summarize
from repro.errors import ConfigurationError, DimensionError


# ------------------------------------------------------------------- heatmap
def test_heatmap_grid_accumulates_samples():
    grid = HeatmapGrid([0.01, 0.05], [10, 100], label="test")
    grid.add_sample(0.01, 10, 2.0)
    grid.add_sample(0.01, 10, 4.0)
    grid.add_sample(0.05, 100, 10.0)
    assert grid.cell(0.01, 10).mean == pytest.approx(3.0)
    assert grid.cell(0.01, 10).std > 0.0
    assert np.isnan(grid.cell(0.05, 10).mean)
    assert grid.max_mean() == pytest.approx(10.0)
    assert grid.min_mean() == pytest.approx(3.0)


def test_heatmap_matrix_orientation():
    grid = HeatmapGrid([0.01, 0.05], [10, 100])
    grid.add_sample(0.05, 100, 7.0)
    matrix = grid.matrix()
    assert matrix.shape == (2, 2)
    assert matrix[1, 1] == pytest.approx(7.0)


def test_heatmap_text_and_records():
    grid = HeatmapGrid([0.01], [10], label="demo")
    grid.add_sample(0.01, 10, 1.5)
    text = grid.to_text()
    assert "demo" in text and "1.50" in text
    records = grid.as_records()
    assert len(records) == 1
    assert records[0]["mean_rmse_mm"] == pytest.approx(1.5)
    assert records[0]["n_repetitions"] == 1


def test_heatmap_validation():
    with pytest.raises(ConfigurationError):
        HeatmapGrid([], [10])
    grid = HeatmapGrid([0.01], [10])
    with pytest.raises(ConfigurationError):
        grid.cell(0.02, 10)


# ---------------------------------------------------------------- statistics
def test_summarize_keys_and_empty_rejected():
    stats = summarize(np.array([1.0, 2.0, 3.0]))
    assert set(stats) == {"mean", "std", "min", "max", "p50", "p95"}
    with pytest.raises(DimensionError):
        summarize(np.array([]))


# ----------------------------------------------------------------- profiling
def test_hardware_profiles_ordering():
    """The paper's platform ordering: Pi slower than Jetson, laptop, edge."""
    pi = HARDWARE_PROFILES["raspberry-pi3"]
    jetson = HARDWARE_PROFILES["jetson-nano"]
    laptop = HARDWARE_PROFILES["laptop"]
    edge = HARDWARE_PROFILES["edge-server"]
    assert pi.training_scale > jetson.training_scale > laptop.training_scale >= edge.training_scale


def test_scale_timings_projection_preserves_ratios():
    projections = scale_timings_to_hardware(60.0, 1.0, reference="laptop")
    assert set(projections) == set(HARDWARE_PROFILES)
    pi = projections["raspberry-pi3"]
    laptop = projections["laptop"]
    assert laptop["training_min"] == pytest.approx(1.0)
    expected_ratio = (
        HARDWARE_PROFILES["raspberry-pi3"].training_scale / HARDWARE_PROFILES["laptop"].training_scale
    )
    assert pi["training_min"] / laptop["training_min"] == pytest.approx(expected_ratio)


def test_scale_timings_unknown_reference():
    with pytest.raises(KeyError):
        scale_timings_to_hardware(1.0, 1.0, reference="mainframe")
