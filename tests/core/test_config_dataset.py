"""Tests for the FoReCo configuration and the command dataset."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CommandDataset, ForecoConfig
from repro.errors import ConfigurationError, DatasetError


# -------------------------------------------------------------------- config
def test_default_config_matches_paper_prototype():
    config = ForecoConfig()
    assert config.command_period_ms == 20.0
    assert config.tolerance_ms == 0.0
    assert config.train_fraction == pytest.approx(0.8)
    assert config.test_fraction == pytest.approx(0.2)
    assert config.algorithm == "var"
    assert config.deadline_ms == pytest.approx(20.0)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ForecoConfig(command_period_ms=0.0)
    with pytest.raises(ConfigurationError):
        ForecoConfig(train_fraction=1.0)
    with pytest.raises(ConfigurationError):
        ForecoConfig(train_fraction=0.0)
    with pytest.raises(ConfigurationError):
        ForecoConfig(feedback="psychic")
    with pytest.raises(ConfigurationError):
        ForecoConfig(record=0)
    with pytest.raises(ConfigurationError):
        ForecoConfig(max_step_rad=-0.1)
    with pytest.raises(ConfigurationError):
        ForecoConfig(algorithm="")


def test_config_deadline_includes_tolerance():
    config = ForecoConfig(command_period_ms=20.0, tolerance_ms=5.0)
    assert config.deadline_ms == pytest.approx(25.0)


# ------------------------------------------------------------------- dataset
def test_dataset_append_and_bounds():
    dataset = CommandDataset(n_joints=3, max_history=5)
    for value in range(8):
        dataset.append(np.full(3, float(value)))
    assert len(dataset) == 5
    assert np.allclose(dataset.to_array()[0], 3.0)  # oldest entries evicted
    assert np.allclose(dataset.recent(2)[-1], 7.0)


def test_dataset_rejects_bad_commands():
    dataset = CommandDataset(n_joints=3)
    with pytest.raises(DatasetError):
        dataset.append(np.zeros(2))
    with pytest.raises(DatasetError):
        dataset.append(np.array([1.0, np.nan, 0.0]))
    with pytest.raises(DatasetError):
        dataset.extend(np.zeros((4, 2)))


def test_dataset_downsample():
    dataset = CommandDataset(n_joints=1)
    dataset.extend(np.arange(10.0).reshape(-1, 1))
    assert np.allclose(dataset.downsample(3).ravel(), [0.0, 3.0, 6.0, 9.0])
    with pytest.raises(DatasetError):
        CommandDataset(n_joints=1).downsample(2)


def test_dataset_split_chronological():
    dataset = CommandDataset(n_joints=2)
    dataset.extend(np.arange(20.0).reshape(10, 2))
    split = dataset.split(0.8)
    assert split.train.shape[0] == 8
    assert split.test.shape[0] == 2
    assert split.train_fraction == pytest.approx(0.8)
    assert np.all(split.train[-1] < split.test[0])  # chronological order preserved


def test_dataset_split_requires_two_commands():
    dataset = CommandDataset(n_joints=2)
    dataset.append(np.zeros(2))
    with pytest.raises(DatasetError):
        dataset.split(0.5)


def test_quality_check_clean_data(experienced_stream):
    dataset = CommandDataset(n_joints=6)
    dataset.extend(experienced_stream.commands[:2000])
    report = dataset.quality_check()
    assert report.is_clean
    assert report.n_commands == 2000
    assert 0.0 <= report.frozen_fraction <= 1.0


def test_quality_check_detects_and_repairs_out_of_range():
    dataset = CommandDataset(n_joints=6)
    good = np.zeros((5, 6))
    bad = np.full((1, 6), 99.0)  # far outside the joint limits
    dataset.extend(np.vstack([good, bad, good]))
    report = dataset.quality_check(repair=True)
    assert report.n_out_of_range == 1
    assert report.n_jumps >= 1
    assert report.repaired
    repaired = dataset.to_array()
    assert np.all(repaired <= 4.0)  # clamped to the joint limits


def test_quality_check_empty_dataset_raises():
    with pytest.raises(DatasetError):
        CommandDataset(n_joints=2).quality_check()


def test_dataset_duration_and_clear():
    dataset = CommandDataset(n_joints=2, period_ms=20.0)
    dataset.extend(np.zeros((50, 2)))
    assert dataset.duration_s == pytest.approx(1.0)
    dataset.clear()
    assert len(dataset) == 0


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(3, 60),
    max_history=st.integers(2, 30),
)
def test_dataset_never_exceeds_max_history(n, max_history):
    """Property: the stored history never exceeds H commands."""
    dataset = CommandDataset(n_joints=2, max_history=max_history)
    dataset.extend(np.zeros((n, 2)))
    assert len(dataset) == min(n, max_history)


_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(1, 40)),
        st.tuples(st.just("extend"), st.integers(1, 40)),
        st.tuples(st.just("clear"), st.just(0)),
        st.tuples(st.just("repair"), st.just(0)),
    ),
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(operations=_OPERATIONS, max_history=st.one_of(st.none(), st.integers(2, 50)))
def test_dataset_matches_list_reference(operations, max_history):
    """Property: the array-backed dataset behaves like a bounded list of rows."""
    dataset = CommandDataset(n_joints=6, max_history=max_history)
    reference: list[np.ndarray] = []
    counter = 0
    for name, count in operations:
        # Distinct, in-range joint values, so a repair pass must change nothing.
        rows = (counter + np.arange(6 * count, dtype=float).reshape(count, 6)) * 1e-5
        counter += 6 * count
        if name == "append":
            for row in rows:
                dataset.append(row)
                reference.append(row)
        elif name == "extend":
            dataset.extend(rows)
            reference.extend(rows)
        elif name == "clear":
            dataset.clear()
            reference = []
        elif reference:
            assert dataset.quality_check(repair=True).is_clean
        if max_history is not None:
            reference = reference[-max_history:]
            assert dataset._data.shape[0] <= 2 * max_history

        expected = np.array(reference).reshape(-1, 6)
        assert len(dataset) == len(reference)
        stored = dataset.to_array()
        assert stored.tobytes() == expected.tobytes()
        stored += 1.0  # a copy: the dataset must not change
        assert dataset.to_array().tobytes() == expected.tobytes()
        assert dataset.recent(3).tobytes() == expected[-3:].tobytes()
