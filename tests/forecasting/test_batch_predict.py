"""Tests for the batched forecaster API: ``predict_next_batch`` must agree
bit-for-bit with looped ``predict_next`` calls on independent copies."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.errors import DimensionError, NotFittedError
from repro.forecasting import Forecaster, make_forecaster
from repro.forecasting.base import _builtin_forecasters

RECORD = 5
N_JOINTS = 6

#: Built-in forecasters exercised by the equivalence tests; seq2seq gets tiny
#: layer sizes so the NumPy BPTT fit stays fast.
FORECASTERS: dict[str, dict] = {
    "ma": {},
    "var": {},
    "varma": {},
    "ses": {},
    "seq2seq": {
        "encoder_units": 4,
        "decoder_units": 2,
        "epochs": 1,
        "max_training_windows": 40,
    },
}


def _training_stream(n: int = 220, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    steps = rng.normal(scale=0.02, size=(n, N_JOINTS))
    return np.cumsum(steps, axis=0)


def _histories(n_batch: int, length: int, seed: int = 1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.normal(scale=0.02, size=(n_batch, length, N_JOINTS)), axis=1)


@pytest.mark.parametrize("name", sorted(FORECASTERS))
def test_batch_matches_looped_predict_next(name):
    """Batched rows == predict_next on fresh per-row copies, bit for bit."""
    forecaster = make_forecaster(name, record=RECORD, **FORECASTERS[name])
    forecaster.fit(_training_stream())
    histories = _histories(n_batch=7, length=RECORD)
    batch = forecaster.predict_next_batch(histories)
    assert batch.shape == (7, N_JOINTS)
    for row, history in zip(batch, histories):
        # A deep copy per row mirrors how the serial engine isolates
        # repetitions; the supports_batch_predict contract promises the
        # shared-instance batch reproduces exactly that.
        serial = copy.deepcopy(forecaster).predict_next(history)
        assert np.array_equal(row, serial)


@pytest.mark.parametrize("name", sorted(FORECASTERS))
def test_batch_rows_are_pure(name):
    """A row's forecast has the same bits alone, in a larger batch and permuted.

    The batched recovery kernel forecasts one dependency wave of missing
    commands per call, so the rows sharing a call change from wave to wave
    and a wave can hold thousands of rows; that is exact only if each row's
    bits depend on its own history alone.  Constant histories, ``-0.0``
    entries and large values are included.
    """
    forecaster = make_forecaster(name, record=RECORD, **FORECASTERS[name])
    forecaster.fit(_training_stream())
    histories = _histories(n_batch=48, length=RECORD, seed=3)
    histories[0] = 0.0
    histories[1, :, ::2] = -0.0
    histories[2] = histories[2, -1]
    histories[3] *= 1e3
    bits = forecaster.predict_next_batch(histories).view(np.uint64)

    def batch_bits(rows: np.ndarray) -> np.ndarray:
        return forecaster.predict_next_batch(rows).view(np.uint64)

    for index in range(histories.shape[0]):
        assert np.array_equal(batch_bits(histories[index : index + 1]), bits[index : index + 1])
    larger = np.concatenate((_histories(n_batch=4096, length=RECORD, seed=4), histories))
    assert np.array_equal(batch_bits(larger)[-histories.shape[0] :], bits)
    rng = np.random.default_rng(5)
    order = rng.permutation(histories.shape[0])
    assert np.array_equal(batch_bits(histories[order]), bits[order])
    subset = rng.random(histories.shape[0]) < 0.3
    assert np.array_equal(batch_bits(histories[subset]), bits[subset])


def test_purity_cases_cover_every_batching_builtin():
    batching = {name for name, cls in _builtin_forecasters().items() if cls.supports_batch_predict}
    assert batching == set(FORECASTERS)


@pytest.mark.parametrize("name", sorted(FORECASTERS))
def test_batch_truncates_long_histories(name):
    forecaster = make_forecaster(name, record=RECORD, **FORECASTERS[name])
    forecaster.fit(_training_stream())
    long_histories = _histories(n_batch=3, length=RECORD + 4)
    batch = forecaster.predict_next_batch(long_histories)
    truncated = forecaster.predict_next_batch(long_histories[:, -RECORD:, :])
    assert np.array_equal(batch, truncated)


def test_builtins_declare_batch_support():
    for name in FORECASTERS:
        assert make_forecaster(name, record=RECORD, **FORECASTERS[name]).supports_batch_predict


def test_base_class_defaults_to_no_batch_support():
    class Stateful(Forecaster):
        name = "stateful-test"

        def _fit(self, commands):
            return None

        def _predict_next(self, history):
            return history[-1]

    forecaster = Stateful(record=RECORD)
    # Conservative default: unknown (possibly stateful) forecasters must opt
    # in before the batched session kernel may share one instance.
    assert not forecaster.supports_batch_predict
    # ...but the looped default implementation still works when called.
    forecaster.fit(_training_stream())
    histories = _histories(n_batch=4, length=RECORD)
    batch = forecaster.predict_next_batch(histories)
    assert np.array_equal(batch, histories[:, -1, :])


def test_batch_validation_errors():
    forecaster = make_forecaster("var", record=RECORD)
    with pytest.raises(NotFittedError):
        forecaster.predict_next_batch(_histories(2, RECORD))
    forecaster.fit(_training_stream())
    with pytest.raises(DimensionError):
        forecaster.predict_next_batch(np.zeros((RECORD, N_JOINTS)))  # 2-D
    with pytest.raises(DimensionError):
        forecaster.predict_next_batch(np.zeros((2, RECORD - 1, N_JOINTS)))  # short
    with pytest.raises(DimensionError):
        forecaster.predict_next_batch(np.zeros((2, RECORD, N_JOINTS + 1)))  # joints


def test_empty_batch_returns_empty():
    forecaster = make_forecaster("ma", record=RECORD)
    forecaster.fit(_training_stream())
    batch = forecaster.predict_next_batch(np.empty((0, RECORD, N_JOINTS)))
    assert batch.shape == (0, N_JOINTS)
