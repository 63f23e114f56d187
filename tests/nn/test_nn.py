"""Tests for the NumPy neural-network substrate (activations, layers, Adam)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DimensionError, NotFittedError
from repro.nn.activations import Identity, Relu, Sigmoid, Tanh, get_activation
from repro.nn.layers import Dense, LstmLayer
from repro.nn.losses import MeanSquaredError
from repro.nn.optimizers import Adam
from repro.nn.seq2seq import Seq2SeqModel


# ----------------------------------------------------------------- activations
def test_activation_registry():
    assert isinstance(get_activation("relu"), Relu)
    assert isinstance(get_activation(Tanh()), Tanh)
    with pytest.raises(ConfigurationError):
        get_activation("swish")


@settings(max_examples=30, deadline=None)
@given(st.floats(-20.0, 20.0))
def test_sigmoid_bounded_and_derivative_consistent(x):
    sigmoid = Sigmoid()
    value = sigmoid.forward(np.array([x]))[0]
    assert 0.0 <= value <= 1.0
    numerical = (sigmoid.forward(np.array([x + 1e-5]))[0] - sigmoid.forward(np.array([x - 1e-5]))[0]) / 2e-5
    assert sigmoid.backward(np.array([value]))[0] == pytest.approx(numerical, abs=1e-5)


def test_relu_and_identity_shapes():
    x = np.array([-1.0, 0.0, 2.0])
    assert np.allclose(Relu().forward(x), [0.0, 0.0, 2.0])
    assert np.allclose(Identity().forward(x), x)
    assert np.allclose(Identity().backward(x), 1.0)


# ---------------------------------------------------------------------- loss
def test_mse_value_and_gradient():
    loss = MeanSquaredError()
    predictions = np.array([1.0, 2.0])
    targets = np.array([0.0, 0.0])
    assert loss.value(predictions, targets) == pytest.approx(2.5)
    grad = loss.gradient(predictions, targets)
    assert np.allclose(grad, [1.0, 2.0])
    with pytest.raises(DimensionError):
        loss.value(np.zeros(2), np.zeros(3))


# ----------------------------------------------------------------- optimisers
def test_adam_converges_on_quadratic():
    params = {"w": np.array([5.0])}
    adam = Adam(learning_rate=0.1)
    for _ in range(500):
        grad = {"w": 2.0 * params["w"]}
        adam.update(params, grad)
    assert abs(params["w"][0]) < 0.05


def test_adam_rejects_unknown_parameter():
    adam = Adam()
    with pytest.raises(ConfigurationError):
        adam.update({"w": np.zeros(1)}, {"v": np.zeros(1)})


# --------------------------------------------------------------------- layers
def test_dense_forward_backward_gradient_check():
    rng = np.random.default_rng(0)
    layer = Dense(3, 2, seed=0)
    x = rng.normal(size=(4, 3))
    out = layer.forward(x)
    d_out = np.ones_like(out)
    _, grads = layer.backward(d_out)
    # Numerical gradient check on one weight entry.
    name = "dense/W"
    epsilon = 1e-6
    layer.params[name][0, 0] += epsilon
    loss_plus = layer.forward(x).sum()
    layer.params[name][0, 0] -= 2 * epsilon
    loss_minus = layer.forward(x).sum()
    layer.params[name][0, 0] += epsilon
    numerical = (loss_plus - loss_minus) / (2 * epsilon)
    assert grads[name][0, 0] == pytest.approx(numerical, rel=1e-4, abs=1e-6)


def test_lstm_forward_shapes_and_backward_gradcheck():
    rng = np.random.default_rng(1)
    layer = LstmLayer(input_dim=3, hidden_dim=4, output_activation="tanh", seed=1)
    sequence = rng.normal(size=(6, 3))
    outputs = layer.forward(sequence)
    assert outputs.shape == (6, 4)

    d_outputs = np.ones_like(outputs)
    d_inputs, grads = layer.backward(d_outputs)
    assert d_inputs.shape == sequence.shape

    # Numerical gradient check on a single Wx entry.
    name = "lstm/Wx"
    epsilon = 1e-6
    layer.params[name][0, 0] += epsilon
    plus = layer.forward(sequence).sum()
    layer.params[name][0, 0] -= 2 * epsilon
    minus = layer.forward(sequence).sum()
    layer.params[name][0, 0] += epsilon
    numerical = (plus - minus) / (2 * epsilon)
    assert grads[name][0, 0] == pytest.approx(numerical, rel=1e-3, abs=1e-6)


def test_lstm_rejects_bad_shapes():
    layer = LstmLayer(2, 3)
    with pytest.raises(DimensionError):
        layer.forward(np.zeros((4, 5)))
    layer.forward(np.zeros((4, 2)))
    with pytest.raises(DimensionError):
        layer.backward(np.zeros((3, 3)))


# -------------------------------------------------------------------- seq2seq
def test_seq2seq_fit_reduces_loss_and_predicts_shape():
    rng = np.random.default_rng(2)
    # Simple learnable pattern: next value continues a linear ramp.
    n, window, dim = 80, 4, 2
    base = np.cumsum(rng.normal(0.0, 0.01, size=(n + window, dim)), axis=0)
    sequences = np.stack([base[i : i + window] for i in range(n)])
    targets = base[window : window + n]
    model = Seq2SeqModel(input_dim=dim, encoder_units=8, decoder_units=4, seed=0)
    result = model.fit(sequences, targets, epochs=3, batch_size=16)
    assert len(result.loss_history) == 3
    assert result.loss_history[-1] <= result.loss_history[0]
    prediction = model.predict(base[:window])
    assert prediction.shape == (dim,)
    batch = model.predict_batch(sequences[:3])
    assert batch.shape == (3, dim)


def test_seq2seq_requires_fit_before_predict():
    model = Seq2SeqModel(input_dim=2, encoder_units=4, decoder_units=3)
    with pytest.raises(NotFittedError):
        model.predict(np.zeros((3, 2)))


def test_seq2seq_parameter_count_matches_layer_sizes():
    model = Seq2SeqModel(input_dim=6, encoder_units=200, decoder_units=30, seed=0)
    # Encoder: 4*200*(6+200+1); decoder: 4*30*(200+30+1); head: 30*6+6.
    expected = 4 * 200 * (6 + 200 + 1) + 4 * 30 * (200 + 30 + 1) + 30 * 6 + 6
    assert model.n_parameters == expected


def test_seq2seq_fit_validates_shapes():
    model = Seq2SeqModel(input_dim=2, encoder_units=4, decoder_units=3)
    with pytest.raises(DimensionError):
        model.fit(np.zeros((10, 4, 3)), np.zeros((10, 2)))
    with pytest.raises(DimensionError):
        model.fit(np.zeros((10, 4, 2)), np.zeros((9, 2)))
