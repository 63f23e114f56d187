"""Neural-network substrate (NumPy only).

The paper's seq2seq forecaster is a TensorFlow LSTM encoder–decoder; since no
deep-learning framework is available offline, this package implements the
required pieces from scratch on NumPy:

* :mod:`repro.nn.activations` — sigmoid / tanh / ReLU / identity with
  derivatives.
* :mod:`repro.nn.losses` — mean-squared-error loss with gradient.
* :mod:`repro.nn.optimizers` — Adam (paper eqs. 11–13).
* :mod:`repro.nn.layers` — fully-connected layer and an LSTM layer with full
  backpropagation-through-time.
* :mod:`repro.nn.seq2seq` — the many-to-one encoder–decoder model used by
  :class:`repro.forecasting.seq2seq.Seq2SeqForecaster`.
"""

from .activations import Activation, Identity, Relu, Sigmoid, Tanh, get_activation
from .layers import Dense, LstmLayer
from .losses import MeanSquaredError
from .optimizers import Adam
from .seq2seq import Seq2SeqModel, Seq2SeqTrainingResult

__all__ = [
    "Activation",
    "Identity",
    "Relu",
    "Sigmoid",
    "Tanh",
    "get_activation",
    "Dense",
    "LstmLayer",
    "MeanSquaredError",
    "Adam",
    "Seq2SeqModel",
    "Seq2SeqTrainingResult",
]
