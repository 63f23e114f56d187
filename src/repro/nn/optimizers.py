"""Gradient-descent optimisers.

:class:`Adam` implements the update rule quoted in the paper (eqs. 11–13):
first- and second-moment estimates of the gradient with bias correction and
an ``ε``-regularised step.  Parameters are handled as named dictionaries of
arrays so layers can register arbitrarily shaped weights.
"""

from __future__ import annotations

import abc

import numpy as np

from .._validation import ensure_positive
from ..errors import ConfigurationError


class Optimizer(abc.ABC):
    """Interface of a stateful gradient-descent optimiser."""

    @abc.abstractmethod
    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Update ``params`` in place using ``grads`` (same keys, same shapes)."""


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba) with the paper's default hyper-parameters.

    The paper uses the standard selection ``η = 0.001``, ``β1 = 0.9``,
    ``β2 = 0.999``, ``ε = 1e-07`` (§VI-B).
    """

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-7,
        clip_norm: float | None = 5.0,
    ) -> None:
        self.learning_rate = ensure_positive("learning_rate", learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ConfigurationError("beta1 and beta2 must lie in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = ensure_positive("epsilon", epsilon)
        self.clip_norm = clip_norm
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self._t += 1
        if self.clip_norm is not None:
            grads = _clip_global_norm(grads, self.clip_norm)
        for name, grad in grads.items():
            if name not in params:
                raise ConfigurationError(f"gradient provided for unknown parameter {name!r}")
            m = self._m.get(name, np.zeros_like(params[name]))
            v = self._v.get(name, np.zeros_like(params[name]))
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad ** 2
            m_hat = m / (1.0 - self.beta1 ** self._t)
            v_hat = v / (1.0 - self.beta2 ** self._t)
            params[name] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
            self._m[name] = m
            self._v[name] = v


def _clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    """Scale all gradients so their joint L2 norm is at most ``max_norm``.

    Gradient clipping keeps the BPTT training of the LSTM numerically stable,
    especially with the ReLU output activation the paper specifies.
    """
    total = float(np.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values())))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {name: g * scale for name, g in grads.items()}
