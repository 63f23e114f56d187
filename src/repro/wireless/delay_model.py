"""Retransmission and delay distribution of commands on the 802.11 link.

Starting from the DCF solution (:class:`repro.wireless.bianchi.DcfSolution`)
this module derives the quantities the paper uses throughout §V and the
Appendix:

* ``a_j`` — the steady-state probability that a frame is delivered after
  exactly ``j`` unsuccessful retransmissions (``j = 0 .. m+1``), and
  ``a_{m+2}`` — the probability that the frame is discarded because the
  retransmission limit is exceeded,
* ``E_j[Δ_W]`` — the mean wireless delay of a frame delivered after ``j``
  retransmissions (paper eq. 20):

  .. math::

      E_j[\\Delta_W] = T_s + j\\,T_{col}
          + \\tilde\\sigma \\sum_{k=0}^{j} \\frac{W_k - 1}{2}

* the hyper-exponential service distribution of the G/HEXP/1/Q queue whose
  phase ``j`` has probability ``a_j / (1 - a_{m+2})`` and rate
  ``1 / E_j[Δ_W]``,
* the Appendix results: the average-delay bound of Lemma 1, the divergence
  probability of Corollary 1 and the causality-assumption violation of
  Lemma 2 / Corollary 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..des.distributions import HyperExponential
from ..errors import ChannelError
from .bianchi import DcfModel, DcfParameters, DcfSolution


@dataclass
class RetransmissionDistribution:
    """Distribution of the number of retransmissions of one frame.

    Attributes
    ----------
    probabilities:
        Array ``a_0 .. a_{m+1}`` of delivery-after-``j``-retransmission
        probabilities.  They sum to ``1 - loss_probability``.
    loss_probability:
        ``a_{m+2}``: probability the frame is dropped after exhausting the
        retry limit.
    """

    probabilities: np.ndarray
    loss_probability: float

    def __post_init__(self) -> None:
        self.probabilities = np.asarray(self.probabilities, dtype=float)
        total = self.probabilities.sum() + self.loss_probability
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ChannelError(f"retransmission probabilities must sum to 1, got {total}")

    @property
    def max_retransmissions(self) -> int:
        """Largest number of retransmissions after which delivery can occur."""
        return self.probabilities.size - 1

    def delivery_probability(self) -> float:
        """Probability the frame is eventually delivered (``1 - a_{m+2}``)."""
        return float(self.probabilities.sum())

    def conditional_probabilities(self) -> np.ndarray:
        """``a_j`` renormalised over delivered frames (phase weights)."""
        delivered = self.delivery_probability()
        if delivered <= 0:
            raise ChannelError("frame is never delivered; conditional distribution undefined")
        return self.probabilities / delivered

    def mean_retransmissions(self) -> float:
        """Expected number of retransmissions of a delivered frame."""
        j = np.arange(self.probabilities.size)
        return float(np.sum(j * self.conditional_probabilities()))


class Ieee80211DelayModel:
    """Per-command wireless delay model for an interference-prone 802.11 link.

    Parameters
    ----------
    params:
        MAC/PHY parameters, number of contending stations (robots) and the
        interference source.

    The model solves the DCF fixed point once at construction and exposes the
    derived retransmission distribution, per-retransmission delays and the
    hyper-exponential queue service distribution.
    """

    def __init__(self, params: DcfParameters) -> None:
        self.params = params
        self.solution: DcfSolution = DcfModel(params).solve()
        self._retx = self._build_retransmission_distribution()
        self._delays_ms = self._per_retransmission_delays_ms()

    # --------------------------------------------------------- distributions
    def _build_retransmission_distribution(self) -> RetransmissionDistribution:
        p = self.solution.failure_probability
        max_retries = self.params.retry_limit
        # A frame delivered after j failed attempts occurs w.p. p^j (1 - p);
        # exceeding the limit (j = max_retries + 1 attempts all failed) loses it.
        js = np.arange(max_retries + 1)
        probs = (p ** js) * (1.0 - p)
        loss = p ** (max_retries + 1)
        return RetransmissionDistribution(probabilities=probs, loss_probability=float(loss))

    def _per_retransmission_delays_ms(self) -> np.ndarray:
        """``E_j[Δ_W]`` in milliseconds for ``j = 0 .. retry_limit``."""
        params = self.params
        sigma_us = self.solution.mean_slot_time_us
        t_s = params.transmission_time_us()
        t_col = params.collision_time_us()
        delays_us = []
        for j in range(params.retry_limit + 1):
            backoff_slots = sum(
                (params.contention_window(k) - 1) / 2.0 for k in range(j + 1)
            )
            delays_us.append(t_s + j * t_col + sigma_us * backoff_slots)
        return np.asarray(delays_us) / 1000.0

    @property
    def retransmission_distribution(self) -> RetransmissionDistribution:
        """Steady-state distribution of per-frame retransmission counts."""
        return self._retx

    @property
    def per_retransmission_delays_ms(self) -> np.ndarray:
        """Mean delay ``E_j[Δ_W]`` (ms) of a frame delivered after ``j`` RTX."""
        return self._delays_ms.copy()

    @property
    def loss_probability(self) -> float:
        """Probability ``a_{m+2}`` that a command is lost on the air."""
        return self._retx.loss_probability

    def mean_delay_ms(self) -> float:
        """Mean wireless delay of a *delivered* command (paper eq. 16 rescaled)."""
        cond = self._retx.conditional_probabilities()
        return float(np.sum(cond * self._delays_ms))

    def service_distribution(self) -> HyperExponential:
        """Hyper-exponential service distribution of the G/HEXP/1/Q queue.

        One instance per model, built on the first call (a model whose frames
        are never delivered has none, and still constructs) and returned by
        every later one; its arrays are read-only, so sharing it is safe.
        """
        return self._service

    @cached_property
    def _service(self) -> HyperExponential:
        cond = self._retx.conditional_probabilities()
        return HyperExponential(probs=cond, rates=1.0 / self._delays_ms)

    # ------------------------------------------------------------- appendix
    def expected_delay_bound_ms(self, transport_bound_ms: float = 0.0) -> float:
        """Lemma 1: bound on ``E[Δ(c_i)]`` conditioned on the command not being lost.

        ``D + (1 / (1 - a_{m+2})) * Σ_j a_j E_j[Δ_W]``.
        """
        delivered = self._retx.delivery_probability()
        weighted = float(np.sum(self._retx.probabilities * self._delays_ms))
        return transport_bound_ms + weighted / delivered

    def divergence_probability(self) -> float:
        """Corollary 1: ``P(Δ(c_i) > K, ∀K) = a_{m+2} > 0`` under interference."""
        return self.loss_probability

    def causality_holds_probability(self) -> float:
        """Lemma 2: the causality assumption only holds w.p. ``Σ_j a_j²``."""
        return float(np.sum(self._retx.probabilities ** 2))


def expected_delay_bound(model: Ieee80211DelayModel, transport_bound_ms: float = 0.0) -> float:
    """Module-level convenience wrapper around :meth:`Ieee80211DelayModel.expected_delay_bound_ms`."""
    return model.expected_delay_bound_ms(transport_bound_ms)


def causality_violation_probability(model: Ieee80211DelayModel) -> float:
    """Probability that the causality assumption (paper eq. 18) is violated."""
    return 1.0 - model.causality_holds_probability()
