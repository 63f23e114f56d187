"""IEEE 802.11 wireless substrate with electromagnetic interference.

This package reproduces the modelling chain the paper relies on (§V):

* :mod:`repro.wireless.bianchi` — Bianchi's DCF fixed point extended with a
  non-802.11 interference source (active with probability ``p_if`` for
  ``T_if`` slots), following Bosch et al. [7].
* :mod:`repro.wireless.delay_model` — the retransmission distribution ``a_j``,
  the per-retransmission mean delays ``E_j[Δ_W]`` and the hyper-exponential
  service distribution used by the G/HEXP/1/Q access-point queue, plus the
  theoretical results from the paper's Appendix (bounded-on-average delay,
  divergence, causality violation).
* :mod:`repro.wireless.channel` — per-command wireless delay/loss sampler
  (queue simulation or direct sampling) used by the simulation experiments.
* :mod:`repro.wireless.jammer` — a Gilbert–Elliott style bursty jammer used
  for the experimental-evaluation reproduction (Fig. 10).
* :mod:`repro.wireless.lossgen` — deterministic consecutive-loss injector for
  the controlled experiments (Fig. 9).
* :mod:`repro.wireless.markov` — time-varying channel models beyond the
  paper's single-cause scenarios: ``K``-state Markov-modulated delay/loss
  regimes (superposable heterogeneous interference) and a periodic AP
  handover profile.
* :mod:`repro.wireless.superposition` — the analytic Gaussian/heavy-tail
  superposition limit for the aggregate air-time demand of lightly loaded
  APs, used (with :func:`repro.wireless.bianchi.saturation_score` as the
  hot/cold classifier) by the fleet layer's hybrid simulation tier.

Every stochastic sampler ships a serial reference path plus a ``(B, n)``
batched path that is bit-identical to per-seed serial sampling (the
channel-layer randomness contract used by the scenario engine).
"""

from .bianchi import DcfModel, DcfParameters, DcfSolution, InterferenceSource, saturation_score
from .channel import (
    ChannelSample,
    CommandDelayTrace,
    WirelessChannel,
    sample_wireless_delays_batch,
    trace_from_delays,
)
from .delay_model import (
    Ieee80211DelayModel,
    RetransmissionDistribution,
    causality_violation_probability,
    expected_delay_bound,
)
from .jammer import GilbertElliottJammer, JammerConfig, sample_jammer_delays_batch
from .lossgen import ConsecutiveLossInjector, LossPattern, PeriodicLossInjector, RandomLossInjector
from .markov import (
    HandoverChannel,
    HandoverConfig,
    MarkovChannelConfig,
    MarkovModulatedChannel,
    sample_handover_delays_batch,
    sample_markov_delays_batch,
)
from .superposition import TAIL_KIND_SUMMARIES, TAIL_KINDS, SuperpositionModel

__all__ = [
    "DcfModel",
    "DcfParameters",
    "DcfSolution",
    "InterferenceSource",
    "saturation_score",
    "SuperpositionModel",
    "TAIL_KIND_SUMMARIES",
    "TAIL_KINDS",
    "ChannelSample",
    "CommandDelayTrace",
    "WirelessChannel",
    "sample_wireless_delays_batch",
    "trace_from_delays",
    "Ieee80211DelayModel",
    "RetransmissionDistribution",
    "causality_violation_probability",
    "expected_delay_bound",
    "GilbertElliottJammer",
    "JammerConfig",
    "sample_jammer_delays_batch",
    "ConsecutiveLossInjector",
    "LossPattern",
    "PeriodicLossInjector",
    "RandomLossInjector",
    "HandoverChannel",
    "HandoverConfig",
    "MarkovChannelConfig",
    "MarkovModulatedChannel",
    "sample_handover_delays_batch",
    "sample_markov_delays_batch",
]
