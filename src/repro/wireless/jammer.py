"""Bursty jammer model for the experimental-evaluation reproduction.

The paper's second experimental scenario (§VI-D2, Fig. 10) uses a 2.4 GHz
Silvercrest wireless transmitter as a jammer: while it emits, commands on the
802.11 channel are delayed unpredictably or lost in bursts; when it goes
quiet, the channel recovers and the robot's PID controller needs a few
hundred milliseconds to settle back onto the defined trajectory.

We reproduce that behaviour with a Gilbert–Elliott style two-state Markov
model: the channel alternates between a *good* state (commands experience only
the nominal 802.11 delay and a small residual loss rate) and a *jammed* state
(commands are lost with high probability and surviving ones are heavily
delayed).  State holding times are geometric, giving exactly the correlated
loss bursts observed with a real jammer.

:meth:`GilbertElliottJammer.sample_trace` draws its randomness in fixed block
order (state-transition uniforms, then loss uniforms, then delay variates),
which makes it the bit-equality oracle for
:func:`sample_jammer_delays_batch` — the vectorized path that advances ``B``
independent jammer realisations in lockstep ``(B, n)`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import ensure_positive, ensure_probability, rng_from
from ..errors import ChannelError
from .channel import CommandDelayTrace, trace_from_delays


@dataclass
class JammerConfig:
    """Configuration of the Gilbert–Elliott jammer.

    Attributes
    ----------
    p_good_to_jammed:
        Per-command probability of the channel entering the jammed state.
    p_jammed_to_good:
        Per-command probability of the jammer going quiet again.
    loss_probability_good:
        Residual command-loss probability while the channel is good.
    loss_probability_jammed:
        Command-loss probability while the jammer is active.
    delay_good_ms / delay_jammed_ms:
        Mean command delay (exponentially distributed) in each state.
    """

    p_good_to_jammed: float = 0.04
    p_jammed_to_good: float = 0.08
    loss_probability_good: float = 0.01
    loss_probability_jammed: float = 0.85
    delay_good_ms: float = 2.0
    delay_jammed_ms: float = 40.0

    def __post_init__(self) -> None:
        ensure_probability("p_good_to_jammed", self.p_good_to_jammed)
        ensure_probability("p_jammed_to_good", self.p_jammed_to_good)
        ensure_probability("loss_probability_good", self.loss_probability_good)
        ensure_probability("loss_probability_jammed", self.loss_probability_jammed)
        ensure_positive("delay_good_ms", self.delay_good_ms)
        ensure_positive("delay_jammed_ms", self.delay_jammed_ms)

    def stationary_jammed_fraction(self) -> float:
        """Long-run fraction of commands sent while the jammer is active."""
        total = self.p_good_to_jammed + self.p_jammed_to_good
        if total == 0:
            return 0.0
        return self.p_good_to_jammed / total

    def mean_burst_length(self) -> float:
        """Expected number of consecutive commands affected by one jam burst."""
        if self.p_jammed_to_good == 0:
            raise ChannelError("p_jammed_to_good = 0 gives infinite burst length")
        return 1.0 / self.p_jammed_to_good


class GilbertElliottJammer:
    """Two-state bursty loss/delay channel driven by a jammer.

    The object is stateful: successive calls to :meth:`sample_trace` continue
    the Markov chain, so several experiment repetitions can share one jammer
    realisation when desired.  Call :meth:`reset` to return to the good state.
    """

    GOOD = 0
    JAMMED = 1

    def __init__(
        self,
        config: JammerConfig | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.config = config if config is not None else JammerConfig()
        self.rng = rng_from(seed)
        self.state = self.GOOD

    def reset(self) -> None:
        """Force the channel back into the good state."""
        self.state = self.GOOD

    def _scan_states(self, step_uniforms: np.ndarray) -> np.ndarray:
        """Advance the two-state chain through pre-drawn transition uniforms."""
        config = self.config
        states = np.empty(step_uniforms.size, dtype=np.int8)
        state = self.state
        for index, uniform in enumerate(step_uniforms):
            if state == self.GOOD:
                if uniform < config.p_good_to_jammed:
                    state = self.JAMMED
            elif uniform < config.p_jammed_to_good:
                state = self.GOOD
            states[index] = state
        return states

    def sample_delays(self, n_commands: int) -> np.ndarray:
        """Per-command delays (ms, ``inf`` = lost) for ``n_commands`` commands.

        Randomness is consumed in fixed block order — transition uniforms,
        loss uniforms, then one delay variate per command (drawn for lost
        commands too, so the stream shape never depends on outcomes).  This
        is the serial reference for :func:`sample_jammer_delays_batch`.
        """
        if n_commands <= 0:
            raise ChannelError("n_commands must be positive")
        n_commands = int(n_commands)
        config = self.config
        step_uniforms = self.rng.random(n_commands)
        states = self._scan_states(step_uniforms)
        self.state = int(states[-1])
        loss_probability = np.where(
            states == self.JAMMED, config.loss_probability_jammed, config.loss_probability_good
        )
        mean_delay = np.where(
            states == self.JAMMED, config.delay_jammed_ms, config.delay_good_ms
        )
        lost = self.rng.random(n_commands) < loss_probability
        delays = self.rng.exponential(mean_delay)
        return np.where(lost, np.inf, delays)

    def sample_trace(self, n_commands: int) -> CommandDelayTrace:
        """Sample the fate of ``n_commands`` consecutive commands."""
        return trace_from_delays(self.sample_delays(n_commands))

    def jammed_mask(self, n_commands: int) -> np.ndarray:
        """Simulate the state chain only, returning a boolean jammed mask.

        Useful for experiments that need to know *when* the jammer was active
        (e.g. to annotate the Fig. 10 reproduction) without drawing delays.
        """
        n_commands = int(n_commands)
        states = self._scan_states(self.rng.random(n_commands))
        self.state = int(states[-1])
        return states == self.JAMMED


def sample_jammer_delays_batch(
    config: JammerConfig | None, n_commands: int, seeds
) -> np.ndarray:
    """``(B, n)`` jammer delays for ``B`` independent realisations.

    Row ``b`` is bit-identical to
    ``GilbertElliottJammer(config, seed=seeds[b]).sample_delays(n_commands)``:
    each row consumes its own RNG stream in the same block order, while the
    two-state chains of all rows advance in lockstep ``(B,)`` vector steps.
    """
    if n_commands <= 0:
        raise ChannelError("n_commands must be positive")
    n_commands = int(n_commands)
    config = config if config is not None else JammerConfig()
    seeds = list(seeds)
    if not seeds:
        raise ChannelError("sample_jammer_delays_batch needs at least one seed")
    rngs = [rng_from(seed) for seed in seeds]
    batch = len(rngs)
    step_uniforms = np.stack([rng.random(n_commands) for rng in rngs])

    states = np.empty((batch, n_commands), dtype=np.int8)
    state = np.full(batch, GilbertElliottJammer.GOOD, dtype=np.int8)
    jammed = np.int8(GilbertElliottJammer.JAMMED)
    good = np.int8(GilbertElliottJammer.GOOD)
    for index in range(n_commands):
        uniform = step_uniforms[:, index]
        go_jammed = (state == good) & (uniform < config.p_good_to_jammed)
        go_good = (state == jammed) & (uniform < config.p_jammed_to_good)
        state = np.where(go_jammed, jammed, np.where(go_good, good, state))
        states[:, index] = state

    loss_probability = np.where(
        states == jammed, config.loss_probability_jammed, config.loss_probability_good
    )
    mean_delay = np.where(states == jammed, config.delay_jammed_ms, config.delay_good_ms)
    delays = np.empty((batch, n_commands))
    for row, rng in enumerate(rngs):
        lost = rng.random(n_commands) < loss_probability[row]
        variates = rng.exponential(mean_delay[row])
        delays[row] = np.where(lost, np.inf, variates)
    return delays
