"""Controlled loss injectors for the Fig. 9 experiments.

The paper's first experimental analysis (§VI-D1) does not use the jammer;
instead the remote controller *deliberately* drops bursts of 5, 10 or 25
consecutive control commands at random points of the 30-second run, so the
effect of FoReCo can be studied under controlled, repeatable conditions.

This module provides three injectors with a common interface
(:meth:`LossPattern.lost_mask` returns a boolean array marking which command
indices are lost):

* :class:`ConsecutiveLossInjector` — drops bursts of a fixed length at
  randomly chosen start indices (the paper's controlled experiment).
* :class:`PeriodicLossInjector` — drops a burst every ``period`` commands
  (deterministic variant used in tests and ablations).
* :class:`RandomLossInjector` — i.i.d. Bernoulli losses (a memoryless
  baseline for comparison in ablation benches).

Every injector also exposes :meth:`LossPattern.lost_mask_batch`, which stacks
``B`` independent realisations (one per seed) into a ``(B, n)`` mask without
touching the injector's own RNG — row ``b`` is bit-identical to what a fresh
injector seeded with ``seeds[b]`` would produce.
"""

from __future__ import annotations

import abc
from functools import cached_property

import numpy as np

from .._validation import ensure_int, ensure_probability, rng_from
from ..errors import ConfigurationError
from .channel import ChannelSample, CommandDelayTrace


class LossPattern(abc.ABC):
    """Common interface of controlled loss injectors."""

    _seed: int | np.random.Generator | None = None

    @cached_property
    def rng(self) -> np.random.Generator:
        """The injector's own stream, built on first use (:meth:`lost_mask_batch` never reads it)."""
        return rng_from(self._seed)

    @abc.abstractmethod
    def _lost_mask(self, rng: np.random.Generator, n_commands: int) -> np.ndarray:
        """Draw one loss-mask realisation from ``rng``."""

    def lost_mask(self, n_commands: int) -> np.ndarray:
        """Boolean array of length ``n_commands``; True marks a lost command."""
        return self._lost_mask(self.rng, n_commands)

    def lost_mask_batch(self, n_commands: int, seeds) -> np.ndarray:
        """``(B, n)`` stacked loss masks, one independent realisation per seed.

        The injector's own RNG is left untouched; row ``b`` equals the mask a
        fresh injector constructed with ``seed=seeds[b]`` would draw.
        """
        seeds = list(seeds)
        if not seeds:
            raise ConfigurationError("lost_mask_batch needs at least one seed")
        return self._lost_masks([rng_from(seed) for seed in seeds], n_commands)

    def _lost_masks(self, rngs: list[np.random.Generator], n_commands: int) -> np.ndarray:
        """``(B, n)``: one :meth:`_lost_mask` realisation per generator, stacked."""
        return np.stack([self._lost_mask(rng, n_commands) for rng in rngs])

    def to_delays(self, n_commands: int, nominal_delay_ms: float = 1.0) -> np.ndarray:
        """Per-command delay array: ``nominal_delay_ms`` or ``inf`` when lost."""
        mask = self.lost_mask(n_commands)
        return np.where(mask, np.inf, float(nominal_delay_ms))

    def to_trace(self, n_commands: int, nominal_delay_ms: float = 1.0) -> CommandDelayTrace:
        """Convert the loss mask into a :class:`CommandDelayTrace`.

        Delivered commands get a constant ``nominal_delay_ms`` delay (the
        controlled experiments run on an otherwise healthy channel).
        """
        mask = self.lost_mask(n_commands)
        trace = CommandDelayTrace()
        for index, lost in enumerate(mask):
            if lost:
                trace.samples.append(ChannelSample(index=index, delay_ms=float("inf"), lost=True))
            else:
                trace.samples.append(ChannelSample(index=index, delay_ms=nominal_delay_ms, lost=False))
        return trace


class ConsecutiveLossInjector(LossPattern):
    """Random bursts of ``burst_length`` consecutive lost commands.

    Parameters
    ----------
    burst_length:
        Number of consecutive commands dropped per burst (5 / 10 / 25 in the
        paper).
    n_bursts:
        How many bursts to inject over the run.
    min_gap:
        Minimum number of delivered commands between two bursts, so that
        FoReCo has genuine history to forecast from after each burst.
    seed:
        RNG seed for reproducible burst placement.
    """

    def __init__(
        self,
        burst_length: int,
        n_bursts: int = 3,
        min_gap: int = 50,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.burst_length = ensure_int("burst_length", burst_length, minimum=1)
        self.n_bursts = ensure_int("n_bursts", n_bursts, minimum=1)
        self.min_gap = ensure_int("min_gap", min_gap, minimum=0)
        self._seed = seed

    def _lost_mask(self, rng: np.random.Generator, n_commands: int) -> np.ndarray:
        return self._lost_masks([rng], n_commands)[0]

    def _lost_masks(self, rngs: list[np.random.Generator], n_commands: int) -> np.ndarray:
        """Each row draws its slacks from its own generator; all bursts are placed at once.

        Bursts go left-to-right with random slack so they never overlap: burst
        ``k`` starts after the first ``k + 1`` slacks, half a gap and ``k``
        bursts with their gaps.  The clamp never binds (the last start is at
        most ``n - burst_length - ceil(min_gap / 2)``).
        """
        n_commands = ensure_int("n_commands", n_commands, minimum=1)
        required = self.n_bursts * (self.burst_length + self.min_gap)
        if required > n_commands:
            raise ConfigurationError(
                f"cannot place {self.n_bursts} bursts of {self.burst_length} lost commands "
                f"with gap {self.min_gap} in only {n_commands} commands"
            )
        shares = np.ones(self.n_bursts + 1) / (self.n_bursts + 1)
        slacks = np.stack([rng.multinomial(n_commands - required, shares) for rng in rngs])
        stride = self.burst_length + self.min_gap
        starts = np.cumsum(slacks[:, :-1], axis=1) + self.min_gap // 2 + stride * np.arange(self.n_bursts)
        starts = np.minimum(starts, n_commands - self.burst_length)
        mask = np.zeros((len(rngs), n_commands), dtype=bool)
        rows = np.arange(len(rngs))[:, None, None]
        mask[rows, starts[:, :, None] + np.arange(self.burst_length)] = True
        return mask


class PeriodicLossInjector(LossPattern):
    """Deterministic injector: a burst of losses every ``period`` commands."""

    def __init__(self, burst_length: int, period: int, offset: int = 0) -> None:
        self.burst_length = ensure_int("burst_length", burst_length, minimum=1)
        self.period = ensure_int("period", period, minimum=1)
        self.offset = ensure_int("offset", offset, minimum=0)
        if self.burst_length >= self.period:
            raise ConfigurationError("burst_length must be smaller than period")

    def _lost_mask(self, rng: np.random.Generator, n_commands: int) -> np.ndarray:
        n_commands = ensure_int("n_commands", n_commands, minimum=1)
        mask = np.zeros(n_commands, dtype=bool)
        start = self.offset
        while start < n_commands:
            mask[start : min(n_commands, start + self.burst_length)] = True
            start += self.period
        return mask


class RandomLossInjector(LossPattern):
    """Memoryless i.i.d. Bernoulli loss injector (ablation baseline)."""

    def __init__(self, loss_probability: float, seed: int | np.random.Generator | None = None) -> None:
        self.loss_probability = ensure_probability("loss_probability", loss_probability)
        self._seed = seed

    def _lost_mask(self, rng: np.random.Generator, n_commands: int) -> np.ndarray:
        n_commands = ensure_int("n_commands", n_commands, minimum=1)
        return rng.random(n_commands) < self.loss_probability
