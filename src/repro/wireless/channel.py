"""Per-command wireless channel sampler used by the simulation experiments.

The simulation evaluation (§VI-C) replays an operator's command stream and
needs, for every command ``c_i``, the wireless delay ``Δ_W(c_i)`` it would
experience on an interference-prone 802.11 link shared by ``n`` robots.
:class:`WirelessChannel` produces those delays by combining two effects, both
parameterised from the paper's sweep (number of robots, interference
probability ``p_if``, interference duration ``T_if``):

1. **Contention**: per-frame service times are drawn from the
   hyper-exponential distribution implied by the Bianchi DCF solution for
   ``n`` contending stations (:mod:`repro.wireless.delay_model`).  More robots
   sharing the medium means more collisions, longer retransmission chains and
   a larger residual air-loss probability.

2. **Electromagnetic interference**: the non-802.11 source is an ON/OFF
   process in continuous time.  It starts emitting with probability ``p_if``
   per MAC transmission slot and then occupies the medium for ``T_if``
   transmission slots.  While it is ON the access point cannot transmit, so
   commands queue up behind the interferer (the G/HEXP/1/Q buffer of the
   paper); when it turns OFF the backlog drains at the contention-limited
   service rate.  Commands whose transmission overlaps a burst additionally
   risk exhausting the 802.11 retry limit and being dropped.

The resulting per-command end-to-end delay therefore exhibits exactly the
behaviours the paper's analytical model predicts: it is bounded only on
average, it diverges for lost commands, and consecutive commands can see
wildly different delays (causality violation) whenever a burst begins or ends.
The output is a :class:`CommandDelayTrace`, a light container the recovery
engine and the driver consume.

Sampling comes in two flavours with one randomness contract:

* :meth:`WirelessChannel.sample_trace` — the serial reference path, one
  repetition at a time.  It is the bit-equality oracle for the batched path.
* :func:`sample_wireless_delays_batch` — ``B`` rows advanced in lockstep
  ``(B, n)`` NumPy arrays (one Python iteration per command instead of one
  per command per row).  Row ``b`` consumes the RNG stream of ``seeds[b]``
  through its own channel exactly as the serial path would, and the queue
  recursion is the same Lindley-style ``start = max(arrival, server_free)``
  update applied elementwise, so the stacked result is bit-identical to
  ``B`` serial runs.  The rows may come from different channels (a sweep
  stacks every cell of a grid into one pass);
  :meth:`WirelessChannel.sample_delays_batch` is the one-channel case.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .._validation import ensure_int, ensure_positive, ensure_probability, rng_from
from ..des.jackson import TransportNetworkModel
from ..errors import ConfigurationError
from .bianchi import DcfParameters, InterferenceSource
from .delay_model import Ieee80211DelayModel


@dataclass
class ChannelSample:
    """Delay outcome of a single command on the wireless channel."""

    index: int
    delay_ms: float
    lost: bool

    @property
    def delivered(self) -> bool:
        """True if the command eventually reached the robot."""
        return not self.lost and np.isfinite(self.delay_ms)


@dataclass
class CommandDelayTrace:
    """Sequence of per-command delays produced by a channel simulation."""

    samples: list[ChannelSample] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def delays(self) -> np.ndarray:
        """Per-command delays in ms (``inf`` for lost commands)."""
        return np.array([s.delay_ms for s in self.samples])

    def loss_rate(self) -> float:
        """Fraction of commands that never reached the robot."""
        if not self.samples:
            return 0.0
        return sum(1 for s in self.samples if s.lost) / len(self.samples)

    def late_rate(self, tolerance_ms: float) -> float:
        """Fraction of commands with ``Δ(c_i) > τ`` (lost commands included)."""
        if not self.samples:
            return 0.0
        late = sum(1 for s in self.samples if s.lost or s.delay_ms > tolerance_ms)
        return late / len(self.samples)

    def mean_delivered_delay(self) -> float:
        """Mean delay over delivered commands only."""
        delivered = [s.delay_ms for s in self.samples if s.delivered]
        if not delivered:
            return float("nan")
        return float(np.mean(delivered))

    def longest_outage(self, tolerance_ms: float) -> int:
        """Longest run of consecutive late/lost commands."""
        longest = current = 0
        for sample in self.samples:
            if sample.lost or sample.delay_ms > tolerance_ms:
                current += 1
                longest = max(longest, current)
            else:
                current = 0
        return longest


def trace_from_delays(delays: np.ndarray) -> CommandDelayTrace:
    """Wrap a per-command delay array (``inf`` = lost) in a trace container."""
    trace = CommandDelayTrace()
    for index, delay in enumerate(delays):
        lost = bool(np.isinf(delay))
        trace.samples.append(
            ChannelSample(index=index, delay_ms=float(delay), lost=lost)
        )
    return trace


class WirelessChannel:
    """End-to-end command delay sampler for an 802.11 link with interference.

    Parameters
    ----------
    n_robots:
        Number of robots (802.11 stations) sharing the wireless medium.
    interference:
        The non-802.11 interference source configuration (``p_if``, ``T_if``).
    command_period_ms:
        Command inter-arrival time Ω in milliseconds (paper: 20 ms).
    queue_capacity:
        Access-point buffer size ``Q`` of the G/HEXP/1/Q model: an arriving
        command that finds ``Q`` commands in the system is dropped.
    transport:
        Optional transport-network model; ``None`` means the negligible
        transport delay assumed in §VI-C (``D ≈ 0``).
    transmission_slot_ms:
        Duration of one interference "transmission slot" in milliseconds: the
        interferer occupies ``T_if`` of these once it fires.  The default
        (1.5 ms ≈ the airtime of one command frame plus contention overhead
        under load) maps the paper's sweep of 10–100 slots onto 15–150 ms
        bursts.  The interferer gets one firing opportunity per command
        period, taken with probability ``p_if``.
    interference_block_probability:
        Probability that a frame transmitted while the interferer is ON is
        actually blocked by it (and must wait the burst out).  Values below
        one model PHY capture and the narrowband nature of the jammer: short
        command frames sometimes get through between interference pulses.
    interference_loss_probability:
        Probability that a command whose transmission was blocked by an
        interference burst exhausts the 802.11 retry limit and is dropped.
    dcf_params:
        Optional full DCF parameter set for the contention model.  The object
        is copied — its station count and interference term are overridden on
        the copy, never on the caller's instance — so one parameter set can
        safely configure several channels.
    seed:
        RNG seed for reproducible traces.
    """

    def __init__(
        self,
        n_robots: int = 5,
        interference: InterferenceSource | None = None,
        command_period_ms: float = 20.0,
        queue_capacity: int = 50,
        transport: TransportNetworkModel | None = None,
        transmission_slot_ms: float = 1.5,
        interference_block_probability: float = 1.0,
        interference_loss_probability: float = 0.6,
        dcf_params: DcfParameters | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        n_robots = ensure_int("n_robots", n_robots, minimum=1)
        self.command_period_ms = ensure_positive("command_period_ms", command_period_ms)
        self.queue_capacity = ensure_int("queue_capacity", queue_capacity, minimum=1)
        self.transmission_slot_ms = ensure_positive("transmission_slot_ms", transmission_slot_ms)
        self.interference_block_probability = ensure_probability(
            "interference_block_probability", interference_block_probability
        )
        self.interference_loss_probability = ensure_probability(
            "interference_loss_probability", interference_loss_probability
        )
        self.interference = interference if interference is not None else InterferenceSource()
        self.transport = transport
        self.rng = rng_from(seed)

        # Contention model: Bianchi DCF for n stations, no interference term
        # (interference is realised in the time domain below).  The caller's
        # dcf_params is copied, not mutated.
        base_params = dcf_params if dcf_params is not None else DcfParameters()
        contention_params = replace(
            base_params, n_stations=n_robots, interference=InterferenceSource()
        )
        self.params = contention_params
        self.contention_model = Ieee80211DelayModel(contention_params)

        # Interference-aware analytical model (used for the Appendix results
        # and the analytical late-probability estimate).
        analytic_params = replace(contention_params, interference=self.interference)
        self.delay_model = Ieee80211DelayModel(analytic_params)

    # --------------------------------------------------------------- bursts
    def burst_duration_ms(self) -> float:
        """Continuous-time duration of one interference burst."""
        if not self.interference.is_active:
            return 0.0
        return self.interference.duration_slots * self.transmission_slot_ms

    def mean_gap_ms(self) -> float:
        """Mean idle time between consecutive interference bursts.

        The interferer gets one firing opportunity per command period and
        takes it with probability ``p_if``, so the mean quiet gap is
        ``Ω / p_if`` milliseconds.
        """
        if not self.interference.is_active:
            return float("inf")
        return self.command_period_ms / self.interference.probability

    def interference_duty_cycle(self) -> float:
        """Long-run fraction of time the interferer occupies the medium."""
        if not self.interference.is_active:
            return 0.0
        on = self.burst_duration_ms()
        return on / (on + self.mean_gap_ms())

    def _interference_intervals(
        self, horizon_ms: float, rng: np.random.Generator | None = None
    ) -> list[tuple[float, float]]:
        """Sample the ON intervals of the interferer over ``[0, horizon_ms]``."""
        rng = self.rng if rng is None else rng
        intervals: list[tuple[float, float]] = []
        if not self.interference.is_active:
            return intervals
        on = self.burst_duration_ms()
        gap_mean = self.mean_gap_ms()
        t = float(rng.exponential(gap_mean))
        while t < horizon_ms:
            intervals.append((t, t + on))
            t += on + float(rng.exponential(gap_mean))
        return intervals

    # ------------------------------------------------------------ sampling
    def sample_trace(self, n_commands: int, use_queue: bool = True) -> CommandDelayTrace:
        """Produce the end-to-end delay of ``n_commands`` consecutive commands.

        With ``use_queue=True`` (default, matching the paper) the wireless
        delay is the sojourn time through the access-point queue with
        interference vacations; otherwise delays are drawn i.i.d. from the
        contention service distribution (no queueing, no interference), which
        is useful for fast analytical checks.
        """
        n_commands = ensure_int("n_commands", n_commands, minimum=1)
        if use_queue:
            wireless_delays = self._medium_delays(n_commands)
        else:
            wireless_delays = self._direct_delays(n_commands)

        if self.transport is not None:
            transport_delays = self.transport.sample_delays(n_commands)
        else:
            transport_delays = np.zeros(n_commands)

        trace = CommandDelayTrace()
        for index in range(n_commands):
            wireless = wireless_delays[index]
            if np.isinf(wireless):
                trace.samples.append(ChannelSample(index=index, delay_ms=float("inf"), lost=True))
                continue
            total = float(wireless + transport_delays[index])
            trace.samples.append(ChannelSample(index=index, delay_ms=total, lost=False))
        return trace

    def _draw_queue_randomness(self, rng: np.random.Generator, n_commands: int):
        """All random inputs of the queue simulation, in fixed block order.

        Both the serial and the batched path consume one repetition's RNG
        stream through this helper — interference intervals first, then the
        per-command service times, block, air-loss and interference-loss
        draws as whole arrays — so a given seed yields the same randomness on
        either path by construction.
        """
        service_dist = self.contention_model.service_distribution()
        horizon_ms = (n_commands + 1) * self.command_period_ms
        intervals = self._interference_intervals(horizon_ms, rng)
        work = service_dist.sample_many(rng, n_commands)
        blocked = rng.random(n_commands) < self.interference_block_probability
        base_lost = rng.random(n_commands) < self.contention_model.loss_probability
        interference_lost = rng.random(n_commands) < self.interference_loss_probability
        return intervals, work, blocked, base_lost, interference_lost

    @staticmethod
    def _advance_through_interference(
        intervals: list[tuple[float, float]], start: float, work_ms: float
    ) -> tuple[float, bool]:
        """Return (completion time, overlapped_interference) for ``work_ms``
        of transmission work beginning at ``start``."""
        t = start
        remaining = work_ms
        overlapped = False
        for on_start, on_end in intervals:
            if on_end <= t:
                continue
            if t + remaining <= on_start:
                break
            overlapped = True
            # Work until the burst begins, then wait the burst out.
            remaining -= max(0.0, on_start - t)
            t = on_end
        return t + max(0.0, remaining), overlapped

    def _medium_delays(
        self, n_commands: int, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Per-command sojourn times through the AP queue with interference.

        The access point is a single server with a finite buffer ``Q``.
        Commands arrive every Ω ms; the server can only transmit while the
        interferer is OFF, so service of a frame is stretched by every ON
        interval it overlaps (the paper's back-off freeze).  A frame whose
        transmission overlaps a burst is dropped with
        ``interference_loss_probability`` (retry limit exceeded); the
        contention model additionally contributes its own air-loss
        probability.  Arrivals that find the buffer full (``Q`` commands in
        the system) are dropped.

        This is the serial reference implementation — the bit-equality
        oracle for :meth:`sample_delays_batch`.
        """
        rng = self.rng if rng is None else rng
        intervals, work, blocked, base_lost, interference_lost = self._draw_queue_randomness(
            rng, n_commands
        )

        delays = np.full(n_commands, np.inf)
        server_free = 0.0
        completions: list[float] = []
        drained = 0  # completions[:drained] are <= the current arrival
        for index in range(n_commands):
            arrival = index * self.command_period_ms
            while drained < len(completions) and completions[drained] <= arrival:
                drained += 1
            if len(completions) - drained >= self.queue_capacity:
                continue  # buffer full: command dropped
            start = max(arrival, server_free)
            if blocked[index]:
                completion, overlapped = self._advance_through_interference(
                    intervals, start, float(work[index])
                )
            else:
                # PHY capture / narrowband jammer: the short frame slips
                # through even if the interferer is nominally active.
                completion, overlapped = start + float(work[index]), False
            server_free = completion
            completions.append(completion)
            lost = bool(base_lost[index])
            if overlapped and interference_lost[index]:
                lost = True
            if not lost:
                delays[index] = completion - arrival
        return delays

    def sample_delays_batch(self, n_commands: int, seeds) -> np.ndarray:
        """``(B, n)`` per-command delays for ``B`` independent repetitions.

        Row ``b`` is bit-identical to ``rng = rng_from(seeds[b])`` followed by
        the serial :meth:`_medium_delays`.  This is
        :func:`sample_wireless_delays_batch` with this channel on every row.
        """
        seeds = list(seeds)
        return sample_wireless_delays_batch([self] * len(seeds), n_commands, seeds)

    def _direct_delays(self, n_commands: int) -> np.ndarray:
        """I.i.d. contention delays with air-loss applied (no queueing)."""
        service = self.contention_model.service_distribution()
        delays = service.sample_many(self.rng, n_commands)
        lost = self.rng.random(n_commands) < self.contention_model.loss_probability
        delays = delays.astype(float)
        delays[lost] = float("inf")
        return delays

    # ----------------------------------------------------------- analytics
    def expected_late_probability(self, tolerance_ms: float) -> float:
        """Analytical estimate of ``P(Δ(c_i) > τ)`` ignoring queueing.

        Combines the interference duty cycle (a command whose transmission
        overlaps a burst is late with probability close to one) with the
        contention model's air-loss probability and hyper-exponential delay
        tail.  The medium simulation gives the exact figure; tests use this
        estimate as a consistency lower bound on the trace generator.
        """
        service = self.contention_model.service_distribution()
        tail = float(np.sum(service.probs * np.exp(-service.rates * max(tolerance_ms, 0.0))))
        loss = self.contention_model.loss_probability
        contention_late = loss + (1.0 - loss) * tail
        duty = self.interference_duty_cycle() * self.interference_block_probability
        return duty + (1.0 - duty) * contention_late


def sample_wireless_delays_batch(channels, n_commands: int, seeds) -> np.ndarray:
    """``(B, n)`` AP-queue delays, row ``b`` from ``channels[b]`` and ``seeds[b]``.

    Row ``b`` is bit-identical to ``channels[b]._medium_delays(n_commands,
    rng_from(seeds[b]))`` — same RNG stream, same queue recursion — but all
    rows advance together through one vectorized Lindley update (``start =
    max(arrival, server_free)``) per command, so the Python-interpreter cost
    is paid once per command instead of once per command per row.  The rows
    may come from different channels (station count, interference, queue
    capacity, loss probabilities): each row's randomness is drawn through its
    own channel's :meth:`WirelessChannel._draw_queue_randomness`, and the
    recursion is elementwise.  All channels must share the command period
    (it sets the common arrival grid) and carry no transport model.

    The lockstep pass is *optimistic about admission*: it assumes every
    arrival fits in the buffer, which keeps backlog bookkeeping out of the
    hot loop.  A vectorized post-check recomputes the backlog every command
    would have seen (one ``searchsorted`` per row over the monotone
    completion times); the rare rows whose backlog ever reaches their
    channel's buffer capacity are re-sampled through that channel's serial
    oracle, whose drop handling is exact by definition.
    """
    n_commands = ensure_int("n_commands", n_commands, minimum=1)
    channels = list(channels)
    seeds = list(seeds)
    if not seeds:
        raise ConfigurationError("sample_wireless_delays_batch needs at least one seed")
    if len(channels) != len(seeds):
        raise ConfigurationError(
            f"got {len(channels)} channels for {len(seeds)} seeds; pass one channel per seed"
        )
    if any(channel.transport is not None for channel in channels):
        raise ConfigurationError(
            "the batched sampler models the wireless medium only; "
            "sample per-repetition traces serially when a transport model is attached"
        )
    period = channels[0].command_period_ms
    if any(channel.command_period_ms != period for channel in channels):
        raise ConfigurationError("stacked wireless rows must share one command period")
    batch = len(seeds)
    drawn = [
        channel._draw_queue_randomness(rng_from(seed), n_commands)
        for channel, seed in zip(channels, seeds)
    ]
    work_columns = np.ascontiguousarray(np.stack([d[1] for d in drawn]).T)
    blocked_columns = np.ascontiguousarray(np.stack([d[2] for d in drawn]).T)
    base_lost = np.stack([d[3] for d in drawn])
    interference_lost = np.stack([d[4] for d in drawn])

    # Pad each row's interference intervals to a common width; the +inf
    # sentinel column keeps the per-row interval pointer in bounds.
    widest = max(len(d[0]) for d in drawn)
    on_start = np.full((batch, widest + 1), np.inf)
    on_end = np.full((batch, widest + 1), np.inf)
    for row, d in enumerate(drawn):
        for j, (interval_start, interval_end) in enumerate(d[0]):
            on_start[row, j] = interval_start
            on_end[row, j] = interval_end
    any_interference = widest > 0

    rows = np.arange(batch)
    completion_columns = np.empty((n_commands, batch))
    overlapped_columns = np.zeros((n_commands, batch), dtype=bool)
    server_free = np.zeros(batch)
    iptr = np.zeros(batch, dtype=np.intp)  # first interval with on_end > start

    for index in range(n_commands):
        start = np.maximum(index * period, server_free)
        work_now = work_columns[index]
        if any_interference:
            # Catch the interval pointer up to the service start time
            # (the serial scan's ``on_end <= t: continue``).
            while True:
                move = on_end[rows, iptr] <= start
                if not move.any():
                    break
                iptr += move
            blocked_now = blocked_columns[index]
            engage = blocked_now & (start + work_now > on_start[rows, iptr])
            if engage.any():
                overlapped = np.zeros(batch, dtype=bool)
                t = start.copy()
                remaining = work_now.copy()
                active = engage
                while True:
                    overlapped |= active
                    shaved = remaining - np.maximum(0.0, on_start[rows, iptr] - t)
                    remaining = np.where(active, shaved, remaining)
                    t = np.where(active, on_end[rows, iptr], t)
                    iptr = np.where(active, iptr + 1, iptr)
                    active = active & (t + remaining > on_start[rows, iptr])
                    if not active.any():
                        break
                stretched = t + np.maximum(0.0, remaining)
                completion = np.where(blocked_now, stretched, start + work_now)
                overlapped_columns[index] = overlapped
            else:
                # No service crosses a burst this slot: the stretched
                # completion ``t + max(0, remaining)`` degenerates to
                # ``start + work`` for blocked rows too.
                completion = start + work_now
        else:
            completion = start + work_now
        completion_columns[index] = completion
        server_free = completion

    completions = np.ascontiguousarray(completion_columns.T)
    arrivals = np.arange(n_commands) * period
    lost = base_lost | (overlapped_columns.T & interference_lost)
    delays = np.where(lost, np.inf, completions - arrivals[None, :])

    # Admission repair: the backlog command ``i`` finds is the number of
    # earlier admitted commands still in the system, ``i - #{completion <=
    # arrival_i}``.  Rows that never hit their buffer capacity took no drops,
    # so the optimistic pass already matches the serial oracle; the rest are
    # re-sampled serially through their own channel (drops reshape their
    # timeline).
    indices = np.arange(n_commands)
    for row, (channel, seed) in enumerate(zip(channels, seeds)):
        in_system = indices - np.searchsorted(completions[row], arrivals, side="right")
        if np.any(in_system >= channel.queue_capacity):
            delays[row] = channel._medium_delays(n_commands, rng_from(seed))
    return delays
