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
The output is a :class:`CommandDelayTrace`, a light container the session
simulation consumes.  The end-to-end delay is the wireless delay alone: the
paper takes the transport delay as negligible (``D ≈ 0``, §VI-C).

Sampling comes in two flavours with one randomness contract:

* :meth:`WirelessChannel.sample_trace` — the serial reference path, one
  repetition at a time.  It is the bit-equality oracle for the batched path.
* :func:`sample_wireless_delays_batch` — ``B`` rows as ``(B, n)`` NumPy
  arrays.  Row ``b`` consumes the RNG stream of ``seeds[b]`` through its own
  channel exactly as the serial path would, and the queue recursion is the
  same Lindley-style ``start = max(arrival, server_free)`` update with the
  same per-element arithmetic, so the stacked result is bit-identical to
  ``B`` serial runs.  It solves the recursion in busy-period rounds: every
  command is first served as if it found the server idle, and each later
  round re-serves only the commands queued behind a predecessor whose
  completion just changed, so the Python loop runs once per command of the
  longest busy period rather than once per command.  The rows may come from
  different channels (a sweep stacks every cell of a grid into one pass);
  :meth:`WirelessChannel.sample_delays_batch` is the one-channel case.

The randomness contract is that of a per-variate draw: for one repetition,
a scalar ``rng.exponential(gap_mean)`` per interference burst until a burst
would start past the horizon, then ``rng.choice(p=...)`` and
``rng.exponential(1 / rates)`` per service time, then the block, air-loss
and interference-loss uniforms.  Both paths draw the same values, and leave
the stream at the same position, with block draws instead.  The burst gaps
are drawn as one block after saving the bit generator's state; the starts
are the block's running sum, whose sequential adds are the loop's ``t +=
on + gap``.  The state is then restored, and exactly the draws the loop
would have consumed are made again.  The service times look their uniforms
up in a phase CDF built once per distribution (see
:meth:`repro.des.distributions.HyperExponential.sample`).
``tests/oracles/serial.py`` keeps the per-variate draw as the reference.

Channels with equal DCF parameters share one contention model (one Bianchi
solve, one service distribution) from a bounded per-process memo keyed by
the parameters' values.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from operator import attrgetter

import numpy as np

from .._validation import ensure_int, ensure_positive, ensure_probability, rng_from
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


#: Contention models kept per process, least recently used evicted first.
_MAX_CONTENTION_MODELS = 64
_contention_models: OrderedDict[tuple, Ieee80211DelayModel] = OrderedDict()
_contention_lock = threading.Lock()
#: Every field of :class:`DcfParameters` but the interference source, which
#: is not hashable and enters the memo key by its two values.
_dcf_values = attrgetter(*(f.name for f in fields(DcfParameters) if f.name != "interference"))


def _contention_model(params: DcfParameters) -> Ieee80211DelayModel:
    """The process-wide contention model (one Bianchi solve) for ``params``' values.

    Keyed by the parameters' type and values, not by the object, so the
    channels of a grid share one model per station count.  The model is
    built from a private copy: mutating ``params`` afterwards reaches neither
    the memo nor another channel.
    """
    interference = params.interference
    key = (type(params), _dcf_values(params), interference.probability, interference.duration_slots)
    with _contention_lock:
        model = _contention_models.get(key)
        if model is not None:
            _contention_models.move_to_end(key)
            return model
    model = Ieee80211DelayModel(replace(params, interference=replace(interference)))
    with _contention_lock:
        model = _contention_models.setdefault(key, model)
        if len(_contention_models) > _MAX_CONTENTION_MODELS:
            _contention_models.popitem(last=False)
    return model


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
        self._seed = seed

        # Contention model: Bianchi DCF for n stations, no interference term
        # (interference is realised in the time domain below).  The caller's
        # dcf_params is copied, not mutated; channels with equal parameters
        # share one memoised model.
        base_params = dcf_params if dcf_params is not None else DcfParameters()
        contention_params = replace(
            base_params, n_stations=n_robots, interference=InterferenceSource()
        )
        self.params = contention_params
        self.contention_model = _contention_model(contention_params)

    @cached_property
    def rng(self) -> np.random.Generator:
        """The channel's own stream, built on first use.

        Batched sampling passes each row's generator explicitly and never
        reads it, so a channel built only for that costs no entropy read.
        """
        return rng_from(self._seed)

    @cached_property
    def delay_model(self) -> Ieee80211DelayModel:
        """Interference-aware analytical model (the Appendix results).

        Built on first access: it costs a second Bianchi solve, and sampling
        never reads it.
        """
        return Ieee80211DelayModel(replace(self.params, interference=self.interference))

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
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(on_start, on_end)`` of the interferer's ON intervals in ``[0, horizon_ms)``.

        The bursts follow ``t = gap_0``, then ``t += on + gap_i`` while
        ``t < horizon_ms``, with exponential gaps.  The gaps are drawn as one
        block and the starts are their running sum, so the sums are the
        loop's sequential adds.  The stream is then rewound and exactly the
        draws the loop would have made are made again (the bursts kept plus
        the one that passed the horizon), so the stream's position does not
        depend on the block size.
        """
        rng = self.rng if rng is None else rng
        if not self.interference.is_active:
            return np.empty(0), np.empty(0)
        on = self.burst_duration_ms()
        gap_mean = self.mean_gap_ms()
        bit_generator = rng.bit_generator
        state = bit_generator.state
        # The expected burst count plus a margin; a block that ends before
        # the horizon is rewound and drawn again twice as long.
        size = int(1.25 * horizon_ms / (on + gap_mean)) + 16
        while True:
            steps = rng.standard_exponential(size) * gap_mean
            steps[1:] += on
            starts = steps.cumsum()
            kept = int(starts.searchsorted(horizon_ms, side="left"))
            bit_generator.state = state
            if kept < size:
                break
            size *= 2
        rng.standard_exponential(kept + 1)
        starts = starts[:kept]
        return starts, starts + on

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
        return trace_from_delays(wireless_delays)

    def _draw_queue_randomness(self, rng: np.random.Generator, n_commands: int):
        """All random inputs of the queue simulation, in fixed block order.

        Both the serial and the batched path consume one repetition's RNG
        stream through this helper — interference intervals first, then the
        per-command service times (from the contention model's service
        distribution), block, air-loss and interference-loss draws as whole
        arrays — so a given seed yields the same randomness on either path by
        construction.
        """
        horizon_ms = (n_commands + 1) * self.command_period_ms
        intervals = self._interference_intervals(horizon_ms, rng)
        work = self.contention_model.service_distribution().sample_many(rng, n_commands)
        blocked = rng.random(n_commands) < self.interference_block_probability
        base_lost = rng.random(n_commands) < self.contention_model.loss_probability
        interference_lost = rng.random(n_commands) < self.interference_loss_probability
        return intervals, work, blocked, base_lost, interference_lost

    @staticmethod
    def _advance_through_interference(intervals, start: float, work_ms: float) -> tuple[float, bool]:
        """Return (completion time, overlapped_interference) for ``work_ms``
        of transmission work beginning at ``start``; ``intervals`` yields the
        ``(on_start, on_end)`` pairs of the bursts in time order."""
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
        (on_start, on_end), work, blocked, base_lost, interference_lost = (
            self._draw_queue_randomness(rng, n_commands)
        )
        intervals = list(zip(on_start.tolist(), on_end.tolist()))

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
    rng_from(seeds[b]))``: same RNG stream, same queue recursion, same
    per-element arithmetic.  The rows may come from different channels
    (station count, interference, queue capacity, loss probabilities): each
    row's randomness is drawn through its own channel's
    :meth:`WirelessChannel._draw_queue_randomness`, from the service
    distribution its DCF parameters share.  All channels must share the
    command period (it sets the common arrival grid).

    The Lindley recursion ``start_i = max(arrival_i, completion_{i-1})`` is
    solved in *busy-period rounds* instead of one step per command.  Round 0
    serves every command as if it found the server idle (``start =
    arrival``).  Each later round re-serves only the frontier: the commands
    whose start changed because their predecessor's completion did.  A
    command's start is final once its predecessor's is, so the frontier
    moves one command deeper into every busy period per round, and the
    number of rounds is the longest busy run plus one, however long the
    session.  Every service is the serial burst-stretch scan of
    :meth:`WirelessChannel._advance_through_interference` applied
    elementwise, from the first interference interval still ON at its start.

    Admission is *optimistic*: the rounds assume every arrival fits in the
    buffer.  A vectorized post-check finds the rows where some command would
    have found the buffer full (one comparison per command against the
    monotone completion times); those rare rows are re-sampled through
    their channel's serial oracle, whose drop handling is exact by
    definition.
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
    period = channels[0].command_period_ms
    if any(channel.command_period_ms != period for channel in channels):
        raise ConfigurationError("stacked wireless rows must share one command period")
    batch = len(seeds)
    drawn = [
        channel._draw_queue_randomness(rng_from(seed), n_commands)
        for channel, seed in zip(channels, seeds)
    ]
    work = np.concatenate([d[1] for d in drawn])
    blocked = np.concatenate([d[2] for d in drawn])
    base_lost = np.stack([d[3] for d in drawn])
    interference_lost = np.stack([d[4] for d in drawn])

    # Pad each row's interference intervals to a common width; the +inf
    # sentinel closing every row keeps an interval pointer inside its row.
    stride = max(d[0][0].size for d in drawn) + 1
    on_start = np.full((batch, stride), np.inf)
    on_end = np.full((batch, stride), np.inf)
    for row, ((starts, ends), *_) in enumerate(drawn):
        on_start[row, : starts.size] = starts
        on_end[row, : ends.size] = ends

    # Round 0: every command starts at its arrival.  ``ptr`` indexes the
    # flattened interval tables at the first interval still ON at a command's
    # start (the serial scan's ``on_end <= t: continue``): the row's count of
    # bursts ending by the arrival.  A burst ending at ``on_end`` counts from
    # the first arrival ``>= on_end`` on, so one ``searchsorted`` over the
    # whole table and a running count per row give every pointer.  A pointer
    # stays at its command's start, never past the bursts a service consumed:
    # a later round's larger start may still overlap them.
    arrivals = np.arange(n_commands) * period
    ends_by = np.searchsorted(arrivals, on_end, side="left")
    ends_by += np.arange(batch)[:, None] * (n_commands + 1)
    ended = np.bincount(ends_by.ravel(), minlength=batch * (n_commands + 1))
    ptr = ended.reshape(batch, n_commands + 1)[:, :n_commands].cumsum(axis=1)
    ptr += np.arange(batch)[:, None] * stride
    ptr = ptr.ravel()
    on_start = on_start.ravel()
    on_end = on_end.ravel()
    start = np.tile(arrivals, batch)
    completion, overlapped = _serve(start, work, blocked, ptr, on_start, on_end)

    # Frontier rounds: re-serve the commands whose predecessor finished
    # after they arrived, until no start changes.
    later = np.flatnonzero(completion[:-1] > start[1:]) + 1
    frontier = later[later % n_commands != 0]
    while frontier.size:
        served = completion[frontier - 1]
        start[frontier] = served
        pointer = ptr[frontier]
        while True:
            behind = on_end[pointer] <= served
            if not behind.any():
                break
            pointer += behind
        ptr[frontier] = pointer
        completion[frontier], overlapped[frontier] = _serve(
            served, work[frontier], blocked[frontier], pointer, on_start, on_end
        )
        following = frontier[(frontier + 1) % n_commands != 0] + 1
        frontier = following[completion[following - 1] > start[following]]

    completions = completion.reshape(batch, n_commands)
    lost = base_lost | (overlapped.reshape(batch, n_commands) & interference_lost)
    delays = np.where(lost, np.inf, completions - arrivals[None, :])

    # Admission repair: the backlog command ``k`` finds is the number of
    # earlier admitted commands still in the system, ``k - #{completion <=
    # arrival_k}``.  A row's completions never decrease, so that backlog
    # reaches the capacity ``Q`` exactly when ``completion_{k-Q} >
    # arrival_k``: one comparison per command, on views of the row.  Rows
    # that never hit their buffer capacity took no drops, so the optimistic
    # pass already matches the serial oracle; the rest are re-sampled
    # serially through their own channel (drops reshape their timeline).
    for row, (channel, seed) in enumerate(zip(channels, seeds)):
        capacity = channel.queue_capacity
        if (completions[row, : max(n_commands - capacity, 0)] > arrivals[capacity:]).any():
            delays[row] = channel._medium_delays(n_commands, rng_from(seed))
    return delays


def _serve(start, work, blocked, ptr, on_start, on_end):
    """``(completion, overlapped)`` of services beginning at ``start``.

    Element ``k`` is :meth:`WirelessChannel._advance_through_interference`
    of ``work[k]`` from ``start[k]``, where ``ptr[k]`` points into the
    flattened interval tables at the first interval of the element's row
    still ON at ``start[k]``; an unblocked frame slips through bursts and
    completes at ``start + work``.  Only the services that reach a burst run
    the stretch loop, on a private copy of their pointers.
    """
    completion = start + work
    overlapped = np.zeros(start.shape, dtype=bool)
    engaged = np.flatnonzero(blocked & (completion > on_start[ptr]))
    if engaged.size:
        pointer = ptr[engaged]
        t = start[engaged]
        remaining = work[engaged]
        active = np.arange(engaged.size)
        while active.size:
            # Work until the burst begins, then wait the burst out.
            at = pointer[active]
            remaining[active] -= np.maximum(0.0, on_start[at] - t[active])
            t[active] = on_end[at]
            pointer[active] = at + 1
            active = active[t[active] + remaining[active] > on_start[at + 1]]
        completion[engaged] = t + np.maximum(0.0, remaining)
        overlapped[engaged] = True
    return completion, overlapped
