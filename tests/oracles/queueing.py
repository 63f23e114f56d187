"""The event-driven G/HEXP/1/Q queue: the reference for the AP queue sampler.

The paper models the IEEE 802.11 access point as a **G/HEXP/1/Q** queue:
commands arrive every Ω ms (a general — here deterministic — arrival process),
are served by a single radio whose service time is hyper-exponential (one
phase per retransmission count), and wait in a finite buffer of length ``Q``.
Commands that find the buffer full are dropped, and commands whose service
phase corresponds to exceeding the retransmission limit are lost on the air.

The library samples that queue with the busy-period sampler of
:mod:`repro.wireless.channel`.  :class:`FiniteQueueSimulator` is the same
queue written event by event on the library's
:class:`repro.des.engine.Simulator`: it shares none of the sampler's code or
random-number order, so the tests compare the two in distribution, and it
exercises the event engine end to end.  It records a :class:`CustomerRecord`
per arrival.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro._validation import ensure_int, ensure_probability, rng_from
from repro.errors import ConfigurationError
from repro.des.distributions import Distribution
from repro.des.engine import Event, Simulator


@dataclass
class CustomerRecord:
    """Per-customer (per-command) record produced by the queue simulator.

    Attributes
    ----------
    index:
        Zero-based arrival index.
    arrival_time:
        Time at which the customer arrived to the queue.
    service_start:
        Time service began (``nan`` if the customer was dropped or lost).
    departure_time:
        Time the customer left the system (``nan`` if dropped/lost).
    dropped:
        True if the customer found the buffer full and was rejected.
    lost:
        True if the customer was admitted but lost in service (e.g. the frame
        exceeded the 802.11 retransmission limit).
    service_phase:
        Index of the hyper-exponential phase that served this customer, i.e.
        the number of retransmissions the frame required (-1 if not served).
    """

    index: int
    arrival_time: float
    service_start: float = float("nan")
    departure_time: float = float("nan")
    dropped: bool = False
    lost: bool = False
    service_phase: int = -1

    @property
    def waiting_time(self) -> float:
        """Time spent in the buffer before service started."""
        return self.service_start - self.arrival_time

    @property
    def sojourn_time(self) -> float:
        """Total time in system (waiting + service); ``nan`` if dropped/lost."""
        return self.departure_time - self.arrival_time

    @property
    def delivered(self) -> bool:
        """True when the customer completed service successfully."""
        return not self.dropped and not self.lost


@dataclass
class QueueMetrics:
    """Aggregate statistics over a finished queue simulation."""

    n_arrivals: int
    n_delivered: int
    n_dropped: int
    n_lost: int
    mean_waiting_time: float
    mean_sojourn_time: float
    p95_sojourn_time: float
    utilisation: float

    @property
    def loss_probability(self) -> float:
        """Fraction of arrivals that were dropped or lost."""
        if self.n_arrivals == 0:
            return 0.0
        return (self.n_dropped + self.n_lost) / self.n_arrivals


class FiniteQueueSimulator:
    """G/G/1/Q queue with optional in-service loss.

    Parameters
    ----------
    arrival:
        Inter-arrival time distribution (deterministic ``Ω`` for commands).
    service:
        Service time distribution.  If it exposes ``sample_with_phase`` (the
        hyper-exponential does), the phase index is recorded per customer.
    capacity:
        Buffer size ``Q`` *excluding* the customer in service.  ``None`` means
        an infinite buffer.
    loss_probability:
        Probability that an admitted customer is lost during service — the
        802.11 frame-loss probability ``a_{m+2}`` from the analytical model.
        Lost customers still occupy the server for their sampled service time
        (the radio spends the retransmission attempts before giving up).
    seed:
        Seed or generator for reproducible runs.
    """

    def __init__(
        self,
        arrival: Distribution,
        service: Distribution,
        capacity: int | None = None,
        loss_probability: float = 0.0,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if capacity is not None:
            capacity = ensure_int("capacity", capacity, minimum=0)
        self.arrival = arrival
        self.service = service
        self.capacity = capacity
        self.loss_probability = ensure_probability("loss_probability", loss_probability)
        self.rng = rng_from(seed)
        self.records: list[CustomerRecord] = []
        self._busy_time = 0.0

    # ------------------------------------------------------------------ run
    def run(self, n_customers: int) -> list[CustomerRecord]:
        """Simulate ``n_customers`` arrivals and return their records."""
        n_customers = ensure_int("n_customers", n_customers, minimum=1)
        simulator = Simulator()
        self.records = []
        self._busy_time = 0.0
        state = _QueueState()

        def schedule_arrival(sim: Simulator, index: int, when: float) -> None:
            record = CustomerRecord(index=index, arrival_time=when)
            sim.schedule_at(when, Event("arrival", callback=_on_arrival, payload=record))

        def _on_arrival(sim: Simulator, event: Event) -> None:
            record: CustomerRecord = event.payload
            self.records.append(record)
            buffer_full = self.capacity is not None and len(state.buffer) >= self.capacity
            if buffer_full and state.in_service is not None:
                record.dropped = True
            else:
                state.buffer.append(record)
                _try_start_service(sim)
            next_index = record.index + 1
            if next_index < n_customers:
                gap = float(self.arrival.sample(self.rng))
                schedule_arrival(sim, next_index, sim.now + gap)

        def _try_start_service(sim: Simulator) -> None:
            if state.in_service is not None or not state.buffer:
                return
            record = state.buffer.pop(0)
            state.in_service = record
            record.service_start = sim.now
            if hasattr(self.service, "sample_with_phase"):
                duration, phase = self.service.sample_with_phase(self.rng)
                record.service_phase = phase
            else:
                duration = float(self.service.sample(self.rng))
            if self.loss_probability > 0 and self.rng.random() < self.loss_probability:
                record.lost = True
            self._busy_time += duration
            sim.schedule(duration, Event("departure", callback=_on_departure, payload=record))

        def _on_departure(sim: Simulator, event: Event) -> None:
            record: CustomerRecord = event.payload
            if not record.lost:
                record.departure_time = sim.now
            state.in_service = None
            _try_start_service(sim)

        schedule_arrival(simulator, 0, 0.0)
        simulator.run()
        self._total_time = simulator.now
        return self.records

    # -------------------------------------------------------------- metrics
    def metrics(self) -> QueueMetrics:
        """Summarise the most recent :meth:`run` into :class:`QueueMetrics`."""
        if not self.records:
            raise ConfigurationError("run() must be called before metrics()")
        delivered = [r for r in self.records if r.delivered]
        dropped = [r for r in self.records if r.dropped]
        lost = [r for r in self.records if r.lost]
        waits = np.array([r.waiting_time for r in delivered]) if delivered else np.array([0.0])
        sojourns = np.array([r.sojourn_time for r in delivered]) if delivered else np.array([0.0])
        total_time = max(self._total_time, 1e-12)
        return QueueMetrics(
            n_arrivals=len(self.records),
            n_delivered=len(delivered),
            n_dropped=len(dropped),
            n_lost=len(lost),
            mean_waiting_time=float(waits.mean()),
            mean_sojourn_time=float(sojourns.mean()),
            p95_sojourn_time=float(np.quantile(sojourns, 0.95)),
            utilisation=float(min(1.0, self._busy_time / total_time)),
        )

    def sojourn_times(self) -> Iterator[float]:
        """Yield the sojourn time of every arrival; ``inf`` for dropped/lost.

        This is the mapping the AP queue sampler uses: a dropped or lost
        command has effectively infinite delay ``Δ_W(c_i) → ∞`` (paper
        Lemma 1 / Corollary 1).
        """
        for record in self.records:
            if record.delivered:
                yield record.sojourn_time
            else:
                yield float("inf")


@dataclass
class _QueueState:
    """Mutable queue state shared by the event callbacks."""

    buffer: list[CustomerRecord] = field(default_factory=list)
    in_service: CustomerRecord | None = None
