"""A minimal, general-purpose discrete-event simulation engine.

The engine is a classic event-calendar simulator: callers schedule
:class:`Event` objects at absolute simulation times, and :class:`Simulator`
pops them in chronological order, advancing the clock and invoking each
event's callback.  Callbacks may schedule further events.  The event-driven
G/HEXP/1/Q reference queue of the test suite runs on it.  The live
service's admission pass no longer does: its arrivals are all known up
front and none schedules another, so it walks them in sorted order
(:func:`repro.fleet.engine.admit_arrivals`).

The engine is intentionally small — it only needs to support the workloads in
this reproduction — but it is written as a reusable component: events carry
arbitrary payloads, ties are broken deterministically by insertion order, and
the run can be bounded by time, by event count, or stopped from inside a
callback.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import SimulationError


@dataclass(order=True)
class _ScheduledEvent:
    """Internal heap entry; ordering is (time, sequence number)."""

    time: float
    sequence: int
    event: "Event" = field(compare=False)


@dataclass
class Event:
    """A single simulation event.

    Attributes
    ----------
    name:
        Human-readable label (useful when tracing a simulation).
    callback:
        Callable invoked as ``callback(simulator, event)`` when the event
        fires.  May be ``None`` for pure marker events.
    payload:
        Arbitrary data attached to the event (e.g. a customer record).
    """

    name: str
    callback: Callable[["Simulator", "Event"], None] | None = None
    payload: Any = None
    time: float | None = None
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped."""
        self.cancelled = True


class EventScheduler:
    """Priority queue of future events keyed by simulation time."""

    def __init__(self) -> None:
        self._heap: list[_ScheduledEvent] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, event: Event) -> None:
        """Schedule ``event`` at absolute ``time``."""
        if time < 0:
            raise SimulationError(f"cannot schedule an event at negative time {time}")
        event.time = time
        heapq.heappush(self._heap, _ScheduledEvent(time, next(self._counter), event))

    def pop(self) -> tuple[float, Event]:
        """Remove and return the chronologically next ``(time, event)`` pair."""
        if not self._heap:
            raise SimulationError("event calendar is empty")
        entry = heapq.heappop(self._heap)
        return entry.time, entry.event

    def peek_time(self) -> float | None:
        """Time of the next event, or ``None`` if the calendar is empty."""
        return self._heap[0].time if self._heap else None


class Simulator:
    """Event-calendar simulator with a monotonically advancing clock."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self.scheduler = EventScheduler()
        self.events_processed: int = 0
        self._stopped = False

    def schedule(self, delay: float, event: Event) -> Event:
        """Schedule ``event`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event with negative delay {delay}")
        self.scheduler.push(self.now + delay, event)
        return event

    def schedule_at(self, time: float, event: Event) -> Event:
        """Schedule ``event`` at an absolute simulation time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule an event in the past (now={self.now}, requested={time})"
            )
        self.scheduler.push(time, event)
        return event

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stopped = True

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Process events until exhaustion, ``until`` time, or ``max_events``.

        Returns the simulation time at which the run stopped.
        """
        self._stopped = False
        while len(self.scheduler) > 0 and not self._stopped:
            next_time = self.scheduler.peek_time()
            if until is not None and next_time is not None and next_time > until:
                self.now = until
                break
            time, event = self.scheduler.pop()
            if event.cancelled:
                continue
            if time < self.now - 1e-12:
                raise SimulationError("event calendar produced a non-monotonic time")
            self.now = max(self.now, time)
            if event.callback is not None:
                event.callback(self, event)
            self.events_processed += 1
            if max_events is not None and self.events_processed >= max_events:
                break
        if until is not None and len(self.scheduler) == 0 and not self._stopped:
            self.now = max(self.now, until)
        return self.now
