"""Out-of-program span tracer for the benchmark's traced run.

The tracer never edits the library.  It replaces public functions and
methods *where their callers bind them* (a class attribute, or the module
global a caller looks up at call time) with thin wrappers that record one
span per call: name, start, end, parent span id.  Spans stay in memory
until the run ends; :func:`write_chrome_trace` and :func:`self_time_table`
turn them into a Chrome trace-event file (open it in Perfetto or
``chrome://tracing``) and a per-span self-time table.

Counters are recorded at the same boundaries: each hook may derive named
counts from a call's arguments and result (rows in a batch, bytes written,
a store hit), so ratios are measured where the work happens.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from pathlib import Path
from typing import Callable

#: ``counter(args, kwargs, result) -> {metric name: count}``.
Counter = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Hook:
    """One wrap site: ``owner.attribute`` recorded as span ``name``.

    ``owner`` is a dotted import path to a module or a class.  ``counter``
    (optional) maps one call to named counts added to the tracer's totals.
    """

    name: str
    owner: str
    attribute: str
    counter: Counter | None = None


@dataclass(slots=True)
class Span:
    """One recorded call (times in integer nanoseconds)."""

    span_id: int
    parent_id: int | None
    name: str
    start_ns: int
    end_ns: int = 0

    @property
    def duration_ns(self) -> int:
        """Inclusive duration of the call."""
        return self.end_ns - self.start_ns


def resolve(path: str):
    """Import ``a.b.C`` as a module or as an attribute of a module."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


@dataclass
class Tracer:
    """In-memory span and counter recorder (single-threaded callers)."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> Span:
        """Start a span as a child of the innermost open span."""
        span = Span(
            span_id=len(self.spans),
            parent_id=self._stack[-1] if self._stack else None,
            name=name,
            start_ns=time.perf_counter_ns(),
        )
        self.spans.append(span)
        self._stack.append(span.span_id)
        return span

    def close(self, span: Span) -> None:
        """End ``span``, which must be the innermost open span."""
        span.end_ns = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != span.span_id:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextmanager
    def span(self, name: str):
        """Record the body of a ``with`` block as one span."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def count(self, values: dict) -> None:
        """Add named counts to the totals."""
        for key, value in values.items():
            self.counts[key] = self.counts.get(key, 0) + int(value)

    def wrap(self, hook: Hook, function):
        """A wrapper recording each call of ``function`` as a span."""

        @wraps(function)
        def traced(*args, **kwargs):
            span = self.open(hook.name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.close(span)
            self.count({f"{hook.name}.calls": 1})
            if hook.counter is not None:
                self.count(hook.counter(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self, hooks):
        """Patch every hook's target for the duration of the block.

        Targets are restored in ``finally``, so an untraced call after the
        block runs the library's own function object again.
        """
        saved = []
        try:
            for hook in hooks:
                owner = resolve(hook.owner)
                # The owner's own namespace: a class attribute defined there
                # (not inherited), or the module global callers look up.
                original = vars(owner)[hook.attribute]
                saved.append((owner, hook.attribute, original))
                setattr(owner, hook.attribute, self.wrap(hook, original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # ------------------------------------------------------------- analysis
    def child_time_ns(self) -> dict[int, int]:
        """Sum of direct children's durations per span id."""
        children: dict[int, int] = {}
        for span in self.spans:
            if span.parent_id is not None:
                children[span.parent_id] = children.get(span.parent_id, 0) + span.duration_ns
        return children

    def check_nesting(self) -> None:
        """Raise unless every span's children fit inside it."""
        children = self.child_time_ns()
        for span in self.spans:
            if span.end_ns < span.start_ns or span.end_ns == 0:
                raise AssertionError(f"span {span.name} was never closed")
            if children.get(span.span_id, 0) > span.duration_ns:
                raise AssertionError(f"children of span {span.name} outlast it")

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        children = self.child_time_ns()
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += span.duration_ns / 1e9
            row["self_s"] += (span.duration_ns - children.get(span.span_id, 0)) / 1e9
        return table

    def metrics(self) -> dict[str, float]:
        """Flat ``<span>.s`` / ``<span>.self_s`` times plus every counter."""
        flat: dict[str, float] = dict(self.counts)
        for name, row in self.totals().items():
            flat[f"{name}.s"] = row["s"]
            flat[f"{name}.self_s"] = row["self_s"]
        return flat


def self_time_table(tracers: list[Tracer], header: str = "") -> str:
    """Fixed-width table of spans sorted by self time (largest first)."""
    table: dict[str, dict[str, float]] = {}
    for tracer in tracers:
        for name, row in tracer.totals().items():
            merged = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key, value in row.items():
                merged[key] += value
    roots = sum(
        span.duration_ns for tracer in tracers for span in tracer.spans if span.parent_id is None
    ) / 1e9
    lines = [header] if header else []
    lines.append(f"{'span':<36s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s} {'self%':>6s}")
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        share = 100.0 * row["self_s"] / roots if roots else 0.0
        lines.append(
            f"{name:<36s} {int(row['calls']):>9d} {row['s']:>10.4f} {row['self_s']:>10.4f} {share:>6.1f}"
        )
    return "\n".join(lines)


def write_chrome_trace(tracers: list[Tracer], path: Path, metadata: dict) -> None:
    """Write the spans as Chrome trace-event JSON (complete ``X`` events).

    Each tracer's span ids are offset so ids stay unique across tracers.
    """
    origin = min((span.start_ns for tracer in tracers for span in tracer.spans), default=0)
    events = []
    offset = 0
    for tracer in tracers:
        for span in tracer.spans:
            parent = None if span.parent_id is None else span.parent_id + offset
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (span.start_ns - origin) / 1e3,
                    "dur": span.duration_ns / 1e3,
                    "args": {"id": span.span_id + offset, "parent": parent},
                }
            )
        offset += len(tracer.spans)
    payload = {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
