"""Wall-clock rule: engine code may not read the clock.

``TIME001`` bans wall-clock and timer reads (``time.time``, ``time.
monotonic``, ``time.perf_counter``, ``datetime.now`` and friends) in library
code: a clock read in a simulation path is nondeterminism the determinism
tests can only catch after the fact, and a clock read in a cache path can
silently order results by execution time.  The intentional exceptions — the
result store's LRU recency clock, the hardware-timing experiment and the
profiling helpers, which measure wall time *by design* — are documented
file-level entries in the committed baseline, not inline suppressions.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .registry import FileContext, Rule, dotted_name, register

#: Functions of the :mod:`time` module that read a clock.
_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)

#: Zero-argument constructors/readers of :mod:`datetime` that read a clock.
_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})


class WallClockRule(Rule):
    """``TIME001``: no clock reads in engine code."""

    rule_id = "TIME001"
    title = "wall-clock/timer reads are banned in engine code"
    fix_hint = "thread time through the spec/parameters, or baseline a timing module with a justification"

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag calls that read the process clock.

        Matches dotted calls (``time.perf_counter()``, ``datetime.now()``,
        ``datetime.datetime.utcnow()``, ``date.today()``) and bare-name calls
        of clock functions imported via ``from time import perf_counter``.
        """
        imported_clocks: set[str] = set()
        for node in ctx.nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "time" and node.level == 0:
                for alias in node.names:
                    if alias.name in _TIME_FUNCS:
                        imported_clocks.add(alias.asname or alias.name)
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            if chain is None:
                continue
            rendered = ".".join(chain)
            if len(chain) == 1 and chain[0] in imported_clocks:
                yield self.finding(ctx, node, f"reads the clock via {rendered}()")
            elif len(chain) >= 2 and chain[-2] == "time" and chain[-1] in _TIME_FUNCS:
                yield self.finding(ctx, node, f"reads the clock via {rendered}()")
            elif len(chain) >= 2 and chain[-2] in ("datetime", "date") and chain[-1] in _DATETIME_FUNCS:
                yield self.finding(ctx, node, f"reads the clock via {rendered}()")


register(WallClockRule())
