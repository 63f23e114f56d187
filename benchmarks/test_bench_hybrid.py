"""Benchmark: hybrid city-scale tier vs the pure-exact fleet engine.

Runs the ``city-scale`` preset (2048 operators Poisson over 256 APs)
through the hybrid exact/analytic tier and measures operators per second,
then measures the pure-exact engine's per-operator rate on a trimmed
exact fleet of the same shape (timing 2048 operators exactly would take
minutes — the point of the tier).  The hybrid tier must deliver at least
**100x more operators per second** than the exact path (the ISSUE
acceptance gate); the measured ratio lands in the trajectory file as
``speedup_city``.

The exact baseline is deliberately small (32 operators over 4 APs): the
exact engine's cost is linear-plus in the population, so its small-fleet
per-operator rate *overestimates* what it would sustain at city scale,
making the asserted ratio conservative.
"""

from __future__ import annotations

import time

from repro.fleet import FleetEngine, get_fleet
from repro.scenarios import SessionEngine

from conftest import emit, record_metric

#: The hybrid tier must beat exact per-operator throughput by this factor.
MIN_SPEEDUP = 100.0

#: Exact-baseline population (kept small; see module docstring).
EXACT_OPERATORS = 32


def _best_of_alternating(*callables, rounds: int = 3) -> list[tuple[float, object]]:
    """Minimum wall-clock of each callable over ``rounds`` interleaved rounds.

    Each round runs every callable once, in turn, so a stretch of host load
    slows all of them alike instead of only the one timed during it.
    """
    best = [float("inf")] * len(callables)
    results: list[object] = [None] * len(callables)
    for _ in range(rounds):
        for index, callable_ in enumerate(callables):
            start = time.perf_counter()
            results[index] = callable_()
            best[index] = min(best[index], time.perf_counter() - start)
    return list(zip(best, results))


def _rerun(engine, spec):
    """Run ``spec`` from scratch: the cleared memo makes no round a memory hit."""
    engine.memo.clear()
    return engine.run(spec)


def test_bench_hybrid_city_scale(benchmark, bench_scale, bench_seed):
    """Operators/second: hybrid city-scale vs pure-exact (same workload shape)."""
    city = get_fleet("city-scale", scale=bench_scale, seed=bench_seed)
    exact_small = get_fleet(
        "city-scale", operators=EXACT_OPERATORS, scale=bench_scale, seed=bench_seed
    ).with_(aps=4, tier="exact")

    sessions = SessionEngine()
    sessions.run(city.template)  # warm dataset/forecaster/solo caches

    hybrid_engine = FleetEngine(sessions=sessions)
    exact_engine = FleetEngine(sessions=sessions)

    (t_hybrid, hybrid), (t_exact, exact) = _best_of_alternating(
        lambda: _rerun(hybrid_engine, city), lambda: _rerun(exact_engine, exact_small)
    )

    assert hybrid.admitted + hybrid.dropped_sessions >= city.operators
    assert hybrid.tier == "hybrid"
    assert hybrid.exact_sessions + hybrid.analytic_sessions == hybrid.admitted
    assert exact.tier == "exact"

    hybrid_rate = city.operators / t_hybrid
    exact_rate = EXACT_OPERATORS / t_exact
    speedup = hybrid_rate / exact_rate

    def run():
        return FleetEngine(sessions=sessions).run(city)

    benchmark.pedantic(run, rounds=1, iterations=1)
    record_metric(
        "test_bench_hybrid_city_scale",
        ops_per_s_hybrid=hybrid_rate,
        ops_per_s_exact=exact_rate,
        speedup_city=speedup,
    )
    emit(
        f"Hybrid tier — city-scale ({city.operators} operators / {city.aps} APs), "
        f"scale={bench_scale}",
        "\n".join(
            [
                f"{'engine':<16s} {'operators':>10s} {'wall':>9s} {'ops/s':>11s}",
                f"{'hybrid':<16s} {city.operators:>10d} {t_hybrid:>8.3f}s {hybrid_rate:>11.0f}",
                f"{'exact':<16s} {EXACT_OPERATORS:>10d} {t_exact:>8.3f}s {exact_rate:>11.1f}",
                f"speedup x{speedup:.0f} "
                f"({hybrid.hot_aps} hot / {hybrid.cold_aps} cold APs, "
                f"{hybrid.exact_sessions} exact + {hybrid.analytic_sessions} analytic sessions)",
            ]
        ),
    )

    assert speedup >= MIN_SPEEDUP, (
        f"hybrid tier only {speedup:.0f}x more operators/s than pure-exact "
        f"(required: {MIN_SPEEDUP:.0f}x)"
    )
