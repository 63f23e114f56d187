"""Benchmark: batched fleet execution vs the serial per-session loop.

Runs the same 12-operator shared-AP fleet two ways — every admitted
operator-session through one session-kernel pass (``FleetEngine``) and
through the serial per-session reference loop (the oracle engine of
``tests/oracles/serial.py``) — and reports session
throughput.  The batched path must deliver at least a 3x improvement at CI
scale; both paths must agree bit-for-bit (the fleet engine's equality
guarantee).

The bursty-loss template is used because its delay sampling is a cheap
exact computation, so the measurement isolates the session kernel the fleet
batches over (sampling and coupling cost the same on both paths).
"""

from __future__ import annotations

import time

from oracles.serial import SerialFleetEngine

from repro.fleet import FleetEngine, FleetSpec
from repro.scenarios import SessionEngine, get_scenario

from conftest import emit, record_metric

#: Operator population of the measured fleet.
OPERATORS = 12

#: The batched fleet pass must beat the serial loop by at least this factor.
MIN_SPEEDUP = 3.0


def _fleet(bench_scale, bench_seed, algorithm) -> FleetSpec:
    template = (
        get_scenario("bursty-loss", scale=bench_scale, seed=bench_seed)
        .with_foreco(algorithm=algorithm)
    )
    return FleetSpec(
        name="bench-fleet",
        template=template,
        operators=OPERATORS,
        aps=3,
        ap_capacity=OPERATORS,
        ap_service_ms=4.0,
        arrival="simultaneous",
    )


def _best_of(callable_, rounds: int = 3) -> tuple[float, object]:
    """Minimum wall-clock over ``rounds`` runs (robust to scheduler noise)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def _rerun(engine, spec):
    """Run ``spec`` from scratch: the cleared memo makes no round a memory hit."""
    engine.memo.clear()
    return engine.run(spec)


def test_bench_fleet_throughput(benchmark, bench_scale, bench_seed):
    """Serial vs batched operator-session throughput (MA, VAR)."""
    lines = [f"{'forecaster':<12s} {'serial':>10s} {'batched':>10s} {'speedup':>8s}"]
    speedups = {}
    for algorithm in ("ma", "var"):
        fleet = _fleet(bench_scale, bench_seed, algorithm)
        sessions = SessionEngine()
        sessions.run(fleet.template)  # warm dataset/forecaster caches
        engine = FleetEngine(sessions=sessions)
        oracle = SerialFleetEngine(sessions=sessions)

        t_serial, serial = _best_of(lambda: _rerun(oracle, fleet))
        t_batched, batched = _best_of(lambda: _rerun(engine, fleet))

        assert serial.rmse_foreco_mm == batched.rmse_foreco_mm
        assert serial.rmse_no_forecast_mm == batched.rmse_no_forecast_mm
        assert serial.completion_time_s == batched.completion_time_s
        assert serial.admitted == batched.admitted == OPERATORS
        speedups[algorithm] = t_serial / t_batched
        lines.append(
            f"{algorithm:<12s} {OPERATORS / t_serial:>8.1f}/s {OPERATORS / t_batched:>8.1f}/s "
            f"x{speedups[algorithm]:>7.1f}"
        )

    def run():
        sessions = SessionEngine()
        return FleetEngine(sessions=sessions).run(_fleet(bench_scale, bench_seed, "var"))

    benchmark.pedantic(run, rounds=1, iterations=1)
    record_metric(
        "test_bench_fleet_throughput",
        **{f"speedup_{name}": value for name, value in speedups.items()},
    )
    emit(
        f"Fleet engine — {OPERATORS} operators, shared APs, bursty-loss, scale={bench_scale}",
        "\n".join(lines),
    )

    for algorithm, speedup in speedups.items():
        assert speedup >= MIN_SPEEDUP, (
            f"batched fleet only {speedup:.1f}x faster than the serial loop "
            f"for {algorithm!r} (required: {MIN_SPEEDUP}x)"
        )
