"""Benchmark: batched session kernel vs the serial repetition loop.

Runs the same loss-heavy scenario three ways — the serial per-repetition
loop (the oracle engine of ``tests/oracles/serial.py``), the session kernel
(``SessionEngine``) and a process-parallel sweep of single-repetition
shards — and reports repetition
throughput for the paper's two fast forecasters (MA and VAR).  The batched
kernel must deliver at least a 3x repetition-throughput improvement over the
serial loop at CI scale; all three paths must agree bit-for-bit (the
engine's equality guarantee).

The Fig. 9 controlled-loss channel is used because its delay sampling is a
cheap exact computation, so the measurement isolates the session kernel
itself rather than the DES channel sampler (whose cost is identical on every
path).
"""

from __future__ import annotations

import time

from oracles.serial import SerialSessionEngine

from repro.scenarios import SessionEngine, SweepExecutor, get_scenario

from conftest import emit, record_metric

#: Repetitions per measured session (the Fig. 8 heatmap uses 40 at paper scale).
REPETITIONS = 12

#: The batched kernel must beat the serial loop by at least this factor.
MIN_SPEEDUP = 3.0


def _spec(bench_scale, bench_seed, algorithm):
    return (
        get_scenario("bursty-loss", scale=bench_scale, seed=bench_seed)
        .with_(repetitions=REPETITIONS)
        .with_foreco(algorithm=algorithm)
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


def test_bench_batched_kernel_throughput(benchmark, bench_scale, bench_seed):
    """Serial vs batched vs process-parallel repetition throughput (MA, VAR)."""
    lines = [
        f"{'forecaster':<12s} {'serial':>10s} {'batched':>10s} {'process':>10s} "
        f"{'batch speedup':>14s}"
    ]
    speedups = {}
    results = {}
    for algorithm in ("ma", "var"):
        spec = _spec(bench_scale, bench_seed, algorithm)
        engine = SessionEngine()
        engine.run(spec.with_(repetitions=1))  # warm dataset/forecaster caches
        oracle = SerialSessionEngine()
        oracle.run(spec.with_(repetitions=1))

        t_serial, serial = _best_of(lambda: _rerun(oracle, spec))
        t_batched, batched = _best_of(lambda: _rerun(engine, spec))
        # Worker processes: one single-repetition shard per worker, the
        # multi-core route for grids whose sessions cannot share a cache.
        shards = [spec.with_(repetitions=1, seed=bench_seed + i) for i in range(4)]
        t_process, _ = _best_of(lambda: SweepExecutor(jobs=4).run(shards), rounds=1)

        assert serial.rmse_foreco_mm == batched.rmse_foreco_mm
        assert serial.rmse_no_forecast_mm == batched.rmse_no_forecast_mm
        speedups[algorithm] = t_serial / t_batched
        results[algorithm] = batched
        lines.append(
            f"{algorithm:<12s} {REPETITIONS / t_serial:>8.1f}/s {REPETITIONS / t_batched:>8.1f}/s "
            f"{len(shards) / t_process:>8.1f}/s x{speedups[algorithm]:>13.1f}"
        )

    def run():
        return SessionEngine().run(_spec(bench_scale, bench_seed, "var"))

    benchmark.pedantic(run, rounds=1, iterations=1)
    record_metric(
        "test_bench_batched_kernel_throughput",
        **{f"speedup_{name}": value for name, value in speedups.items()},
    )
    emit(
        f"Batched session kernel — {REPETITIONS} repetitions, bursty-loss, scale={bench_scale}",
        "\n".join(lines),
    )

    for algorithm, speedup in speedups.items():
        assert speedup >= MIN_SPEEDUP, (
            f"batched kernel only {speedup:.1f}x faster than the serial loop "
            f"for {algorithm!r} (required: {MIN_SPEEDUP}x)"
        )
