"""Benchmark: the scenario sweep engine itself (serial vs parallel).

Measures a miniature Fig. 8-style grid through the
:class:`repro.scenarios.SweepExecutor` with 1 and 4 workers, verifies the
two runs produce identical tables (the engine's determinism guarantee), and
prints the resulting sweep table.
"""

from __future__ import annotations

from repro.scenarios import (
    ScenarioSpec,
    SessionEngine,
    SweepExecutor,
    get_scale,
    scenario_grid,
    wireless_channel,
)

from conftest import emit


def _specs(bench_scale, bench_seed):
    base = ScenarioSpec(
        name="bench-sweep",
        scale=get_scale(bench_scale),
        seed=bench_seed,
        channel=wireless_channel(),
        repetitions=2,
    )
    return scenario_grid(
        base,
        {
            "channel.n_robots": (5, 25),
            "channel.probability": (0.01, 0.05),
            "channel.duration_slots": (10, 100),
        },
    )


def test_bench_sweep_parallel(benchmark, bench_scale, bench_seed):
    """8-cell grid x 2 repetitions at ``jobs=4`` (one kernel group, run as one stacked pass)."""
    specs = _specs(bench_scale, bench_seed)
    # Warm the dataset/forecaster caches so the benchmark isolates the sweep.
    serial_engine = SessionEngine()
    serial = SweepExecutor(jobs=1, engine=serial_engine).run(specs)

    def run():
        return SweepExecutor(jobs=4).run(specs)

    parallel = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Sweep engine — 8 scenarios x 2 repetitions, 4 workers", parallel.to_table())

    assert len(parallel) == len(serial) == 8
    for row_a, row_b in zip(parallel, serial):
        assert row_a.spec_hash == row_b.spec_hash
        assert row_a.rmse_foreco_mm == row_b.rmse_foreco_mm
        assert row_a.rmse_no_forecast_mm == row_b.rmse_no_forecast_mm
