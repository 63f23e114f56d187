"""Benchmark: vectorized channel sampling vs the serial per-repetition loop.

Samples the same set of repetition seeds two ways — one serial
``sample_channel_delays`` call per repetition (the oracle of
``tests/oracles/serial.py``: the engine's pre-vectorization path, which
rebuilds the channel model and walks a Python loop per command)
and one ``sample_channel_delays_batch`` call (Bianchi fixed point solved
once, all repetitions advanced together in ``(B, n)`` arrays) — and reports
repetition-sampling throughput per channel kind.

The ``congested-ap`` preset (the worst Fig. 8 cell: 25 robots, heavy
interference, the full AP queue simulation) must show at least a 3x batched
throughput gain; the other kinds are reported for context, and so is the
Fig. 8 ci grid's mixed batch (one row per repetition of every heatmap cell,
each with its own station count and interference: the one AP-queue pass a
heatmap sweep makes).  All rows must agree bit-for-bit with the serial oracle.
"""

from __future__ import annotations

import time

import numpy as np
from oracles.serial import sample_channel_delays

from repro.experiments.common import (
    FIG8_DURATIONS,
    FIG8_PROBABILITIES,
    FIG8_ROBOT_COUNTS,
    base_scenario,
)
from repro.scenarios import (
    SessionEngine,
    get_scale,
    get_scenario,
    repetition_seed,
    sample_channel_delays_batch,
    scenario_grid,
    wireless_channel,
)

from conftest import emit, record_metric

#: Channel realisations per measurement (the Fig. 8 heatmap uses 40 at paper scale).
REPETITIONS = 40

#: Commands per realisation (a 30 s session at the paper's 50 Hz rate).
N_COMMANDS = 1500

#: The batched sampler must beat the serial loop by at least this factor
#: on the congested-ap preset.
MIN_SPEEDUP = 3.0

#: Kinds reported alongside the gated preset.
REPORTED = ("congested-ap", "jammer", "markov-interference", "handover", "trace-replay")


def _best_of(callable_, rounds: int = 3):
    """Minimum wall-clock over ``rounds`` runs (robust to scheduler noise)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def _fig8_grid_batch(seed: int):
    """``(channels, seeds, n_commands)`` of the Fig. 8 ci sweep's one sampler call.

    Built as :mod:`repro.experiments.fig8_simulation_heatmap` builds its grid;
    the rows are ordered as ``SessionEngine._simulate`` stacks them.
    """
    scale = get_scale("ci")
    base = base_scenario(
        "fig8",
        scale,
        seed,
        channel=wireless_channel(),
        repetitions=scale.heatmap_repetitions,
        run_seconds=scale.run_seconds * 2,
    )
    specs = scenario_grid(
        base,
        {
            "channel.n_robots": FIG8_ROBOT_COUNTS,
            "channel.probability": FIG8_PROBABILITIES,
            "channel.duration_slots": FIG8_DURATIONS,
        },
    )
    channels = [spec.channel for spec in specs for _ in range(spec.repetitions)]
    seeds = [repetition_seed(spec, rep) for spec in specs for rep in range(spec.repetitions)]
    return channels, seeds, SessionEngine().test_commands(base).shape[0]


def test_bench_channel_sampling_throughput(benchmark, bench_seed):
    """Serial vs batched repetition-sampling throughput per channel kind."""
    seeds = [bench_seed + repetition for repetition in range(REPETITIONS)]
    cases = [(name, [get_scenario(name).channel] * REPETITIONS, seeds, N_COMMANDS) for name in REPORTED]
    cases.append(("fig8-ci-grid", *_fig8_grid_batch(bench_seed)))
    lines = [f"{'channel':<22s} {'rows':>5s} {'serial':>10s} {'batched':>10s} {'speedup':>9s}"]
    speedups = {}
    for name, channels, row_seeds, n_commands in cases:

        def run_serial():
            return np.stack(
                [
                    sample_channel_delays(channel, n_commands, seed)
                    for channel, seed in zip(channels, row_seeds)
                ]
            )

        def run_batched():
            return sample_channel_delays_batch(channels, n_commands, row_seeds)

        t_serial, serial = _best_of(run_serial, rounds=1)
        t_batched, batched = _best_of(run_batched)
        assert np.array_equal(serial, batched), f"{name}: batched != serial oracle"
        speedups[name] = t_serial / t_batched
        rows = len(row_seeds)
        lines.append(
            f"{name:<22s} {rows:>5d} {rows / t_serial:>8.0f}/s {rows / t_batched:>8.0f}/s "
            f"x{speedups[name]:>8.1f}"
        )

    gated = get_scenario("congested-ap").channel
    benchmark.pedantic(
        lambda: sample_channel_delays_batch(gated, N_COMMANDS, seeds), rounds=1, iterations=1
    )
    record_metric(
        "test_bench_channel_sampling_throughput",
        **{f"speedup_{name}": value for name, value in speedups.items()},
    )
    emit(
        f"Vectorized channel sampling — presets: {REPETITIONS} repetitions x {N_COMMANDS} "
        f"commands; fig8-ci-grid: {len(cases[-1][2])} mixed rows x {cases[-1][3]} commands",
        "\n".join(lines),
    )

    assert speedups["congested-ap"] >= MIN_SPEEDUP, (
        f"batched channel sampling only {speedups['congested-ap']:.1f}x faster than the "
        f"serial loop on congested-ap (required: {MIN_SPEEDUP}x)"
    )
