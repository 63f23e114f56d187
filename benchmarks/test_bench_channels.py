"""Benchmark: vectorized channel sampling vs the serial per-repetition loop.

Samples the same set of repetition seeds two ways — one serial
``sample_channel_delays`` call per repetition (the oracle of
``tests/oracles/serial.py``: the engine's pre-vectorization path, which
rebuilds the channel model and walks a Python loop per command)
and one ``sample_channel_delays_batch`` call (Bianchi fixed point solved
once, all repetitions advanced in lockstep ``(B, n)`` arrays) — and reports
repetition-sampling throughput per channel kind.

The ``congested-ap`` preset (the worst Fig. 8 cell: 25 robots, heavy
interference, the full AP queue simulation) must show at least a 3x batched
throughput gain; the other kinds are reported for context.  All rows must
agree bit-for-bit with the serial oracle.
"""

from __future__ import annotations

import time

import numpy as np
from oracles.serial import sample_channel_delays

from repro.scenarios import get_scenario, sample_channel_delays_batch

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


def test_bench_channel_sampling_throughput(benchmark, bench_seed):
    """Serial vs batched repetition-sampling throughput per channel kind."""
    seeds = [bench_seed + repetition for repetition in range(REPETITIONS)]
    lines = [f"{'channel':<22s} {'serial':>10s} {'batched':>10s} {'speedup':>9s}"]
    speedups = {}
    for name in REPORTED:
        channel = get_scenario(name).channel

        def run_serial():
            return np.stack(
                [sample_channel_delays(channel, N_COMMANDS, seed) for seed in seeds]
            )

        def run_batched():
            return sample_channel_delays_batch(channel, N_COMMANDS, seeds)

        t_serial, serial = _best_of(run_serial, rounds=1)
        t_batched, batched = _best_of(run_batched)
        assert np.array_equal(serial, batched), f"{name}: batched != serial oracle"
        speedups[name] = t_serial / t_batched
        lines.append(
            f"{name:<22s} {REPETITIONS / t_serial:>8.0f}/s {REPETITIONS / t_batched:>8.0f}/s "
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
        f"Vectorized channel sampling — {REPETITIONS} repetitions x {N_COMMANDS} commands",
        "\n".join(lines),
    )

    assert speedups["congested-ap"] >= MIN_SPEEDUP, (
        f"batched channel sampling only {speedups['congested-ap']:.1f}x faster than the "
        f"serial loop on congested-ap (required: {MIN_SPEEDUP}x)"
    )
