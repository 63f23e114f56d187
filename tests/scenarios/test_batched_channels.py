"""Bit-equality and semantics tests for the vectorized channel subsystem.

The serial ``sample_channel_delays`` of ``tests/oracles/serial.py`` (one
repetition per seed, through each kind's own model) is the oracle: for every
channel kind, ``sample_channel_delays_batch`` must reproduce the stacked
serial realisations exactly — not approximately.  The module also
pins down the compound-channel contract (delays add, losses union, stage
order never changes the loss set), the trace-replay phase cycling, and the
per-row form (one channel per seed) that stacks a sweep's specs.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles.serial import sample_channel_delays

import repro.scenarios
from repro.errors import ConfigurationError
from repro.scenarios import (
    ChannelSpec,
    clean_channel,
    compound_channel,
    compound_stage_seed,
    get_scenario,
    handover_channel,
    jammer_channel,
    loss_burst_channel,
    markov_interference_channel,
    periodic_loss_channel,
    random_loss_channel,
    sample_channel_delays_batch,
    scenario_names,
    trace_channel,
    wireless_channel,
)
from repro.wireless import WirelessChannel

N = 400
SEEDS = [11, 7777, 2**31 - 3, 123456789]

#: One spec per channel kind, sized so every kind exercises losses at N=400.
KIND_SPECS = {
    "clean": clean_channel(nominal_delay_ms=2.0),
    "wireless": wireless_channel(n_robots=25, probability=0.05, duration_slots=100),
    "jammer": jammer_channel(),
    "loss-burst": loss_burst_channel(burst_length=10, n_bursts=3, min_gap=30),
    "periodic-loss": periodic_loss_channel(period=60, burst_length=6),
    "random-loss": random_loss_channel(loss_probability=0.2),
    "trace": trace_channel((2.0, 4.0, float("inf"), 3.0, 2.5)),
    "markov-interference": markov_interference_channel(),
    "handover": handover_channel(period=80, outage=6),
    "compound": compound_channel(
        wireless_channel(n_robots=15, probability=0.025, duration_slots=50),
        jammer_channel(),
        markov_interference_channel(),
    ),
}


@pytest.mark.parametrize("kind", sorted(KIND_SPECS))
def test_batched_equals_serial_for_every_kind(kind):
    channel = KIND_SPECS[kind]
    serial = np.stack([sample_channel_delays(channel, N, seed) for seed in SEEDS])
    batched = sample_channel_delays_batch(channel, N, SEEDS)
    assert batched.shape == (len(SEEDS), N)
    assert np.array_equal(serial, batched)
    assert np.array_equal(repro.scenarios.sample_channel_delays(channel, N, SEEDS[0]), serial[0])


@pytest.mark.parametrize("kind", sorted(KIND_SPECS))
@pytest.mark.parametrize("n_commands", [0, -1, 2.5])
def test_both_entry_points_reject_bad_command_counts(kind, n_commands):
    with pytest.raises(ConfigurationError):
        sample_channel_delays_batch(KIND_SPECS[kind], n_commands, SEEDS)
    with pytest.raises(ConfigurationError):
        repro.scenarios.sample_channel_delays(KIND_SPECS[kind], n_commands, SEEDS[0])


@pytest.mark.parametrize("name", sorted(set(scenario_names())))
def test_batched_equals_serial_for_every_preset_channel(name):
    channel = get_scenario(name).channel
    serial = np.stack([sample_channel_delays(channel, N, seed) for seed in SEEDS[:2]])
    assert np.array_equal(serial, sample_channel_delays_batch(channel, N, SEEDS[:2]))


@pytest.mark.parametrize("kind", ["loss-burst", "periodic-loss", "random-loss"])
def test_loss_injectors_build_generators_only_for_the_row_seeds(kind, monkeypatch):
    built = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: built.append(seed) or default_rng(seed))
    sample_channel_delays_batch(KIND_SPECS[kind], N, SEEDS)
    assert built == SEEDS


def test_batch_sampler_rejects_empty_seed_list():
    with pytest.raises(ConfigurationError):
        sample_channel_delays_batch(clean_channel(), N, [])


def test_batch_sampler_rejects_a_string_of_seeds():
    """Regression: ``"12"`` used to be iterated into the seeds ``[1, 2]``."""
    with pytest.raises(ConfigurationError, match="non-negative integer"):
        sample_channel_delays_batch(KIND_SPECS["wireless"], N, "12")


def test_batch_sampler_rejects_fractional_seeds():
    """Regression: ``1.7`` used to be truncated to the seed ``1``."""
    with pytest.raises(ConfigurationError, match="non-negative integer"):
        sample_channel_delays_batch(KIND_SPECS["wireless"], N, [1.7])


def test_batch_sampler_rejects_boolean_seeds():
    """Regression: ``True`` used to be accepted as the seed ``1``."""
    with pytest.raises(ConfigurationError, match="non-negative integer"):
        sample_channel_delays_batch(KIND_SPECS["jammer"], N, [3, True])


def test_batch_sampler_rejects_negative_seeds():
    """Regression: ``-1`` used to escape as NumPy's raw ``ValueError``."""
    with pytest.raises(ConfigurationError, match="non-negative integer"):
        sample_channel_delays_batch(KIND_SPECS["wireless"], N, [-1])


def test_batch_sampler_accepts_numpy_integer_seeds():
    channel = KIND_SPECS["compound"]
    as_numpy = sample_channel_delays_batch(channel, N, np.array(SEEDS, dtype=np.int64))
    assert np.array_equal(as_numpy, sample_channel_delays_batch(channel, N, SEEDS))


@pytest.mark.parametrize("kind", sorted(KIND_SPECS))
@pytest.mark.parametrize("period", [0, -20.0, float("nan"), float("inf")])
def test_batch_sampler_rejects_bad_command_period_for_every_kind(kind, period):
    """Regression: only wireless rows used to check ``command_period_ms``."""
    with pytest.raises(ConfigurationError, match="command_period_ms"):
        sample_channel_delays_batch(KIND_SPECS[kind], N, SEEDS, command_period_ms=period)


# ------------------------------------------------------------------- compound
def test_compound_delays_add_and_losses_union():
    lossy = periodic_loss_channel(period=50, burst_length=5, nominal_delay_ms=1.5)
    steady = clean_channel(nominal_delay_ms=3.0)
    compound = compound_channel(lossy, steady)
    delays = sample_channel_delays(compound, N, seed=5)
    # A lost stage propagates: the periodic stage's inf survives the sum.
    lost = ~np.isfinite(delays)
    assert np.array_equal(lost, ~np.isfinite(sample_channel_delays(lossy, N, compound_stage_seed(5, lossy))))
    assert lost.sum() == N // 50 * 5
    # Delivered commands carry the summed delay of every stage.
    assert np.allclose(delays[~lost], 4.5)


def test_compound_stage_order_does_not_change_the_loss_set():
    stage_a = jammer_channel()
    stage_b = markov_interference_channel()
    stage_c = random_loss_channel(loss_probability=0.1)
    forward = sample_channel_delays(compound_channel(stage_a, stage_b, stage_c), N, seed=9)
    reversed_ = sample_channel_delays(compound_channel(stage_c, stage_b, stage_a), N, seed=9)
    # Per-stage seeds key on stage *content*, so permuting stages permutes
    # only the summation order: the loss set is identical and the delivered
    # delays agree up to float addition order.
    assert np.array_equal(np.isinf(forward), np.isinf(reversed_))
    finite = np.isfinite(forward)
    assert np.allclose(forward[finite], reversed_[finite])


def test_compound_duplicate_stages_get_distinct_seeds():
    stage = random_loss_channel(loss_probability=0.3)
    doubled = compound_channel(stage, stage)
    delays = sample_channel_delays(doubled, N, seed=4)
    single = sample_channel_delays(stage, N, compound_stage_seed(4, stage, occurrence=0))
    other = sample_channel_delays(stage, N, compound_stage_seed(4, stage, occurrence=1))
    # The two occurrences draw decorrelated realisations, not the same one.
    assert not np.array_equal(np.isinf(single), np.isinf(other))
    assert np.array_equal(np.isinf(delays), np.isinf(single) | np.isinf(other))


def test_compound_stage_seeds_are_hash_decorrelated():
    """Regression: the old additive ``seed + 9973*(k+1)`` scheme let dense
    repetition seeds collide across stages; the hash derivation must not."""
    stage = jammer_channel()
    other = markov_interference_channel()
    seeds = {compound_stage_seed(seed, stage) for seed in range(2000)}
    assert len(seeds) == 2000  # no collisions across dense base seeds
    assert compound_stage_seed(3, stage) != compound_stage_seed(3, other)
    # Stage seeds never alias the base repetition stream shifted by a constant.
    deltas = {compound_stage_seed(seed, stage) - seed for seed in range(100)}
    assert len(deltas) > 1


def test_compound_rejects_empty_stages():
    with pytest.raises(ConfigurationError):
        sample_channel_delays(ChannelSpec.make("compound", stages=()), N, seed=1)
    with pytest.raises(ConfigurationError):
        sample_channel_delays_batch(ChannelSpec.make("compound", stages=()), N, [1])


# --------------------------------------------------------------------- trace
def test_trace_channel_cycles_with_phase_offsets():
    recording = (1.0, 2.0, 3.0, float("inf"), 5.0)
    base = np.array(recording)
    cycled = np.tile(base, 4)[:12]
    channel = trace_channel(recording)
    # Every realisation is the recording cycled from some seed-derived phase,
    # and different seeds land on different phases.
    starts = set()
    for seed in range(10):
        delays = sample_channel_delays(channel, 12, seed=seed)
        matches = [
            offset
            for offset in range(len(recording))
            if np.array_equal(delays, np.tile(np.roll(base, -offset), 4)[:12])
        ]
        assert len(matches) == 1, f"seed {seed} is not a cyclic replay"
        starts.add(matches[0])
    assert len(starts) > 1  # repetitions start at different phases
    # Fixed-phase replay is available for regression-style runs.
    fixed = trace_channel(recording, cycle_offsets=False)
    assert np.array_equal(sample_channel_delays(fixed, 12, seed=1), cycled)
    assert np.array_equal(sample_channel_delays(fixed, 12, seed=99), cycled)


def test_trace_channel_validation():
    with pytest.raises(ConfigurationError):
        trace_channel(())
    with pytest.raises(ConfigurationError):
        trace_channel((1.0, -2.0))
    with pytest.raises(ConfigurationError):
        trace_channel((1.0, float("nan")))


# ------------------------------------------------------------ per-row channels
def _serial_rows(channels, seeds, n=N) -> np.ndarray:
    return np.stack([sample_channel_delays(c, n, seed) for c, seed in zip(channels, seeds)])


def test_per_row_wireless_channels_equal_per_spec_sampling():
    grid = [
        wireless_channel(n_robots=5, probability=0.0, duration_slots=0),
        wireless_channel(n_robots=25, probability=0.05, duration_slots=100),
        wireless_channel(n_robots=15, probability=0.025, duration_slots=50),
        wireless_channel(n_robots=25, probability=0.01, duration_slots=10),
    ]
    channels = [grid[0], grid[1], grid[1], grid[2], grid[3], grid[0], grid[2]]
    seeds = [11 * row + 5 for row in range(len(channels))]
    stacked = sample_channel_delays_batch(channels, N, seeds)
    assert stacked.shape == (len(channels), N)
    assert np.array_equal(stacked, _serial_rows(channels, seeds))


def test_per_row_admission_repair_uses_the_rows_own_channel(monkeypatch):
    """A tiny buffer forces one row through repair; the others stay optimistic."""
    tight = wireless_channel(n_robots=25, probability=0.05, duration_slots=100, queue_capacity=2)
    roomy = wireless_channel(n_robots=25, probability=0.05, duration_slots=100)
    channels = [roomy, tight, roomy]
    seeds = [3, 4, 5]
    repaired = []
    original = WirelessChannel._medium_delays

    def spy(self, n_commands, rng=None):
        repaired.append(self.queue_capacity)
        return original(self, n_commands, rng)

    monkeypatch.setattr(WirelessChannel, "_medium_delays", spy)
    stacked = sample_channel_delays_batch(channels, N, seeds)
    assert repaired == [2]  # only the tight row was re-sampled, through its own channel
    monkeypatch.undo()
    oracle = _serial_rows(channels, seeds)
    assert np.array_equal(stacked, oracle)
    assert np.isinf(oracle[1]).sum() > np.isinf(oracle[0]).sum()  # drops reshaped the row


def test_per_row_mixed_kinds_scatter_back_in_order():
    channels = [
        KIND_SPECS["compound"],
        KIND_SPECS["wireless"],
        KIND_SPECS["jammer"],
        wireless_channel(n_robots=5, probability=0.02, duration_slots=30),
        KIND_SPECS["jammer"],
        KIND_SPECS["compound"],
        KIND_SPECS["clean"],
    ]
    seeds = [101, 202, 303, 404, 505, 606, 707]
    assert np.array_equal(
        sample_channel_delays_batch(channels, N, seeds), _serial_rows(channels, seeds)
    )


def test_per_row_channels_must_align_with_seeds():
    with pytest.raises(ConfigurationError):
        sample_channel_delays_batch([clean_channel(), jammer_channel()], N, [1, 2, 3])
    with pytest.raises(ConfigurationError):
        sample_channel_delays_batch([], N, [1])
