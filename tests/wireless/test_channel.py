"""Tests for the wireless channel trace generator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles.queueing import FiniteQueueSimulator
from oracles.serial import draw_queue_randomness, hyperexponential_draw

from repro._validation import rng_from
from repro.des.distributions import Deterministic
from repro.errors import ConfigurationError
from repro.wireless import (
    DcfParameters,
    Ieee80211DelayModel,
    InterferenceSource,
    WirelessChannel,
    expected_delay_bound,
    sample_wireless_delays_batch,
)
from repro.wireless import channel as channel_module
from repro.wireless.channel import ChannelSample, CommandDelayTrace


def test_trace_container_metrics():
    trace = CommandDelayTrace(
        samples=[
            ChannelSample(0, 1.0, False),
            ChannelSample(1, 30.0, False),
            ChannelSample(2, float("inf"), True),
        ]
    )
    assert len(trace) == 3
    assert trace.loss_rate() == pytest.approx(1 / 3)
    assert trace.late_rate(20.0) == pytest.approx(2 / 3)
    assert trace.mean_delivered_delay() == pytest.approx(15.5)
    assert trace.longest_outage(20.0) == 2


def test_clean_channel_mostly_on_time():
    channel = WirelessChannel(n_robots=5, seed=0)
    trace = channel.sample_trace(500)
    assert trace.late_rate(20.0) < 0.05
    assert trace.loss_rate() < 0.02
    assert trace.mean_delivered_delay() < 5.0


def test_interference_increases_late_and_outages():
    clean = WirelessChannel(n_robots=5, seed=1).sample_trace(800)
    jammed = WirelessChannel(
        n_robots=5, interference=InterferenceSource(0.05, 100), seed=1
    ).sample_trace(800)
    assert jammed.late_rate(20.0) > clean.late_rate(20.0)
    assert jammed.longest_outage(20.0) > clean.longest_outage(20.0)


def test_late_rate_grows_with_interference_probability():
    rates = []
    for probability in (0.01, 0.025, 0.05):
        channel = WirelessChannel(
            n_robots=5, interference=InterferenceSource(probability, 50), seed=3
        )
        rates.append(channel.sample_trace(1500).late_rate(20.0))
    assert rates[0] < rates[1] < rates[2]


def test_late_rate_grows_with_robots_under_interference():
    rates = []
    for robots in (5, 25):
        channel = WirelessChannel(
            n_robots=robots, interference=InterferenceSource(0.025, 50), seed=4
        )
        rates.append(channel.sample_trace(1500).late_rate(20.0))
    assert rates[0] <= rates[1] + 0.02  # more robots never makes the channel better


def test_duty_cycle_and_burst_duration():
    channel = WirelessChannel(n_robots=5, interference=InterferenceSource(0.05, 100))
    assert channel.burst_duration_ms() == pytest.approx(150.0)
    assert 0.0 < channel.interference_duty_cycle() < 1.0
    quiet = WirelessChannel(n_robots=5)
    assert quiet.interference_duty_cycle() == 0.0
    assert quiet.mean_gap_ms() == float("inf")


def test_direct_sampling_path():
    channel = WirelessChannel(n_robots=15, seed=6)
    trace = channel.sample_trace(400, use_queue=False)
    delays = trace.delays()
    delivered = delays[np.isfinite(delays)]
    assert delivered.size > 0
    assert np.all(delivered >= 0.0)


def test_expected_late_probability_monotone_in_interference():
    mild = WirelessChannel(n_robots=5, interference=InterferenceSource(0.01, 10))
    heavy = WirelessChannel(n_robots=5, interference=InterferenceSource(0.05, 100))
    assert heavy.expected_late_probability(20.0) > mild.expected_late_probability(20.0)


def test_invalid_parameters_rejected():
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        WirelessChannel(command_period_ms=0.0)
    with pytest.raises(ReproError):
        WirelessChannel(n_robots=0)


def test_trace_reproducible_with_seed():
    a = WirelessChannel(n_robots=5, interference=InterferenceSource(0.025, 50), seed=42)
    b = WirelessChannel(n_robots=5, interference=InterferenceSource(0.025, 50), seed=42)
    assert np.array_equal(a.sample_trace(300).delays(), b.sample_trace(300).delays())


def test_dcf_params_not_mutated_by_channel():
    """Regression: one DcfParameters instance can configure several channels.

    The constructor used to override ``n_stations`` and ``interference`` on
    the caller's object in place, so the second channel silently inherited
    the first one's station count."""
    shared = DcfParameters(n_stations=7)
    original_interference = shared.interference
    first = WirelessChannel(n_robots=5, dcf_params=shared)
    second = WirelessChannel(
        n_robots=25, dcf_params=shared, interference=InterferenceSource(0.05, 100)
    )
    assert shared.n_stations == 7
    assert shared.interference is original_interference
    assert first.params.n_stations == 5
    assert second.params.n_stations == 25


class _UnitContention:
    """Stub contention model: deterministic service, no air loss."""

    def __init__(self, service_ms: float) -> None:
        self._service = Deterministic(service_ms)
        self.loss_probability = 0.0

    def service_distribution(self) -> Deterministic:
        return self._service


def test_queue_capacity_one_admits_one_command():
    """Regression: a buffer of capacity ``Q`` holds ``Q`` commands, not ``Q+1``.

    With a 30 ms deterministic service, 20 ms arrivals and ``Q = 1``, every
    other command must find the single buffer slot occupied and be dropped;
    the old ``backlog > Q`` admission admitted the whole stream and let the
    sojourn time grow without bound."""
    channel = WirelessChannel(n_robots=5, queue_capacity=1, seed=0)
    channel.contention_model = _UnitContention(30.0)
    delays = channel._medium_delays(12)
    assert np.array_equal(np.isfinite(delays), np.arange(12) % 2 == 0)
    # Admitted commands wait only for their own service: the backlog that the
    # unbounded-admission bug accumulated can no longer build up.
    assert np.all(delays[np.isfinite(delays)] == 30.0)
    # The batched path applies the same admission rule.
    batched = channel.sample_delays_batch(12, [0, 1, 2])
    assert np.array_equal(np.isfinite(batched), np.tile(np.arange(12) % 2 == 0, (3, 1)))


def test_batched_sampling_matches_serial_oracle():
    """(B, n) batched rows are bit-identical to per-seed serial sampling."""
    channel = WirelessChannel(n_robots=25, interference=InterferenceSource(0.05, 100))
    seeds = [3, 17, 123456789]
    batched = channel.sample_delays_batch(400, seeds)
    assert batched.shape == (3, 400)
    for row, seed in enumerate(seeds):
        serial = WirelessChannel(
            n_robots=25, interference=InterferenceSource(0.05, 100), seed=seed
        ).sample_trace(400).delays()
        assert np.array_equal(batched[row], serial)


def _sample_ap(channel: WirelessChannel, sampler: str, n_commands: int) -> np.ndarray:
    """Delays of one repetition from the busy-period batch sampler or the serial trace."""
    if sampler == "batch":
        return channel.sample_delays_batch(n_commands, [0])[0]
    return channel.sample_trace(n_commands).delays()


@pytest.mark.parametrize("sampler", ["batch", "trace"])
@pytest.mark.parametrize(
    ("n_robots", "period_ms", "capacity"),
    [(5, 20.0, 50), (30, 20.0, 50), (15, 2.0, 5), (30, 3.0, 2)],
)
def test_ap_sampler_matches_event_driven_queue(n_robots, period_ms, capacity, sampler):
    """Without interference the AP sampler is the D/HEXP/1/Q queue: it agrees
    in distribution with the event-driven queue, which shares none of its
    code or random-number order.  ``batch`` is the busy-period sampler every
    session uses; ``trace`` is the serial path of ``sample_trace``.  The last
    two rows load the server (ρ ≈ 0.8 and 0.9) into a small buffer, so
    waiting and buffer drops both count."""
    n_commands = 20000
    channel = WirelessChannel(
        n_robots=n_robots, command_period_ms=period_ms, queue_capacity=capacity, seed=0
    )
    sampled = _sample_ap(channel, sampler, n_commands)
    contention = channel.contention_model
    queue = FiniteQueueSimulator(
        arrival=Deterministic(period_ms),
        service=contention.service_distribution(),
        capacity=capacity - 1,  # the oracle's buffer excludes the frame in service
        loss_probability=contention.loss_probability,
        seed=0,
    )
    queue.run(n_commands)
    reference = np.array(list(queue.sojourn_times()))
    assert np.isfinite(sampled).mean() == pytest.approx(np.isfinite(reference).mean(), abs=0.03)
    sampled, reference = sampled[np.isfinite(sampled)], reference[np.isfinite(reference)]
    assert sampled.mean() == pytest.approx(reference.mean(), rel=0.1)
    assert np.quantile(sampled, 0.9) == pytest.approx(np.quantile(reference, 0.9), rel=0.1)


@pytest.mark.parametrize("n_robots", [1, 2, 5])
def test_ap_sampler_light_load_mean_matches_lemma1_bound(n_robots):
    """At light load (ρ ≤ 3 %) a delivered command almost never waits, so the
    busy-period sampler's mean delay is Lemma 1's bound at ``D = 0``."""
    channel = WirelessChannel(n_robots=n_robots, seed=0)
    delays = channel.sample_delays_batch(20000, [0])[0]
    delivered = delays[np.isfinite(delays)]
    assert delivered.mean() == pytest.approx(expected_delay_bound(channel.contention_model, 0.0), rel=0.05)


def test_batched_sampling_rejects_empty_seeds():
    with pytest.raises(ConfigurationError):
        WirelessChannel(n_robots=5).sample_delays_batch(100, [])


#: One channel's constructor arguments: ``(n_robots, p_if, T_if, Q, block, loss)``.
#: Capacities 1-2 force the admission repair; 10**6 keeps every row on the
#: frontier rounds.  ``p_if = 0`` is no interference; 2,000 slots (3 s) is
#: longer than any session drawn here.
_CHANNEL_ARGS = st.tuples(
    st.integers(1, 30),
    st.sampled_from([0.0, 0.05, 0.5, 0.9, 1.0]),
    st.sampled_from([1, 10, 100, 300, 2000]),
    st.sampled_from([1, 2, 5, 50, 10**6]),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([0.0, 0.6, 1.0]),
)


def _channel(n_robots, probability, duration, capacity, block, loss) -> WirelessChannel:
    return WirelessChannel(
        n_robots=n_robots,
        interference=InterferenceSource(probability, duration),
        queue_capacity=capacity,
        interference_block_probability=block,
        interference_loss_probability=loss,
    )


@settings(max_examples=60, deadline=None)
@given(
    pool=st.lists(_CHANNEL_ARGS, min_size=1, max_size=3),
    rows=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2**32 - 1)), min_size=1, max_size=6),
    n_commands=st.integers(1, 120),
)
@example(pool=[(5, 0.5, 100, 50, 1.0, 0.6)], rows=[(0, 1)], n_commands=1)
@example(pool=[(25, 1.0, 100, 10**6, 1.0, 1.0)], rows=[(0, 3), (0, 4)], n_commands=120)
@example(pool=[(25, 0.9, 300, 1, 1.0, 0.6), (5, 0.5, 10, 2, 0.5, 0.0)], rows=[(0, 5), (1, 6)], n_commands=80)
@example(
    pool=[(10, 0.0, 1, 10**6, 1.0, 0.6), (10, 0.5, 300, 10**6, 0.0, 0.6)],
    rows=[(0, 7), (1, 8)],
    n_commands=60,
)
@example(pool=[(3, 1.0, 2000, 10**6, 0.5, 0.6)], rows=[(0, 9), (0, 10)], n_commands=50)
def test_batched_mixed_channels_equal_serial_oracle(pool, rows, n_commands):
    """Property: a batch over mixed per-row channels is bit-identical to each
    row's serial ``_medium_delays`` on its own seed's stream."""
    channels = [_channel(*args) for args in pool]
    row_channels = [channels[pick % len(channels)] for pick, _ in rows]
    seeds = [seed for _, seed in rows]
    batched = sample_wireless_delays_batch(row_channels, n_commands, seeds)
    assert batched.shape == (len(rows), n_commands)
    for row, (channel, seed) in enumerate(zip(row_channels, seeds)):
        assert np.array_equal(batched[row], channel._medium_delays(n_commands, rng_from(seed)))


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(args=_CHANNEL_ARGS, seed=st.integers(0, 2**32 - 1), n_commands=st.integers(1, 3000))
@example(args=(5, 0.0, 1, 50, 1.0, 0.6), seed=0, n_commands=1)
@example(args=(5, 1.0, 1, 50, 1.0, 0.6), seed=1, n_commands=3000)
@example(args=(5, 1.0, 2000, 50, 1.0, 0.6), seed=2, n_commands=3000)
@example(args=(25, 0.05, 100, 50, 1.0, 0.6), seed=3, n_commands=2063)
def test_queue_randomness_equals_per_variate_reference(args, seed, n_commands):
    """Property: the block draws of ``_draw_queue_randomness`` (one block of
    burst gaps with a rewind, the hyper-exponential's precomputed CDF) equal
    the per-variate reference draws bit for bit, and leave the stream at the
    same position.  The batch-vs-serial property above cannot see a wrong
    draw: both of its sides draw through this one helper."""
    channel = _channel(*args)
    rng, reference = rng_from(seed), rng_from(seed)
    (on_start, on_end), *arrays = channel._draw_queue_randomness(rng, n_commands)
    intervals, *expected = draw_queue_randomness(channel, reference, n_commands)
    assert _same_bits(on_start, np.array([start for start, _ in intervals], dtype=float))
    assert _same_bits(on_end, np.array([end for _, end in intervals], dtype=float))
    for got, want in zip(arrays, expected):
        assert _same_bits(got, want)
    assert rng.random() == reference.random()
    # The one-variate forms draw like a one-element block.
    service = channel.contention_model.service_distribution()
    values, _ = hyperexponential_draw(service, reference, 1)
    assert _same_bits(service.sample(rng), float(values[0]))
    values, phases = hyperexponential_draw(service, reference, 1)
    assert service.sample_with_phase(rng) == (float(values[0]), int(phases[0]))
    assert rng.random() == reference.random()


def test_equal_dcf_parameters_share_one_memoised_contention_model():
    """Channels with equal DCF parameters share one contention model (one
    Bianchi solve), equal field for field to a freshly built one, and no
    later mutation of a caller's or a channel's parameters reaches it."""
    caller = DcfParameters(cw_min=32)
    first = WirelessChannel(n_robots=7, dcf_params=caller)
    second = WirelessChannel(
        n_robots=7, dcf_params=DcfParameters(cw_min=32), interference=InterferenceSource(0.05, 100)
    )
    model = first.contention_model
    assert second.contention_model is model
    assert second.contention_model.service_distribution() is model.service_distribution()

    fresh = Ieee80211DelayModel(DcfParameters(n_stations=7, cw_min=32))
    assert model.solution == fresh.solution
    assert np.array_equal(
        model.retransmission_distribution.probabilities,
        fresh.retransmission_distribution.probabilities,
    )
    assert np.array_equal(model.per_retransmission_delays_ms, fresh.per_retransmission_delays_ms)
    assert model.loss_probability == fresh.loss_probability
    assert np.array_equal(model.service_distribution().probs, fresh.service_distribution().probs)
    assert np.array_equal(model.service_distribution().rates, fresh.service_distribution().rates)

    caller.cw_min = 64
    first.params.interference.probability = 0.5
    first.params.interference.duration_slots = 10
    first.params.cw_min = 128
    assert model.params.cw_min == 32 and not model.params.interference.is_active
    assert second.params.cw_min == 32
    assert WirelessChannel(n_robots=7, dcf_params=DcfParameters(cw_min=32)).contention_model is model
    changed = WirelessChannel(n_robots=7, dcf_params=caller).contention_model
    assert changed is not model and changed.params.cw_min == 64


def test_contention_memo_is_bounded():
    for payload_bits in range(1, channel_module._MAX_CONTENTION_MODELS + 10):
        WirelessChannel(n_robots=3, dcf_params=DcfParameters(payload_bits=payload_bits))
    assert len(channel_module._contention_models) == channel_module._MAX_CONTENTION_MODELS


def test_channel_stream_is_built_on_first_use():
    """Batched sampling never reads a channel's own stream, so it is not
    built until something does; then it is the stream of the seed."""
    channel = WirelessChannel(n_robots=5, seed=11)
    channel.sample_delays_batch(50, [1, 2])
    assert "rng" not in vars(channel)
    assert channel.rng is channel.rng
    assert channel.rng.random() == rng_from(11).random()


@settings(max_examples=10, deadline=None)
@given(n_robots=st.integers(1, 30), probability=st.floats(0.0, 0.1), duration=st.integers(0, 150))
def test_lazy_delay_model_equals_eager_model(n_robots, probability, duration):
    """``delay_model`` is built on first access and equals the model built
    eagerly from the same parameters."""
    interference = InterferenceSource(probability, duration)
    channel = WirelessChannel(n_robots=n_robots, interference=interference)
    assert "delay_model" not in vars(channel)
    lazy = channel.delay_model
    assert channel.delay_model is lazy
    eager = Ieee80211DelayModel(DcfParameters(n_stations=n_robots, interference=interference))
    assert lazy.solution == eager.solution
    assert np.array_equal(
        lazy.retransmission_distribution.probabilities,
        eager.retransmission_distribution.probabilities,
    )
    assert lazy.loss_probability == eager.loss_probability
    assert np.array_equal(lazy.per_retransmission_delays_ms, eager.per_retransmission_delays_ms)
