"""Tests for the jammer model and the controlled loss injectors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChannelError, ConfigurationError
from repro.wireless.jammer import GilbertElliottJammer, JammerConfig
from repro.wireless.lossgen import (
    ConsecutiveLossInjector,
    PeriodicLossInjector,
    RandomLossInjector,
)


# --------------------------------------------------------------------- jammer
def test_jammer_config_validation():
    with pytest.raises(ConfigurationError):
        JammerConfig(p_good_to_jammed=1.5)
    with pytest.raises(ConfigurationError):
        JammerConfig(delay_good_ms=-1.0)


def test_jammer_stationary_fraction_and_burst_length():
    config = JammerConfig(p_good_to_jammed=0.05, p_jammed_to_good=0.20)
    assert config.stationary_jammed_fraction() == pytest.approx(0.2)
    assert config.mean_burst_length() == pytest.approx(5.0)
    with pytest.raises(ChannelError):
        JammerConfig(p_jammed_to_good=0.0).mean_burst_length()


def test_jammer_produces_bursty_losses():
    jammer = GilbertElliottJammer(seed=0)
    trace = jammer.sample_trace(3000)
    assert 0.0 < trace.loss_rate() < 1.0
    # Losses must be bursty: the longest outage exceeds what i.i.d. losses of
    # the same rate would plausibly produce.
    assert trace.longest_outage(20.0) >= 5


def test_jammer_jammed_share_close_to_stationary():
    config = JammerConfig(p_good_to_jammed=0.05, p_jammed_to_good=0.10)
    jammer = GilbertElliottJammer(config, seed=1)
    mask = jammer.jammed_mask(20000)
    assert mask.mean() == pytest.approx(config.stationary_jammed_fraction(), abs=0.05)


def test_jammer_reset_returns_to_good_state():
    jammer = GilbertElliottJammer(seed=2)
    jammer.sample_trace(200)
    jammer.reset()
    assert jammer.state == GilbertElliottJammer.GOOD


def test_jammer_rejects_empty_trace():
    with pytest.raises(ChannelError):
        GilbertElliottJammer(seed=0).sample_trace(0)


def test_jammer_more_jamming_means_more_loss():
    light = GilbertElliottJammer(JammerConfig(p_good_to_jammed=0.01), seed=3).sample_trace(4000)
    heavy = GilbertElliottJammer(JammerConfig(p_good_to_jammed=0.10), seed=3).sample_trace(4000)
    assert heavy.loss_rate() > light.loss_rate()


# ------------------------------------------------------------- loss injectors
def test_consecutive_injector_burst_lengths():
    injector = ConsecutiveLossInjector(burst_length=10, n_bursts=3, min_gap=20, seed=0)
    mask = injector.lost_mask(600)
    runs = _run_lengths(mask)
    assert len(runs) == 3
    assert all(r == 10 for r in runs)


def test_consecutive_injector_rejects_impossible_fit():
    injector = ConsecutiveLossInjector(burst_length=50, n_bursts=5, min_gap=50, seed=0)
    with pytest.raises(ConfigurationError):
        injector.lost_mask(100)


def test_consecutive_injector_trace_has_inf_for_losses():
    injector = ConsecutiveLossInjector(burst_length=5, n_bursts=2, min_gap=10, seed=1)
    trace = injector.to_trace(200, nominal_delay_ms=2.0)
    delays = trace.delays()
    assert np.isinf(delays).sum() == 10
    finite = delays[np.isfinite(delays)]
    assert np.all(finite == 2.0)


def test_periodic_injector_pattern():
    injector = PeriodicLossInjector(burst_length=2, period=10, offset=3)
    mask = injector.lost_mask(30)
    assert list(np.where(mask)[0]) == [3, 4, 13, 14, 23, 24]
    with pytest.raises(ConfigurationError):
        PeriodicLossInjector(burst_length=10, period=10)


def test_seeded_injector_masks_are_pinned():
    """The lazily built stream is the seed's stream, advanced call by call."""
    burst = ConsecutiveLossInjector(3, n_bursts=2, min_gap=5, seed=7)
    assert "rng" not in vars(burst)
    masks = [np.flatnonzero(burst.lost_mask(40)).tolist() for _ in range(2)]
    assert masks == [[11, 12, 13, 29, 30, 31], [12, 13, 14, 26, 27, 28]]
    iid = RandomLossInjector(0.2, seed=7)
    masks = [np.flatnonzero(iid.lost_mask(30)).tolist() for _ in range(2)]
    assert masks == [[6, 21, 23, 24], [2, 3, 7, 9, 16, 22, 25]]


def test_random_injector_rate():
    injector = RandomLossInjector(0.2, seed=0)
    mask = injector.lost_mask(20000)
    assert mask.mean() == pytest.approx(0.2, abs=0.02)


@settings(max_examples=20, deadline=None)
@given(
    burst=st.integers(1, 25),
    n_bursts=st.integers(1, 4),
    n_commands=st.integers(500, 1500),
)
def test_consecutive_injector_total_losses_match(burst, n_bursts, n_commands):
    """Property: the injector drops exactly burst_length * n_bursts commands."""
    injector = ConsecutiveLossInjector(burst_length=burst, n_bursts=n_bursts, min_gap=30, seed=5)
    mask = injector.lost_mask(n_commands)
    assert mask.sum() == burst * n_bursts


def _run_lengths(mask: np.ndarray) -> list[int]:
    runs, current = [], 0
    for value in mask:
        if value:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    if current:
        runs.append(current)
    return runs


@pytest.mark.parametrize(
    "burst, n_bursts, min_gap, n_commands",
    [
        (3, 2, 5, 40),  # odd gap: half a gap is rounded down before the first burst
        (10, 5, 60, 1500),  # the loss-burst presets' shape
        (4, 3, 7, 33),  # required == n_commands: no slack to spread
        (25, 1, 50, 400),  # one burst
        (1, 4, 0, 9),  # no gap at all
    ],
)
def test_consecutive_batch_equals_per_seed_masks(burst, n_bursts, min_gap, n_commands):
    """Each stacked row equals the mask a fresh injector draws from that row's seed."""
    seeds = [0, 7, 12345, 2**32 - 1, *range(100, 140)]
    injector = ConsecutiveLossInjector(burst, n_bursts=n_bursts, min_gap=min_gap)
    batch = injector.lost_mask_batch(n_commands, seeds)
    fresh = [ConsecutiveLossInjector(burst, n_bursts=n_bursts, min_gap=min_gap, seed=seed) for seed in seeds]
    serial = np.stack([one.lost_mask(n_commands) for one in fresh])
    assert batch.dtype == serial.dtype == bool
    np.testing.assert_array_equal(batch, serial)
    assert (batch.sum(axis=1) == burst * n_bursts).all()
    assert "rng" not in vars(injector)


def test_consecutive_batch_refuses_bursts_that_do_not_fit():
    injector = ConsecutiveLossInjector(4, n_bursts=3, min_gap=7)
    with pytest.raises(ConfigurationError, match="cannot place 3 bursts"):
        injector.lost_mask_batch(32, [0, 1])
    with pytest.raises(ConfigurationError):
        injector.lost_mask_batch(33, [])
