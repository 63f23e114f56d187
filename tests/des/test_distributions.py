"""Tests for repro.des.distributions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.distributions import (
    Deterministic,
    Exponential,
    HyperExponential,
    UniformDistribution,
)
from repro.errors import ConfigurationError


def test_deterministic_returns_constant(rng):
    dist = Deterministic(3.5)
    assert dist.sample(rng) == 3.5
    assert dist.mean() == 3.5
    assert np.all(dist.sample(rng, size=10) == 3.5)


def test_deterministic_rejects_negative():
    with pytest.raises(ConfigurationError):
        Deterministic(-1.0)


def test_exponential_mean_matches_rate(rng):
    dist = Exponential(rate=0.5)
    samples = dist.sample_many(rng, 20000)
    assert dist.mean() == pytest.approx(2.0)
    assert samples.mean() == pytest.approx(2.0, rel=0.1)


def test_exponential_rejects_non_positive_rate():
    with pytest.raises(ConfigurationError):
        Exponential(rate=0.0)


def test_uniform_mean_and_bounds(rng):
    dist = UniformDistribution(2.0, 6.0)
    samples = dist.sample_many(rng, 5000)
    assert dist.mean() == pytest.approx(4.0)
    assert samples.min() >= 2.0 and samples.max() <= 6.0


def test_uniform_rejects_inverted_bounds():
    with pytest.raises(ConfigurationError):
        UniformDistribution(5.0, 1.0)


def test_hyperexponential_mean_and_phase(rng):
    dist = HyperExponential(probs=[0.7, 0.3], rates=[1.0, 0.1])
    expected = 0.7 * 1.0 + 0.3 * 10.0
    assert dist.mean() == pytest.approx(expected)
    value, phase = dist.sample_with_phase(rng)
    assert value >= 0.0
    assert phase in (0, 1)


def test_hyperexponential_scv_at_least_one():
    dist = HyperExponential(probs=[0.5, 0.5], rates=[1.0, 0.05])
    assert dist.squared_coefficient_of_variation() >= 1.0


def test_hyperexponential_validates_inputs():
    with pytest.raises(ConfigurationError):
        HyperExponential(probs=[0.5, 0.4], rates=[1.0, 1.0])
    with pytest.raises(ConfigurationError):
        HyperExponential(probs=[0.5, 0.5], rates=[1.0, -1.0])
    with pytest.raises(ConfigurationError):
        HyperExponential(probs=[], rates=[])


@settings(max_examples=30, deadline=None)
@given(
    probs=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
    rates=st.lists(st.floats(0.05, 10.0), min_size=5, max_size=5),
)
def test_hyperexponential_mean_is_mixture_of_phase_means(probs, rates):
    """Property: the mixture mean equals the probability-weighted phase means."""
    probs_arr = np.asarray(probs)
    probs_arr = probs_arr / probs_arr.sum()
    rates_arr = np.asarray(rates[: probs_arr.size])
    dist = HyperExponential(probs=probs_arr, rates=rates_arr)
    assert dist.mean() == pytest.approx(float(np.sum(probs_arr / rates_arr)), rel=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 50.0))
def test_exponential_samples_non_negative(rate):
    """Property: exponential variates are never negative."""
    rng = np.random.default_rng(0)
    dist = Exponential(rate)
    assert np.all(dist.sample_many(rng, 100) >= 0.0)
