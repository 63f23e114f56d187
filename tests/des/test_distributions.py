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


def _untemper(word: int) -> int:
    """Invert MT19937's output tempering (the state word behind an output)."""

    def undo_right(value: int, shift: int) -> int:
        result = value
        for _ in range(32 // shift + 1):
            result = value ^ (result >> shift)
        return result & 0xFFFFFFFF

    def undo_left(value: int, shift: int, mask: int) -> int:
        result = value
        for _ in range(32 // shift + 1):
            result = value ^ ((result << shift) & mask)
        return result & 0xFFFFFFFF

    word = undo_right(word, 18)
    word = undo_left(word, 15, 0xEFC60000)
    word = undo_left(word, 7, 0x9D2C5680)
    return undo_right(word, 11)


def _generator_starting_with(uniforms) -> np.random.Generator:
    """An MT19937 generator whose first ``random()`` draws are exactly ``uniforms``.

    NumPy builds a double from two 32-bit outputs as ``((a >> 5) * 2**26 +
    (b >> 6)) / 2**53``, so each uniform ``k / 2**53`` is planted as the two
    state words that temper to ``(k >> 26) << 5`` and ``(k % 2**26) << 6``.
    """
    bit_generator = np.random.MT19937(0)
    key = bit_generator.state["state"]["key"].copy()
    for index, uniform in enumerate(uniforms):
        k = int(uniform * 2**53)
        assert k / 2**53 == uniform
        key[2 * index] = _untemper((k >> 26) << 5)
        key[2 * index + 1] = _untemper((k % 2**26) << 6)
    bit_generator.state = {"bit_generator": "MT19937", "state": {"key": key, "pos": 0}}
    return np.random.Generator(bit_generator)


def test_hyperexponential_phase_ties_match_generator_choice():
    """A uniform that lands exactly on a step of the phase CDF picks the phase
    ``Generator.choice`` picks (the next one, ``searchsorted(side="right")``),
    and a zero-probability phase is never picked.  Random seeds almost never
    hit a step, so the steps are planted in the stream."""
    from oracles.serial import hyperexponential_draw

    dist = HyperExponential(probs=[0.5, 0.0, 0.25, 0.25], rates=[1.0, 2.0, 0.5, 0.1])
    steps = [0.0, 0.5, 0.75, 0.25, 0.5 + 2.0**-53]
    assert _generator_starting_with(steps).random(len(steps)).tolist() == steps
    values = dist.sample(_generator_starting_with(steps), size=len(steps))
    expected, phases = hyperexponential_draw(dist, _generator_starting_with(steps), len(steps))
    assert phases.tolist() == [0, 2, 3, 0, 2]
    assert values.tobytes() == expected.tobytes()
    for step, phase in zip(steps, phases):
        assert dist.sample_with_phase(_generator_starting_with([step]))[1] == phase
