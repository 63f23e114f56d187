"""Combinator-grammar contracts: bounded, deterministic, always runnable."""

from __future__ import annotations

import numpy as np
import pytest
from oracles.serial import sample_channel_delays

from repro.errors import ConfigurationError
from repro.scenarios import Knob, ScenarioGrammar, ScenarioSpec, sample_channel_delays_batch
from repro.scenarios.grammar import COMPOUND_STAGE_KINDS, GRAMMAR_KINDS

#: Command count of the default grammar base (6 s at 50 Hz) — the run length
#: every grammar candidate must stay feasible in.
BASE_COMMANDS = 300


@pytest.fixture(scope="module")
def grammar():
    """One default grammar shared by the module."""
    return ScenarioGrammar()


@pytest.fixture(scope="module")
def frontier(grammar):
    """The full enumerated frontier."""
    return grammar.enumerate_specs()


def test_frontier_is_bounded_unique_and_deterministic(grammar, frontier):
    assert len(frontier) == 94
    hashes = [spec.spec_hash() for spec in frontier]
    assert len(set(hashes)) == len(hashes)
    assert [spec.spec_hash() for spec in grammar.enumerate_specs()] == hashes


def test_frontier_round_robins_across_kinds(grammar):
    prefix = grammar.enumerate_specs(limit=len(GRAMMAR_KINDS))
    assert sorted(spec.channel.kind for spec in prefix) == sorted(GRAMMAR_KINDS)
    with pytest.raises(ConfigurationError):
        grammar.enumerate_specs(limit=0)


def test_every_candidate_is_a_frozen_named_spec(frontier):
    for spec in frontier:
        assert isinstance(spec, ScenarioSpec)
        assert spec.name == f"grammar-{spec.channel.kind}"
        assert hash(spec) == hash(spec)  # frozen and hashable
        with pytest.raises(AttributeError):
            spec.seed = 1  # type: ignore[misc]


def test_every_frontier_candidate_is_runnable(frontier):
    """Feasibility invariant: no grammar candidate fails injector placement.

    Sampling the channel exercises the same loss-injector validation as a
    full session run (burst placement, period/outage bounds) at a fraction
    of the cost; the serial oracle's per-class samplers validate on their
    own, so both must accept every candidate.
    """
    for spec in frontier:
        delays = sample_channel_delays_batch(spec.channel, BASE_COMMANDS, [1])
        assert np.array_equal(delays[0], sample_channel_delays(spec.channel, BASE_COMMANDS, seed=1))


def test_mutated_neighbors_stay_feasible(grammar):
    rng = np.random.default_rng(7)
    for _ in range(150):
        spec = grammar.random_spec(rng)
        for neighbor in grammar.neighbors(spec, rng, count=3):
            sample_channel_delays_batch(neighbor.channel, BASE_COMMANDS, [2])
            sample_channel_delays(neighbor.channel, BASE_COMMANDS, seed=2)


def test_neighbors_are_deterministic_given_rng(grammar, frontier):
    spec = frontier[0]
    first = grammar.neighbors(spec, np.random.default_rng(11), count=5)
    second = grammar.neighbors(spec, np.random.default_rng(11), count=5)
    assert [s.spec_hash() for s in first] == [s.spec_hash() for s in second]


def test_knob_jitter_respects_bounds_and_integrality():
    knob = Knob("n", (5, 10), 2, 12, integer=True)
    rng = np.random.default_rng(3)
    for _ in range(200):
        value = knob.jitter(10, rng)
        assert 2 <= value <= 12
        assert float(value).is_integer()
    bounded = Knob("p", (0.1,), 0.0, 0.2)
    for _ in range(200):
        assert 0.0 <= bounded.jitter(0.19, rng) <= 0.2


def test_grammar_rejects_bad_configuration():
    with pytest.raises(ConfigurationError):
        ScenarioGrammar(kinds=("bogus",))
    with pytest.raises(ConfigurationError):
        ScenarioGrammar(kinds=())
    with pytest.raises(ConfigurationError):
        ScenarioGrammar(base="not a spec")  # type: ignore[arg-type]


def test_restricted_grammar_only_emits_requested_kinds():
    grammar = ScenarioGrammar(kinds=("jammer", "handover"))
    kinds = {spec.channel.kind for spec in grammar.enumerate_specs()}
    assert kinds == {"jammer", "handover"}
    rng = np.random.default_rng(0)
    assert all(grammar.random_spec(rng).channel.kind in kinds for _ in range(20))


def test_compound_stages_are_grammar_kinds():
    assert set(COMPOUND_STAGE_KINDS) <= set(GRAMMAR_KINDS)
