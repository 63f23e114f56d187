"""Hypothesis property tests for spec canonicalization and hashing.

The content-addressed store, the sweep dedup and the search memoization all
rest on three invariants: ``canonical()`` is a stable JSON-safe value,
``spec_hash()`` depends on the physical configuration only (never the
name), and grammar-generated knob values either build a valid spec or
raise :class:`~repro.errors.ConfigurationError` — nothing else.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fleet import get_fleet, get_plan
from repro.fleet import FleetSpec
from repro.fleet.engine import _Session, _session_seeds, operator_channel_spec
from repro.fleet.hybrid import cold_draw_seed
from repro.fleet.spec import arrival_seed
from repro.scenarios import ScenarioGrammar, ScenarioSpec, get_scale, get_scenario, repetition_seed
from repro.scenarios.engine import compound_stage_seed
from repro.scenarios.grammar import _kind_knobs, _primitive_channel
from repro.scenarios.spec import ChannelSpec, _hash_seed, canonical_json
from repro.service import get_service

SETTINGS = {"max_examples": 30, "deadline": None}

_GRAMMAR = ScenarioGrammar()

#: Kinds with scalar knobs the invalid-knob property can fuzz directly.
_PRIMITIVE_KINDS = (
    "wireless",
    "jammer",
    "loss-burst",
    "periodic-loss",
    "random-loss",
    "handover",
    "markov-interference",
)


def _random_spec(seed: int):
    """A deterministic grammar draw (the property quantifies over seeds)."""
    return _GRAMMAR.random_spec(np.random.default_rng(seed))


def _fresh_hash(spec) -> str:
    """The spec hash recomputed from scratch, independent of any cache."""
    payload = json.dumps(spec.canonical(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _derived_specs(spec):
    """Copies a cached hash must not leak into: with_, replace, pickle."""
    spec.spec_hash()  # populate the original's cache first
    return (
        spec.with_(seed=spec.seed + 1),
        spec.with_(name="renamed-twin"),
        spec.with_foreco(tolerance_ms=spec.foreco.tolerance_ms + 5.0),
        dataclasses.replace(spec, repetitions=spec.repetitions + 1),
        dataclasses.replace(spec, run_seconds=7.5),
        pickle.loads(pickle.dumps(spec)),
        pickle.loads(pickle.dumps(spec.with_(use_pid=not spec.use_pid))),
    )


#: Literal hashes of four presets at ENGINE_EPOCH 6: moving one orphans
#: every stored shard of that preset.  ``trace-replay`` carries ``inf``
#: delays, so its hashed bytes hold the non-standard ``Infinity`` token.
_PINNED_HASHES = {
    "bursty-loss": "6f44cf38fe6ccc7d",
    "jammer": "fc3ac20d84eb9889",
    "jammer-congestion": "5209d3a9a5b08a10",
    "trace-replay": "dd93fa18a39b23f3",
}


#: Literal hashes of one fleet, service and plan preset at ENGINE_EPOCH 6.
_PINNED_FLEET_SERVICE_PLAN_HASHES = {
    "city-scale": ("fleet", "336514ed3faa5604"),
    "service-shared-ap": ("service", "188142fdf1390797"),
    "plan-shared-ap": ("plan", "49882e0c9479b7be"),
}

_GETTERS = {"fleet": get_fleet, "service": get_service, "plan": get_plan}

#: Literal channel seeds at ENGINE_EPOCH 6, keyed ``(preset, repetition,
#: stage)``: a faster seed derivation must reproduce every one of them.
_PINNED_REPETITION_SEEDS = {
    ("bursty-loss", 0, 0): 1797421753,
    ("bursty-loss", 1, 0): 2466383143,
    ("bursty-loss", 7, 0): 3301765304,
    ("bursty-loss", 0, 1): 2448966611,
    ("bursty-loss", 3, 2): 3597158069,
    ("jammer", 0, 0): 3211592493,
    ("jammer", 7, 0): 3596512111,
    ("jammer", 3, 2): 1121977760,
    ("jammer-congestion", 1, 0): 783317349,
    ("jammer-congestion", 0, 1): 4076865641,
    ("clean", 0, 0): 2830643400,
    ("clean", 3, 2): 2441821629,
}

#: ``city-scale`` operators at ENGINE_EPOCH 6: the template seed of
#: ``operator_channel_spec(fleet, op)`` and its repetition 0 and 1 seeds.
_PINNED_OPERATOR_SEEDS = {
    0: (42, (1797421753, 2466383143)),
    1: (440098938, (1486448364, 1982376719)),
    511: (1578842092, (2636603833, 4241593779)),
}


#: Literal arrival seeds at ENGINE_EPOCH 6, keyed ``(preset, repetition)``:
#: one poisson and one diurnal fleet.
_PINNED_ARRIVAL_SEEDS = {
    ("peak-hour", 0): 2854821469,
    ("peak-hour", 1): 951951654,
    ("diurnal-campus", 0): 2801408447,
    ("diurnal-campus", 1): 1106909619,
}

#: ``city-scale`` (hybrid tier) cold-AP draw seeds at ENGINE_EPOCH 6.
_PINNED_COLD_DRAW_SEEDS = {0: 892090138, 1: 236071108}

#: ``jammer-congestion`` stage seeds at ENGINE_EPOCH 6 under base seed
#: 1797421753, keyed ``(stage index, occurrence)``.
_PINNED_COMPOUND_STAGE_SEEDS = {
    (0, 0): 2063625226,
    (0, 1): 3586605415,
    (1, 0): 156247818,
    (1, 1): 2844880286,
}


@settings(**SETTINGS)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_canonical_round_trips_through_json(seed):
    spec = _random_spec(seed)
    canonical = spec.canonical()
    assert json.loads(json.dumps(canonical)) == canonical
    assert spec.canonical() == canonical  # stable across calls


@settings(**SETTINGS)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_spec_hash_is_stable_and_name_free(seed):
    spec = _random_spec(seed)
    assert spec.spec_hash() == spec.spec_hash()
    renamed = spec.with_(name="renamed-twin")
    assert renamed.spec_hash() == spec.spec_hash()
    assert renamed.canonical() == spec.canonical()
    # A physical change must move the hash.
    assert spec.with_(seed=spec.seed + 1).spec_hash() != spec.spec_hash()


@settings(**SETTINGS)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    operators=st.integers(min_value=2, max_value=40),
    aps=st.integers(min_value=1, max_value=6),
    capacity=st.integers(min_value=1, max_value=4),
)
def test_fleet_tier_twins_share_workload_identity(seed, operators, aps, capacity):
    base = get_fleet("shared-ap", operators=operators, seed=seed % 1000).with_(
        aps=aps, ap_capacity=capacity
    )
    exact = base.with_(tier="exact")
    hybrid = base.with_(tier="hybrid")
    # Same randomness domain (arrivals, channels) ...
    assert exact.workload_identity() == hybrid.workload_identity()
    identity = json.loads(json.dumps(exact.workload_identity()))
    assert identity == exact.workload_identity()
    # ... but different results, so different store addresses.
    assert exact.canonical() != hybrid.canonical()
    assert exact.spec_hash() != hybrid.spec_hash()


@settings(**SETTINGS)
@given(
    kind=st.sampled_from(_PRIMITIVE_KINDS),
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
        min_size=3,
        max_size=3,
    ),
)
def test_grammar_knobs_raise_only_configuration_error(kind, values):
    """Arbitrary finite knob values either build a channel or raise cleanly."""
    knobs = _kind_knobs(kind)
    assignment = {knob.name: value for knob, value in zip(knobs, values)}
    try:
        channel = _primitive_channel(kind, assignment)
    except ConfigurationError:
        return
    assert channel.kind in (kind, "markov-interference")


@settings(**SETTINGS)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_grammar_specs_are_hashable_value_objects(seed):
    spec = _random_spec(seed)
    twin = _random_spec(seed)
    assert spec == twin
    assert hash(spec) == hash(twin)
    assert spec.spec_hash() == twin.spec_hash()


@pytest.mark.parametrize("name", sorted(_PINNED_HASHES))
def test_cached_preset_hash_equals_pin_and_fresh_hash(name):
    spec = get_scenario(name)
    assert spec.spec_hash() == _PINNED_HASHES[name] == _fresh_hash(spec)
    for derived in _derived_specs(spec):
        assert derived.spec_hash() == _fresh_hash(derived)
    assert spec.spec_hash() == _PINNED_HASHES[name]


@settings(**SETTINGS)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_cached_grammar_hash_equals_fresh_hash(seed):
    spec = _random_spec(seed)
    assert spec.spec_hash() == _fresh_hash(spec)
    derived = _derived_specs(spec)
    for copy in derived:
        assert copy.spec_hash() == _fresh_hash(copy)
    assert derived[0].spec_hash() != spec.spec_hash()  # a physical change moves it
    assert derived[1].spec_hash() == spec.spec_hash()  # a rename does not


def test_invalid_grammar_kind_raises_configuration_error():
    with pytest.raises(ConfigurationError):
        _primitive_channel("bogus", {})


@pytest.mark.parametrize("name", sorted(_PINNED_FLEET_SERVICE_PLAN_HASHES))
def test_fleet_service_and_plan_identity_is_computed_once(name, monkeypatch):
    kind, pinned = _PINNED_FLEET_SERVICE_PLAN_HASHES[name]
    spec = _GETTERS[kind](name)
    assert spec.spec_hash() == pinned == _fresh_hash(spec)
    assert spec.stored_canonical == json.loads(json.dumps(spec.canonical()))
    copies = (
        spec.with_(name="renamed-twin"),
        spec.with_template(seed=12345),
        dataclasses.replace(spec),
        pickle.loads(pickle.dumps(spec)),
    )
    for derived in copies:
        assert derived.spec_hash() == _fresh_hash(derived)
        assert derived.stored_canonical == json.loads(json.dumps(derived.canonical()))
    assert copies[0].spec_hash() == pinned
    assert copies[1].spec_hash() != pinned

    calls = []
    canonical = type(spec).canonical
    monkeypatch.setattr(type(spec), "canonical", lambda self: calls.append(1) or canonical(self))
    fresh = dataclasses.replace(spec)
    for _ in range(3):
        assert fresh.spec_hash() == pinned
        assert fresh.stored_canonical == spec.stored_canonical
    assert len(calls) == 1  # one canonical string feeds the hash and the stored form

    # A fresh template renders once, however many identities embed it.
    renders = []
    render = ScenarioSpec.canonical
    monkeypatch.setattr(ScenarioSpec, "canonical", lambda self: renders.append(1) or render(self))
    fresh = spec.with_template(seed=4242)
    fleet = fresh if kind == "fleet" else fresh.fleet
    assert fresh.spec_hash() == _fresh_hash(fresh)
    assert fleet.workload_identity_json == canonical_json(fleet.workload_identity())
    fleet.template.spec_hash()
    assert len(renders) == 1


@pytest.mark.parametrize("key", sorted(_PINNED_REPETITION_SEEDS))
def test_repetition_seed_matches_its_pin(key):
    name, repetition, stage = key
    assert repetition_seed(get_scenario(name), repetition, stage) == _PINNED_REPETITION_SEEDS[key]


@pytest.mark.parametrize("operator", sorted(_PINNED_OPERATOR_SEEDS))
def test_operator_channel_seed_matches_its_pin(operator):
    seed, repetition_seeds = _PINNED_OPERATOR_SEEDS[operator]
    spec = operator_channel_spec(get_fleet("city-scale"), operator)
    assert spec.seed == seed
    assert tuple(repetition_seed(spec, repetition) for repetition in range(2)) == repetition_seeds


def _sessions(operators, repetitions: int = 2) -> list[_Session]:
    return [
        _Session(operator=operator, repetition=repetition, offset_slots=0, ap=0)
        for operator in operators
        for repetition in range(repetitions)
    ]


def _assert_splice_equals_operator_specs(fleet, operators) -> None:
    """Spliced identities and seeds equal the reference form, operator by operator."""
    head, tail = fleet.template.channel_identity_split
    for operator in operators:
        reference = operator_channel_spec(fleet, operator)
        assert head + str(reference.seed) + tail == reference.channel_identity_json
    sessions = _sessions(operators)
    expected = [repetition_seed(operator_channel_spec(fleet, s.operator), s.repetition) for s in sessions]
    assert _session_seeds(fleet, sessions) == expected


def test_spliced_seeds_equal_the_operator_specs_on_every_city_scale_operator():
    fleet = get_fleet("city-scale", operators=512)
    _assert_splice_equals_operator_specs(fleet, range(fleet.operators))
    for operator, (_, repetition_seeds) in _PINNED_OPERATOR_SEEDS.items():
        assert tuple(_session_seeds(fleet, _sessions([operator]))) == repetition_seeds


@pytest.mark.parametrize("name", ["jammer-congestion", "trace-replay", "congested-ap"])
def test_spliced_seeds_equal_the_operator_specs_on_other_channel_kinds(name):
    """A compound channel, a trace holding ``Infinity`` and a wireless channel."""
    fleet = FleetSpec(name="splice", template=get_scenario(name), operators=8, aps=2)
    _assert_splice_equals_operator_specs(fleet, [0, 1, 2, 7, 511])
    head, tail = fleet.template.channel_identity_split
    assert head.endswith('"seed":') and tail == "}"
    if name == "trace-replay":
        assert "Infinity" in head


def test_channel_identity_split_refuses_an_ambiguous_seed_slot():
    """A channel value equal to the seed marker would make the split a guess.

    Only the fleet splice refuses it: a single session still seeds from the
    spec's own encoding.
    """
    spec = ScenarioSpec(channel=ChannelSpec.make("clean", label="\x00seed\x00"))
    with pytest.raises(ConfigurationError, match="2 times"):
        spec.channel_identity_split
    fleet = FleetSpec(name="marker", template=spec, operators=2, aps=1)
    with pytest.raises(ConfigurationError, match="2 times"):
        _session_seeds(fleet, _sessions([0, 1]))
    assert repetition_seed(spec, 0) == _hash_seed(canonical_json(spec.channel_identity()), 0, 0)


@pytest.mark.parametrize("key", sorted(_PINNED_ARRIVAL_SEEDS))
def test_arrival_seed_matches_its_pin(key):
    name, repetition = key
    assert arrival_seed(get_fleet(name), repetition) == _PINNED_ARRIVAL_SEEDS[key]


@pytest.mark.parametrize("repetition", sorted(_PINNED_COLD_DRAW_SEEDS))
def test_cold_draw_seed_matches_its_pin(repetition):
    seed = cold_draw_seed(get_fleet("city-scale"), repetition)
    assert seed == _PINNED_COLD_DRAW_SEEDS[repetition]


@pytest.mark.parametrize("key", sorted(_PINNED_COMPOUND_STAGE_SEEDS))
def test_compound_stage_seed_matches_its_pin(key):
    index, occurrence = key
    stage = get_scenario("jammer-congestion").channel.options()["stages"][index]
    seed = compound_stage_seed(1797421753, stage, occurrence)
    assert seed == _PINNED_COMPOUND_STAGE_SEEDS[key]


def test_scale_name_resolves_on_construction():
    by_name = ScenarioSpec(scale="ci")
    by_value = ScenarioSpec(scale=get_scale("ci"))
    assert by_name == by_value and by_name.scale is get_scale("ci")
    assert by_name.spec_hash() == by_value.spec_hash() == _fresh_hash(by_name)
    assert by_name.resolved_run_seconds == by_value.resolved_run_seconds
    assert dataclasses.replace(by_value, scale="standard").scale is get_scale("standard")
    for bad in ("galactic", 3, None, ["ci"]):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(scale=bad)
