"""Tests for scenario specs (hashing, freezing) and the preset registry."""

from __future__ import annotations

import pytest

from repro.core import ForecoConfig
from repro.errors import ConfigurationError
from repro.scenarios import (
    SCENARIOS,
    ChannelSpec,
    ExperimentScale,
    ForecoSpec,
    ScenarioSpec,
    clean_channel,
    compound_channel,
    freeze_params,
    get_scale,
    get_scenario,
    jammer_channel,
    loss_burst_channel,
    register_scenario,
    scenario_catalog,
    scenario_names,
    wireless_channel,
)


def test_channel_spec_roundtrip_and_validation():
    spec = wireless_channel(n_robots=25, probability=0.05, duration_slots=100)
    assert spec.kind == "wireless"
    assert spec.options() == {"n_robots": 25, "probability": 0.05, "duration_slots": 100}
    updated = spec.updated(n_robots=5)
    assert updated.options()["n_robots"] == 5
    assert spec.options()["n_robots"] == 25  # original untouched
    with pytest.raises(ConfigurationError):
        ChannelSpec(kind="quantum")
    with pytest.raises(ConfigurationError):
        compound_channel(jammer_channel())  # needs at least two stages


def test_freeze_params_rejects_unhashable():
    frozen = freeze_params({"a": [1, 2], "b": {"c": 3}})
    assert frozen == (("a", (1, 2)), ("b", (("c", 3),)))
    with pytest.raises(ConfigurationError):
        freeze_params({"f": {1, 2}})  # sets are unhashable and not frozen


def test_foreco_spec_to_config_roundtrip():
    config = ForecoConfig(record=5, tolerance_ms=10.0, algorithm_options={"ridge": 0.1})
    spec = ForecoSpec.from_config(config)
    rebuilt = spec.to_config()
    assert rebuilt.record == 5
    assert rebuilt.tolerance_ms == 10.0
    assert rebuilt.algorithm_options == {"ridge": 0.1}
    assert spec == ForecoSpec.from_config(rebuilt)  # stable fixed point


def test_spec_hash_identity_and_sensitivity():
    a = ScenarioSpec(name="a", channel=loss_burst_channel(burst_length=10))
    b = ScenarioSpec(name="b", channel=loss_burst_channel(burst_length=10))
    # The label is cosmetic: equal physics -> equal hash.
    assert a.spec_hash() == b.spec_hash()
    # Any physical change moves the hash.
    assert a.with_channel(burst_length=25).spec_hash() != a.spec_hash()
    assert a.with_(seed=7).spec_hash() != a.spec_hash()
    assert a.with_foreco(record=3).spec_hash() != a.spec_hash()
    assert a.with_(scale="standard").spec_hash() != a.spec_hash()


def test_channel_identity_ignores_recovery_knobs():
    base = ScenarioSpec(channel=wireless_channel(n_robots=5, probability=0.05, duration_slots=10))
    tolerant = base.with_foreco(tolerance_ms=40.0)
    held = base.with_(fallback="stop", use_pid=True)
    assert base.channel_identity() == tolerant.channel_identity()
    assert base.channel_identity() == held.channel_identity()
    assert base.with_channel(n_robots=25).channel_identity() != base.channel_identity()


def test_scenario_spec_validation():
    with pytest.raises(ConfigurationError):
        ScenarioSpec(operator="novice")
    with pytest.raises(ConfigurationError):
        ScenarioSpec(fallback="panic")
    with pytest.raises(ConfigurationError):
        ScenarioSpec(repetitions=0)


def test_registry_presets_and_aliases():
    names = scenario_names()
    for expected in (
        "clean",
        "bursty-loss",
        "jammer",
        "congested-ap",
        "jammer-congestion",
        "operator-mix",
        "random-loss",
    ):
        assert expected in names
    assert get_scenario("jammer").use_pid is True
    assert get_scenario("operator-mix").operator == "mix"
    # Alternate spelling of the combined preset.
    assert get_scenario("jammer+congestion") == get_scenario("jammer-congestion")
    # Overrides produce modified copies, including scale-by-name.
    spec = get_scenario("clean", seed=7, scale="standard", repetitions=3)
    assert (spec.seed, spec.scale.name, spec.repetitions) == (7, "standard", 3)
    assert get_scenario("clean").seed == 42  # registry entry untouched
    # Every preset has a catalog description.
    assert set(scenario_catalog()) == set(names)
    with pytest.raises(ConfigurationError):
        get_scenario("does-not-exist")


def test_register_scenario_guards():
    with pytest.raises(ConfigurationError):
        register_scenario(ScenarioSpec(name="custom"))
    with pytest.raises(ConfigurationError):
        register_scenario(ScenarioSpec(name="clean", channel=clean_channel()))
    try:
        register_scenario(
            ScenarioSpec(name="test-only-preset", channel=clean_channel()),
            "temporary preset for this test",
            overwrite=True,
        )
        assert "test-only-preset" in scenario_names()
    finally:
        SCENARIOS._presets.pop("test-only-preset", None)


def test_get_scale_passthrough_and_custom_scale_hashable():
    assert get_scale("ci").name == "ci"
    custom = ExperimentScale(
        name="ci",  # deliberately reusing the name
        train_repetitions=3,
        test_repetitions=1,
        heatmap_repetitions=1,
        run_seconds=5.0,
        forecast_windows_ms=(20,),
        forecast_evaluations=5,
        seq2seq_units=(4, 2),
        seq2seq_epochs=1,
    )
    assert get_scale(custom) is custom
    assert hash(custom) != hash(get_scale("ci"))
    with pytest.raises(ConfigurationError):
        get_scale("galactic")
