"""FleetSpec value semantics, arrival processes and the preset registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet import (
    ARRIVAL_KINDS,
    FLEETS,
    FleetSpec,
    arrival_seed,
    fleet_catalog,
    fleet_names,
    get_fleet,
    register_fleet,
    sample_arrival_times,
)
from repro.scenarios import ScenarioSpec, get_scenario


class TestValidation:
    def test_defaults_are_valid(self):
        fleet = FleetSpec()
        assert fleet.operators == 4
        assert fleet.arrival == "simultaneous"

    @pytest.mark.parametrize(
        "changes",
        [
            {"operators": 0},
            {"aps": 0},
            {"ap_capacity": 0},
            {"ap_service_ms": 0.0},
            {"ap_service_ms": -1.0},
            {"arrival": "bursty"},
            {"arrival": "poisson", "arrival_rate_hz": 0.0},
            {"diurnal_period_s": 0.0},
            {"diurnal_amplitude": 1.5},
            {"diurnal_amplitude": -0.1},
        ],
    )
    def test_invalid_fields_raise(self, changes):
        with pytest.raises(ConfigurationError):
            FleetSpec(**changes)

    def test_template_must_be_scenario_spec(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(template="clean")


class TestIdentity:
    def test_name_excluded_from_hash(self):
        a = FleetSpec(name="a", operators=3)
        b = FleetSpec(name="b", operators=3)
        assert a.spec_hash() == b.spec_hash()

    def test_physical_fields_change_hash(self):
        base = FleetSpec()
        assert base.spec_hash() != base.with_(operators=5).spec_hash()
        assert base.spec_hash() != base.with_(aps=2).spec_hash()
        assert base.spec_hash() != base.with_(ap_capacity=3).spec_hash()
        assert base.spec_hash() != base.with_(arrival="poisson").spec_hash()
        assert base.spec_hash() != base.with_template(seed=7).spec_hash()

    def test_hash_disjoint_from_template_session_hash(self):
        template = get_scenario("random-loss")
        fleet = FleetSpec(template=template, operators=1)
        assert fleet.spec_hash() != template.spec_hash()

    def test_canonical_is_json_safe(self):
        import json

        fleet = FleetSpec(template=get_scenario("jammer-congestion"), arrival="diurnal")
        json.dumps(fleet.canonical(), sort_keys=True, allow_nan=False)

    def test_builders(self):
        fleet = FleetSpec().with_(operators=9).with_template(scale="standard", seed=3)
        assert fleet.operators == 9
        assert fleet.template.scale.name == "standard"
        assert fleet.template.seed == 3
        assert fleet.channel == fleet.template.channel
        assert fleet.repetitions == fleet.template.repetitions

    def test_describe_mentions_population_and_template(self):
        text = FleetSpec(name="x", operators=6, arrival="poisson").describe()
        assert "6 operators" in text
        assert "poisson" in text


class TestArrivals:
    def test_simultaneous_is_all_zero(self):
        fleet = FleetSpec(operators=5)
        assert np.array_equal(sample_arrival_times(fleet, 0), np.zeros(5))

    @pytest.mark.parametrize("kind", [k for k in ARRIVAL_KINDS if k != "simultaneous"])
    def test_timed_arrivals_are_sorted_positive_and_deterministic(self, kind):
        fleet = FleetSpec(operators=8, arrival=kind, arrival_rate_hz=0.5)
        first = sample_arrival_times(fleet, 0)
        again = sample_arrival_times(fleet, 0)
        assert first.shape == (8,)
        assert np.array_equal(first, again)
        assert np.all(first > 0.0)
        assert np.all(np.diff(first) >= 0.0)

    def test_repetitions_decorrelate(self):
        fleet = FleetSpec(operators=8, arrival="poisson", arrival_rate_hz=0.5)
        assert not np.array_equal(sample_arrival_times(fleet, 0), sample_arrival_times(fleet, 1))
        assert arrival_seed(fleet, 0) != arrival_seed(fleet, 1)

    def test_spec_content_decorrelates_arrivals(self):
        a = FleetSpec(operators=8, arrival="poisson", arrival_rate_hz=0.5)
        b = a.with_(aps=2)
        assert not np.array_equal(sample_arrival_times(a, 0), sample_arrival_times(b, 0))


class TestRegistry:
    def test_builtin_presets_exist(self):
        names = fleet_names()
        assert {"shared-ap", "peak-hour", "diurnal-campus"} <= set(names)
        catalog = fleet_catalog()
        assert all(catalog[name] for name in names)

    def test_get_fleet_overrides(self):
        fleet = get_fleet("shared-ap", operators=9, scale="standard", seed=5)
        assert fleet.operators == 9
        assert fleet.template.scale.name == "standard"
        assert fleet.template.seed == 5
        # fleet-level keyword overrides pass through with_()
        assert get_fleet("shared-ap", aps=2).aps == 2

    def test_unknown_fleet_raises(self):
        with pytest.raises(ConfigurationError):
            get_fleet("nope")

    def test_register_requires_distinct_name(self):
        with pytest.raises(ConfigurationError):
            register_fleet(FleetSpec(name="fleet"))
        with pytest.raises(ConfigurationError):
            register_fleet(get_fleet("shared-ap"))  # already taken

    def test_register_and_overwrite(self):
        spec = FleetSpec(name="test-register-fleet", template=ScenarioSpec(), operators=2)
        try:
            register_fleet(spec, "temporary", overwrite=True)
            assert get_fleet("test-register-fleet").operators == 2
            register_fleet(spec.with_(operators=3), "temporary", overwrite=True)
            assert get_fleet("test-register-fleet").operators == 3
        finally:
            FLEETS._presets.pop(spec.name, None)


class TestTierKnobs:
    """Hybrid-tier spec knobs: validation, identity, workload sharing."""

    @pytest.mark.parametrize(
        "changes",
        [
            {"tier": "warm"},
            {"hot_threshold": 0.0},
            {"hot_threshold": -0.2},
            {"hot_threshold": 1.5},
            {"hot_threshold": float("nan")},
            {"cold_tail": "bimodal"},
            {"cold_tail_index": 1.0},
            {"cold_tail_index": "fat"},
        ],
    )
    def test_invalid_tier_knobs_raise(self, changes):
        with pytest.raises(ConfigurationError):
            FleetSpec(**changes)

    @pytest.mark.parametrize(
        "changes",
        [
            {"operators": "x"},
            {"operators": None},
            {"ap_capacity": "zero"},
            {"aps": 2.5},
            {"ap_service_ms": "slow"},
        ],
    )
    def test_type_confusion_raises_configuration_error(self, changes):
        """Bad types surface as ConfigurationError, never bare ValueError."""
        with pytest.raises(ConfigurationError):
            FleetSpec(**changes)

    def test_boundary_threshold_is_accepted(self):
        assert FleetSpec(tier="hybrid", hot_threshold=1.0).hot_threshold == 1.0
        assert FleetSpec(hot_threshold=1e-9).hot_threshold == 1e-9

    def test_tier_knobs_change_the_spec_hash(self):
        base = FleetSpec()
        assert base.spec_hash() != base.with_(tier="hybrid").spec_hash()
        hybrid = base.with_(tier="hybrid")
        assert hybrid.spec_hash() != hybrid.with_(hot_threshold=0.9).spec_hash()
        assert hybrid.spec_hash() != hybrid.with_(cold_tail="heavy").spec_hash()
        assert hybrid.spec_hash() != hybrid.with_(cold_tail_index=2.0).spec_hash()

    def test_workload_identity_excludes_the_tier(self):
        base = FleetSpec(operators=8, arrival="poisson", arrival_rate_hz=0.5)
        hybrid = base.with_(tier="hybrid", hot_threshold=0.9, cold_tail="heavy")
        assert base.workload_identity() == hybrid.workload_identity()
        assert base.workload_identity() != base.with_(operators=9).workload_identity()

    def test_tier_twins_share_arrival_times(self):
        """Hybrid and exact twins see the same operators arriving."""
        base = FleetSpec(operators=8, arrival="poisson", arrival_rate_hz=0.5)
        hybrid = base.with_(tier="hybrid")
        assert arrival_seed(base, 0) == arrival_seed(hybrid, 0)
        assert np.array_equal(sample_arrival_times(base, 1), sample_arrival_times(hybrid, 1))

    def test_describe_mentions_the_hybrid_tier(self):
        text = FleetSpec(tier="hybrid", hot_threshold=0.6, cold_tail="heavy").describe()
        assert "hybrid" in text
        assert "heavy" in text
        assert "hybrid" not in FleetSpec().describe()

    def test_city_scale_preset_is_hybrid(self):
        fleet = get_fleet("city-scale")
        assert fleet.tier == "hybrid"
        assert fleet.operators >= 1000
        assert fleet.cold_tail == "heavy"
        assert "city-scale" in fleet_names()
