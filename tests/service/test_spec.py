"""ServiceSpec value semantics, validation and the service preset registry."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.fleet import FleetSpec, get_fleet
from repro.service import (
    POLICY_KINDS,
    SERVICES,
    ServiceSpec,
    get_service,
    register_service,
    service_catalog,
    service_names,
)


class TestValidation:
    def test_defaults_are_valid(self):
        spec = ServiceSpec()
        assert spec.policy == "static-cap"
        assert spec.fleet.tier == "exact"
        assert spec.until_s is None

    @pytest.mark.parametrize(
        "changes",
        [
            {"fleet": "shared-ap"},
            {"policy": "round-robin"},
            {"utilization_limit": 0.0},
            {"utilization_limit": 1.5},
            {"utilization_limit": float("nan")},
            {"forecast_record": 0},
            {"forecast_record": 2.5},
            {"forecast_algorithm": "oracle"},
            {"snapshot_every_slots": 0},
            {"until_s": 0.0},
            {"until_s": -10.0},
            {"until_s": float("inf")},
        ],
    )
    def test_invalid_fields_raise_configuration_error(self, changes):
        """Misconfiguration is always a typed ConfigurationError, never ValueError."""
        with pytest.raises(ConfigurationError):
            ServiceSpec(**changes)

    def test_hybrid_fleet_rejected(self):
        # Online admission needs per-session outcomes; the analytic cold
        # tier has none, so a service fleet must be exact.
        with pytest.raises(ConfigurationError):
            ServiceSpec(fleet=get_fleet("city-scale"))


class TestIdentity:
    def test_name_excluded_from_hash(self):
        a = ServiceSpec(name="a", policy="static-cap")
        b = ServiceSpec(name="b", policy="static-cap")
        assert a.spec_hash() == b.spec_hash()

    def test_policy_knobs_change_hash(self):
        base = ServiceSpec()
        assert base.spec_hash() != base.with_(policy="utilization-threshold").spec_hash()
        assert base.spec_hash() != base.with_(utilization_limit=0.5).spec_hash()
        assert base.spec_hash() != base.with_(snapshot_every_slots=10).spec_hash()
        assert base.spec_hash() != base.with_(until_s=30.0).spec_hash()
        assert base.spec_hash() != base.with_fleet(operators=9).spec_hash()

    def test_hash_disjoint_from_fleet_hash(self):
        fleet = FleetSpec(operators=3)
        assert ServiceSpec(fleet=fleet).spec_hash() != fleet.spec_hash()

    def test_workload_identity_excludes_policy(self):
        """All three policies of one workload see identical arrivals/channels."""
        base = ServiceSpec()
        for policy in POLICY_KINDS[1:]:
            other = base.with_(policy=policy, utilization_limit=0.5)
            assert base.workload_identity() == other.workload_identity()
        assert base.workload_identity() != base.with_fleet(aps=2).workload_identity()
        assert base.workload_identity() != base.with_(until_s=5.0).workload_identity()

    def test_canonical_is_json_safe(self):
        spec = ServiceSpec(policy="forecast-aware", until_s=60.0)
        json.dumps(spec.canonical(), sort_keys=True, allow_nan=False)

    def test_builders(self):
        spec = ServiceSpec().with_(policy="forecast-aware").with_fleet(operators=9)
        spec = spec.with_template(seed=7)
        assert spec.policy == "forecast-aware"
        assert spec.fleet.operators == 9
        assert spec.template.seed == 7
        assert spec.channel == spec.template.channel
        assert spec.repetitions == spec.template.repetitions

    def test_describe_mentions_policy_and_fleet(self):
        text = ServiceSpec(policy="utilization-threshold").describe()
        assert "utilization-threshold" in text
        assert "operators" in text


class TestRegistry:
    def test_builtin_presets_exist(self):
        names = service_names()
        assert {"service-shared-ap", "service-peak-hour", "service-diurnal"} <= set(names)
        catalog = service_catalog()
        assert all(catalog[name] for name in names)
        # One preset per policy kind, so `serve` exercises all three.
        assert {get_service(name).policy for name in names} == set(POLICY_KINDS)

    def test_get_service_overrides(self):
        spec = get_service("service-shared-ap", policy="forecast-aware",
                           scale="standard", seed=5)
        assert spec.policy == "forecast-aware"
        assert spec.template.scale.name == "standard"
        assert spec.template.seed == 5
        assert get_service("service-shared-ap", until_s=30.0).until_s == 30.0

    def test_unknown_service_raises(self):
        with pytest.raises(ConfigurationError):
            get_service("nope")

    def test_register_requires_distinct_name(self):
        with pytest.raises(ConfigurationError):
            register_service(ServiceSpec(name="service"))
        with pytest.raises(ConfigurationError):
            register_service(get_service("service-shared-ap"))  # already taken

    def test_register_and_overwrite(self):
        spec = ServiceSpec(name="test-register-service", policy="static-cap")
        try:
            register_service(spec, "temporary", overwrite=True)
            assert get_service("test-register-service").policy == "static-cap"
            register_service(spec.with_(policy="forecast-aware"), "temporary", overwrite=True)
            assert get_service("test-register-service").policy == "forecast-aware"
        finally:
            SERVICES._presets.pop(spec.name, None)
