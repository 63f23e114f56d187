"""The top-level facade: run_scenario / run_fleet / sweep / serve / plan.

One consistent surface over the layered engines: presets or specs in,
result rows out, with the same keyword vocabulary everywhere (``seed=``,
``store=``, ``jobs=``).  Facade runs must be byte-equivalent to driving
the engines directly — the facade adds convenience, never semantics.
"""

from __future__ import annotations

import pytest

import repro
from repro.errors import ConfigurationError
from repro.fleet import FleetEngine, get_fleet
from repro.scenarios import ResultStore, get_scenario


def test_run_scenario_accepts_preset_and_spec():
    by_name = repro.run_scenario("clean")
    by_spec = repro.run_scenario(get_scenario("clean"))
    assert by_name.to_dict() == by_spec.to_dict()
    assert by_name.spec.name == "clean"


def test_run_scenario_seed_override():
    base = repro.run_scenario("clean")
    reseeded = repro.run_scenario("clean", seed=7)
    assert reseeded.spec.seed == 7
    assert reseeded.spec_hash != base.spec_hash


def test_run_fleet_matches_the_engine():
    fleet = get_fleet("shared-ap", operators=2).with_template(scale="ci")
    facade = repro.run_fleet(fleet)
    direct = FleetEngine().run(fleet)
    assert facade.to_dict() == direct.to_dict()
    assert repro.run_fleet("shared-ap", seed=3).spec.template.seed == 3


def test_sweep_mixes_kinds_and_hits_the_store(tmp_path):
    specs = [
        get_scenario("clean"),
        get_fleet("shared-ap", operators=2).with_template(scale="ci"),
        repro.get_service("service-shared-ap").with_template(scale="ci").with_(until_s=60.0),
    ]
    cold = repro.sweep(specs, jobs=2, store=tmp_path / "store")
    warm = repro.sweep(specs, jobs=2, store=tmp_path / "store")
    assert cold.store_misses == 3
    assert warm.store_hits == 3
    for a, b in zip(cold, warm):
        assert a.to_dict() == b.to_dict()


def test_facade_rejects_wrong_spec_types():
    with pytest.raises(ConfigurationError):
        repro.run_scenario(get_fleet("shared-ap"))
    with pytest.raises(ConfigurationError):
        repro.run_fleet(get_scenario("clean"))
    with pytest.raises(ConfigurationError):
        repro.serve(get_scenario("clean"))
    with pytest.raises(ConfigurationError):
        repro.run_scenario("no-such-preset")
    with pytest.raises(ConfigurationError):
        repro.run_fleet("no-such-preset")
    with pytest.raises(ConfigurationError):
        repro.serve("no-such-preset")
    with pytest.raises(ConfigurationError):
        repro.plan(get_scenario("clean"))
    with pytest.raises(ConfigurationError):
        repro.plan("no-such-preset")


@pytest.mark.parametrize(
    "fetch",
    [
        lambda: repro.get_scenario("clean", bogus=1),
        lambda: repro.get_fleet("shared-ap", bogus=1),
        lambda: repro.get_service("service-shared-ap", bogus=1),
        lambda: repro.get_plan("plan-shared-ap", bogus=1),
        lambda: repro.plan("plan-shared-ap", scale="ci"),
    ],
    ids=["scenario", "fleet", "service", "plan", "facade-plan"],
)
def test_unknown_override_is_a_configuration_error_naming_the_fields(fetch):
    with pytest.raises(ConfigurationError, match="valid fields"):
        fetch()


def test_store_keyword_accepts_paths_and_stores(tmp_path):
    path_store = tmp_path / "by-path"
    repro.run_scenario("clean", store=path_store)
    assert len(ResultStore(path_store)) == 1
    handle = ResultStore(tmp_path / "by-handle")
    repro.run_scenario("clean", store=handle)
    assert len(handle) == 1


def test_facade_exports_are_documented():
    for name in ("run_scenario", "run_fleet", "sweep", "serve", "plan"):
        assert name in repro.__all__
        assert getattr(repro, name).__doc__
