"""Capacity planner: knee recovery, determinism, warm store, SLO mutation."""

from __future__ import annotations

import json

import pytest

import repro
from repro.errors import ConfigurationError
from repro.experiments.runner import run_experiments
from repro.fleet import (
    CapacityPlanner,
    PlanSpec,
    analytic_bracket,
    get_fleet,
    get_plan,
    plan_catalog,
    plan_names,
    register_plan,
)
from repro.scenarios import ResultStore

#: The documented knee of the shared-ap preset (examples/fleet_capacity.py):
#: 3 operators per AP fit the command period; the 4th overloads the backlog.
SHARED_AP_KNEE = 3


@pytest.fixture(scope="module")
def probe_store(tmp_path_factory):
    """One store shared by the whole module, so probes compute only once."""
    return ResultStore(tmp_path_factory.mktemp("plans") / "store")


def _plan(spec, store, **planner_kwargs):
    return CapacityPlanner(store=store, **planner_kwargs).run(spec)


# ------------------------------------------------------------------ the knee
def test_dual_gradient_recovers_the_shared_ap_knee(probe_store):
    plan = _plan(get_plan("plan-shared-ap"), probe_store)
    assert abs(plan.capacity - SHARED_AP_KNEE) <= 1
    assert plan.capacity == SHARED_AP_KNEE  # exactly, not just within the gate
    assert plan.feasible
    assert plan.method == "dual-gradient"
    assert plan.evaluated <= plan.spec.budget


def test_golden_section_recovers_the_shared_ap_knee(probe_store):
    plan = _plan(get_plan("plan-shared-ap-golden"), probe_store)
    assert abs(plan.capacity - SHARED_AP_KNEE) <= 1
    assert plan.capacity == SHARED_AP_KNEE
    assert plan.feasible
    assert plan.method == "golden-section"
    assert plan.evaluated <= plan.spec.budget


def test_analytic_bracket_lands_on_the_knee():
    # floor(command period / AP service time) = floor(20 / 6) = 3: the
    # warm start alone already names the knee, before any probe runs.
    assert analytic_bracket(get_plan("plan-shared-ap")) == SHARED_AP_KNEE


def test_probes_are_real_fleet_evaluations(probe_store):
    plan = _plan(get_plan("plan-shared-ap"), probe_store)
    for probe in plan.probes:
        spec = plan.spec.probe_spec(probe.capacity)
        assert probe.spec_hash == spec.spec_hash()
        assert spec in probe_store  # the probe shard is reusable


# -------------------------------------------------------------- determinism
def test_plan_is_bit_identical_across_jobs(probe_store):
    spec = get_plan("plan-shared-ap")
    serial = _plan(spec, probe_store, jobs=1).to_dict()
    for jobs in (2, 4):
        assert _plan(spec, probe_store, jobs=jobs).to_dict() == serial


def test_golden_plan_is_bit_identical_across_jobs(probe_store):
    spec = get_plan("plan-shared-ap-golden")
    assert _plan(spec, probe_store, jobs=1).to_dict() == _plan(spec, probe_store, jobs=4).to_dict()


# --------------------------------------------------------------- warm store
def test_rerun_against_same_store_is_warm_and_bit_identical(tmp_path):
    store = ResultStore(tmp_path / "store")
    spec = get_plan("plan-shared-ap")
    cold = CapacityPlanner(store=store).run(spec)
    assert not cold.from_store
    assert cold.store_hits == 0 and cold.store_misses == cold.evaluated
    before = store.stats()
    warm = CapacityPlanner(store=store).run(spec)
    after = store.stats()
    assert warm.from_store  # the plan record itself was reused...
    assert after.misses == before.misses  # ...and nothing was recomputed
    assert after.writes == before.writes
    assert warm.to_dict() == cold.to_dict()  # persisted partition included
    assert warm.to_json() == cold.to_json()


def test_plans_share_probe_shards_across_methods(tmp_path):
    store = ResultStore(tmp_path / "store")
    dual = CapacityPlanner(store=store).run(get_plan("plan-shared-ap"))
    golden = CapacityPlanner(store=store).run(get_plan("plan-shared-ap-golden"))
    shared = {p.capacity for p in dual.probes} & {p.capacity for p in golden.probes}
    assert shared  # both ledgers visit the knee region
    assert golden.store_hits == len(shared)  # probe shards reused verbatim


def test_budget_caps_distinct_probes(probe_store):
    spec = get_plan("plan-shared-ap-golden", budget=2)
    plan = _plan(spec, probe_store)
    assert plan.evaluated <= 2


# --------------------------------------------------- mutation: gates must bite
def test_late_gate_bites(probe_store):
    baseline = _plan(get_plan("plan-shared-ap"), probe_store)
    assert baseline.feasible
    mutated = _plan(get_plan("plan-shared-ap", slo_late=0.01), probe_store)
    assert not mutated.feasible  # every capacity is late beyond the gate
    assert mutated.capacity <= baseline.capacity


def test_drop_gate_bites(probe_store):
    baseline = _plan(get_plan("plan-shared-ap"), probe_store)
    assert baseline.feasible and baseline.drop_rate > 0.2
    mutated = _plan(get_plan("plan-shared-ap", slo_drop=0.2), probe_store)
    assert not mutated.feasible  # verdict flips on the drop the knee leaves
    assert mutated.capacity == baseline.capacity  # the drop gate never moves it


def test_p99_gate_bites(probe_store):
    # Disable the other gates so the p99 gate alone decides feasibility.
    loose = _plan(
        get_plan("plan-shared-ap", slo_late=1.0, slo_drop=0.0, slo_p99=0.99), probe_store
    )
    assert loose.feasible  # capacity 4 drops nobody and clears p99 >= 0.99
    tight = _plan(
        get_plan("plan-shared-ap", slo_late=1.0, slo_drop=0.0, slo_p99=0.999), probe_store
    )
    assert not tight.feasible  # p99 gate pushes the knee down, drops appear
    assert tight.capacity < loose.capacity


# -------------------------------------------------------------------- codec
def test_plan_record_round_trips_bit_for_bit(tmp_path):
    store = ResultStore(tmp_path / "store")
    spec = get_plan("plan-shared-ap")
    computed = CapacityPlanner(store=store).run(spec)
    loaded = store.get(spec)
    assert loaded is not None and loaded.from_store
    assert loaded.spec_hash == computed.spec_hash
    assert loaded.to_dict() == computed.to_dict()
    assert [p.feasible for p in loaded.probes] == [p.feasible for p in computed.probes]


def test_plan_text_and_json_renderings(probe_store):
    plan = _plan(get_plan("plan-shared-ap"), probe_store)
    text = plan.to_text()
    assert "FEASIBLE at capacity 3" in text
    assert "analytic bracket 3" in text
    document = json.loads(plan.to_json())
    assert document["plan_version"] == 1
    assert document["capacity"] == SHARED_AP_KNEE
    assert document["bracket"] == SHARED_AP_KNEE
    assert len(document["probes"]) == plan.evaluated
    assert document["trace"]  # convergence trace is part of the report
    assert "from_store" not in document  # transient, never persisted


# ------------------------------------------------------------ facade + runner
def test_facade_plan_matches_planner(probe_store):
    via_facade = repro.plan("plan-shared-ap", store=probe_store)
    direct = _plan(get_plan("plan-shared-ap"), probe_store)
    assert via_facade.to_dict() == direct.to_dict()


def test_facade_plan_accepts_overrides_and_rejects_wrong_types(probe_store):
    mutated = repro.plan("plan-shared-ap", store=probe_store, slo_drop=0.2)
    assert not mutated.feasible
    with pytest.raises(ConfigurationError):
        repro.plan(get_fleet("shared-ap"))  # a FleetSpec is not a plan


def test_runner_plan_keyword_reports_both_presets(probe_store):
    kwargs = dict(scale="ci", seed=42, fmt="json", store=str(probe_store.root))
    cold = json.loads(run_experiments(["plan"], **kwargs))
    plans = {row["plan"]: row for row in cold["plans"]}
    assert set(plans) == set(plan_names())
    assert all(row["capacity"] == SHARED_AP_KNEE for row in plans.values())
    warm = json.loads(run_experiments(["plan"], **kwargs))
    assert warm["plans"] == cold["plans"]  # bit-identical rerun
    assert warm["store"]["misses"] == 0  # plan records reused, zero recompute
    assert warm["store"]["hits"] == len(plan_names())


# ------------------------------------------------------------------ registry
def test_plan_registry_surface():
    names = plan_names()
    assert "plan-shared-ap" in names and "plan-shared-ap-golden" in names
    catalog = plan_catalog()
    assert set(catalog) == set(names)
    assert all(catalog.values())
    with pytest.raises(ConfigurationError):
        get_plan("no-such-plan")
    with pytest.raises(ConfigurationError):
        register_plan(PlanSpec(name="plan-shared-ap", fleet=get_fleet("shared-ap")))


def test_get_plan_forwards_fleet_scale_and_seed():
    spec = get_plan("plan-shared-ap", scale="standard", seed=7)
    assert spec.fleet.template.scale.name == "standard"
    assert spec.fleet.template.seed == 7


# -------------------------------------------------------------------- errors
def test_planner_rejects_misuse():
    with pytest.raises(ConfigurationError):
        CapacityPlanner().run(get_fleet("shared-ap"))
    with pytest.raises(ConfigurationError):
        PlanSpec(method="newton")
    with pytest.raises(ConfigurationError):
        PlanSpec(min_capacity=0)
    with pytest.raises(ConfigurationError):
        PlanSpec(min_capacity=5, max_capacity=2)
    with pytest.raises(ConfigurationError):
        PlanSpec(slo_p99=1.5)
    with pytest.raises(ConfigurationError):
        PlanSpec(budget=0)
    with pytest.raises(ConfigurationError):
        get_plan("plan-shared-ap").probe_spec(99)
    with pytest.raises(ConfigurationError):
        CapacityPlanner(executor=object(), evaluator=lambda spec: None)  # type: ignore[arg-type]
