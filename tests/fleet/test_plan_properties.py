"""Hypothesis property tests for PlanSpec and the planner's monotonicity.

Two invariant families:

* **Spec contract** — :class:`~repro.fleet.PlanSpec` obeys the same
  canonicalization/hash/frozen rules as every other spec (stable JSON-safe
  ``canonical()``, name-free ``spec_hash()``, immutability), plus the
  plan-specific rule that the target fleet's initial ``ap_capacity`` never
  enters the identity (the capacity is the search variable).
* **Planner monotonicity** — against *synthetic monotone response
  surfaces* (quality degrades with capacity past a drawn knee; exactly the
  regime the dual method's descent rule assumes), exercised through the
  planner's evaluator seam with an exhaustive-equivalent budget:
  tightening the SLO never increases the planned capacity, and enlarging
  the search bounds never worsens the plan objective.
"""

from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fleet import CapacityPlanner, PlanSpec, get_fleet

SETTINGS = {"max_examples": 30, "deadline": None}

_FLEET = get_fleet("shared-ap")

_gates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_bounds = st.tuples(st.integers(1, 10), st.integers(1, 10)).map(sorted)


def _spec(slo_p99, slo_late, slo_drop, bounds, method="dual-gradient", **kwargs):
    low, high = bounds
    return PlanSpec(
        fleet=_FLEET,
        slo_p99=slo_p99,
        slo_late=slo_late,
        slo_drop=slo_drop,
        min_capacity=low,
        max_capacity=high,
        budget=high - low + 2,  # exhaustive-equivalent (bracket + full range)
        method=method,
        **kwargs,
    )


# ------------------------------------------------------------- spec contract
@settings(**SETTINGS)
@given(slo_p99=_gates, slo_late=_gates, slo_drop=_gates, bounds=_bounds)
def test_canonical_round_trips_through_json(slo_p99, slo_late, slo_drop, bounds):
    spec = _spec(slo_p99, slo_late, slo_drop, bounds)
    canonical = spec.canonical()
    assert json.loads(json.dumps(canonical)) == canonical
    assert spec.canonical() == canonical  # stable across calls


@settings(**SETTINGS)
@given(slo_p99=_gates, slo_late=_gates, slo_drop=_gates, bounds=_bounds)
def test_spec_hash_is_stable_and_name_free(slo_p99, slo_late, slo_drop, bounds):
    spec = _spec(slo_p99, slo_late, slo_drop, bounds)
    assert spec.spec_hash() == spec.spec_hash()
    assert spec.with_(name="renamed-twin").spec_hash() == spec.spec_hash()


@settings(**SETTINGS)
@given(slo_p99=_gates, capacity=st.integers(1, 32))
def test_fleet_initial_capacity_never_enters_the_identity(slo_p99, capacity):
    # The capacity is the search variable: two plans over the same fleet
    # with different starting ap_capacity are the same problem.
    base = _spec(slo_p99, 0.2, 0.3, (1, 8))
    retargeted = base.with_(fleet=base.fleet.with_(ap_capacity=capacity))
    assert retargeted.spec_hash() == base.spec_hash()


@settings(**SETTINGS)
@given(slo_p99=_gates, bounds=_bounds)
def test_spec_is_frozen(slo_p99, bounds):
    spec = _spec(slo_p99, 0.2, 0.3, bounds)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.slo_p99 = 0.5  # type: ignore[misc]
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.budget = 99  # type: ignore[misc]


@settings(**SETTINGS)
@given(slo_p99=_gates, slo_late=_gates, bounds=_bounds)
def test_every_knob_moves_the_hash(slo_p99, slo_late, bounds):
    spec = _spec(slo_p99, slo_late, 0.3, bounds)
    assert spec.with_(max_capacity=spec.max_capacity + 1).spec_hash() != spec.spec_hash()
    assert spec.with_(budget=spec.budget + 1).spec_hash() != spec.spec_hash()
    assert spec.with_(method="golden-section").spec_hash() != spec.spec_hash()
    assert spec.with_(slo_drop=0.55).spec_hash() != spec.spec_hash()


# ---------------------------------------------------- synthetic knee surfaces
def _surface(knee: int, p99_slope: float, late_slope: float):
    """A monotone response surface with a quality knee at ``knee``.

    Below the knee every capacity is clean; past it p99 recovery decays and
    the late fraction grows, both monotonically in capacity — the regime
    the planner's descent rule assumes (more admitted load never improves
    quality).  Admission follows the real arithmetic (min of population and
    capacity x APs).
    """

    def evaluate(spec):
        capacity = spec.ap_capacity
        admitted = min(spec.operators, capacity * spec.aps)
        excess = max(0, capacity - knee)
        return SimpleNamespace(
            spec_hash=spec.spec_hash(),
            admitted=admitted,
            dropped_sessions=spec.operators - admitted,
            p99_recovery=max(0.0, 1.0 - p99_slope * excess),
            mean_late_fraction=min(1.0, late_slope * excess),
            mean_ap_utilization=min(1.0, admitted / max(1, spec.aps * knee)),
        )

    return evaluate


_knees = st.integers(min_value=1, max_value=10)
_slopes = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)


def _chosen_key(plan):
    """Lexicographic objective value of a plan (bigger is better).

    Quality-feasibility first, then admitted utility, then (for infeasible
    plans) how small the best achievable violation is.
    """
    chosen = next(probe for probe in plan.probes if probe.capacity == plan.capacity)
    return (chosen.feasible, chosen.admitted if chosen.feasible else 0, -chosen.violation)


@settings(**SETTINGS)
@given(
    knee=_knees,
    p99_slope=_slopes,
    late_slope=_slopes,
    bounds=_bounds,
    slo_p99=_gates,
    slo_late=_gates,
    tighten_p99=_gates,
    tighten_late=_gates,
)
def test_tightening_the_slo_never_increases_planned_capacity(
    knee, p99_slope, late_slope, bounds, slo_p99, slo_late, tighten_p99, tighten_late
):
    evaluate = _surface(knee, p99_slope, late_slope)
    base = _spec(slo_p99, slo_late, 1.0, bounds)
    # Tightened gates: p99 floor moves up, the late ceiling moves down.
    tighter = base.with_(
        slo_p99=slo_p99 + (1.0 - slo_p99) * tighten_p99,
        slo_late=slo_late * (1.0 - tighten_late),
    )
    loose_plan = CapacityPlanner(evaluator=evaluate).run(base)
    tight_plan = CapacityPlanner(evaluator=evaluate).run(tighter)
    assert tight_plan.capacity <= loose_plan.capacity


@settings(**SETTINGS)
@given(
    knee=_knees,
    p99_slope=_slopes,
    late_slope=_slopes,
    bounds=_bounds,
    widen_low=st.integers(0, 5),
    widen_high=st.integers(0, 5),
    slo_p99=_gates,
    slo_late=_gates,
)
def test_enlarging_bounds_never_worsens_the_objective(
    knee, p99_slope, late_slope, bounds, widen_low, widen_high, slo_p99, slo_late
):
    evaluate = _surface(knee, p99_slope, late_slope)
    narrow = _spec(slo_p99, slo_late, 1.0, bounds)
    low = max(1, narrow.min_capacity - widen_low)
    high = narrow.max_capacity + widen_high
    wide = narrow.with_(min_capacity=low, max_capacity=high, budget=high - low + 2)
    narrow_plan = CapacityPlanner(evaluator=evaluate).run(narrow)
    wide_plan = CapacityPlanner(evaluator=evaluate).run(wide)
    assert _chosen_key(wide_plan) >= _chosen_key(narrow_plan)


@settings(**SETTINGS)
@given(knee=_knees, p99_slope=_slopes, late_slope=_slopes, bounds=_bounds, slo_p99=_gates,
       slo_late=_gates)
# Regression: a violation whose square underflows to 0.0 must not crash the Polyak jump.
@example(knee=1, p99_slope=0.5, late_slope=0.0, bounds=[1, 3], slo_p99=7.273356810816059e-174,
         slo_late=0.0)
def test_planner_matches_the_exhaustive_oracle(
    knee, p99_slope, late_slope, bounds, slo_p99, slo_late
):
    # Exhaustive-equivalence: with budget >= the bound range, the planner's
    # choice must equal a brute-force scan of every capacity in bounds
    # (max admitted among quality-feasible, ties to the smallest capacity;
    # least violation when nothing is feasible).
    evaluate = _surface(knee, p99_slope, late_slope)
    spec = _spec(slo_p99, slo_late, 1.0, bounds)
    plan = CapacityPlanner(evaluator=evaluate).run(spec)

    rows = []
    for capacity in range(spec.min_capacity, spec.max_capacity + 1):
        result = evaluate(spec.probe_spec(capacity))
        p99_short = max(0.0, slo_p99 - result.p99_recovery)
        late_excess = max(0.0, result.mean_late_fraction - slo_late)
        rows.append((capacity, result.admitted, p99_short + late_excess))
    feasible = [(c, admitted) for c, admitted, violation in rows if violation == 0.0]
    if feasible:
        expected = min(feasible, key=lambda row: (-row[1], row[0]))[0]
    else:
        expected = min(rows, key=lambda row: (row[2], row[0]))[0]
    assert plan.capacity == expected
