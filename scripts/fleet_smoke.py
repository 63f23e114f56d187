#!/usr/bin/env python
"""CI smoke test for the fleet simulator, end to end.

Runs a tiny 4-operator shared-AP fleet through the real CLI code path
(:func:`repro.experiments.runner.run_experiments`) and asserts the
contracts a clean checkout must honour:

* the fleet report is **bit-identical across** ``--jobs 1`` **and**
  ``--jobs 4`` (determinism is seeded from spec content, never from
  scheduling);
* against a store, the second run reports **100% hits** and
  record-for-record identical results (fleet shards share the session
  store's epoch scheme);
* a single-operator fleet is **bit-identical to** ``SessionEngine.run``
  on its template (the solo-equality contract in miniature);
* the **hybrid tier** below the crossover (every occupied AP hot) is
  bit-identical to the exact engine, and a hybrid ``--fleet-tier`` run
  against a warm store reports **100% hits**.

Exit code 0 on success, 1 with a diagnostic on any violated expectation.
Run it from an environment where ``repro`` is importable (CI installs the
package; locally ``PYTHONPATH=src python scripts/fleet_smoke.py`` works).
"""

from __future__ import annotations

import json
import sys
import tempfile

from repro.experiments.runner import run_experiments
from repro.fleet import FleetEngine, get_fleet
from repro.scenarios import SessionEngine

#: Operator population of the smoke fleet (small but genuinely contended).
OPERATORS = 4


def main() -> int:
    """Run the smoke checks; return a process exit code."""
    failures = []

    serial = json.loads(
        run_experiments([], scale="ci", seed=42, jobs=1, fmt="json", fleet=OPERATORS)
    )
    parallel = json.loads(
        run_experiments([], scale="ci", seed=42, jobs=4, fmt="json", fleet=OPERATORS)
    )
    if serial["fleets"] != parallel["fleets"]:
        failures.append("fleet report differs between --jobs 1 and --jobs 4")
    if not serial["fleets"]:
        failures.append("fleet run produced no preset rows")

    with tempfile.TemporaryDirectory(prefix="foreco-fleet-smoke-") as root:
        first = json.loads(
            run_experiments([], scale="ci", seed=42, jobs=2, fmt="json",
                            fleet=OPERATORS, store=root)
        )
        second = json.loads(
            run_experiments([], scale="ci", seed=42, jobs=2, fmt="json",
                            fleet=OPERATORS, store=root, resume=True)
        )
        expected = len(first["fleets"])
        if (first["store"]["hits"], first["store"]["misses"]) != (0, expected):
            failures.append(f"cold run expected 0/{expected} hits/misses, got {first['store']}")
        if (second["store"]["hits"], second["store"]["misses"]) != (expected, 0):
            failures.append(f"warm run expected 100% hits, got {second['store']}")
        if first["fleets"] != second["fleets"]:
            failures.append("warm fleet records differ from the cold run (round-trip broken)")

    solo = get_fleet("shared-ap", operators=1)
    sessions = SessionEngine()
    fleet_row = FleetEngine(sessions=sessions).run(solo)
    session_row = sessions.run(solo.template)
    if fleet_row.rmse_foreco_mm != session_row.rmse_foreco_mm:
        failures.append("1-operator fleet is not bit-identical to SessionEngine")

    # hybrid tier, below the crossover: every occupied AP classifies hot, so
    # the hybrid result must degenerate to the exact computation bit for bit.
    exact_fleet = get_fleet("shared-ap", operators=OPERATORS)
    hybrid_fleet = exact_fleet.with_(tier="hybrid", hot_threshold=1e-9)
    exact_row = FleetEngine(sessions=sessions).run(exact_fleet)
    hybrid_row = FleetEngine(sessions=sessions).run(hybrid_fleet)
    if (
        hybrid_row.rmse_foreco_mm != exact_row.rmse_foreco_mm
        or hybrid_row.completion_time_s != exact_row.completion_time_s
        or hybrid_row.recovery_fraction != exact_row.recovery_fraction
    ):
        failures.append("all-hot hybrid fleet is not bit-identical to the exact engine")
    if hybrid_row.tier != "hybrid" or hybrid_row.analytic_sessions != 0:
        failures.append("all-hot hybrid fleet reported unexpected tier metadata")

    with tempfile.TemporaryDirectory(prefix="foreco-fleet-smoke-") as root:
        cold = json.loads(
            run_experiments([], scale="ci", seed=42, jobs=2, fmt="json",
                            fleet=OPERATORS, fleet_tier="hybrid", store=root)
        )
        warm = json.loads(
            run_experiments([], scale="ci", seed=42, jobs=2, fmt="json",
                            fleet=OPERATORS, fleet_tier="hybrid", store=root,
                            resume=True)
        )
        expected = len(cold["fleets"])
        if (warm["store"]["hits"], warm["store"]["misses"]) != (expected, 0):
            failures.append(f"warm hybrid run expected 100% hits, got {warm['store']}")
        if cold["fleets"] != warm["fleets"]:
            failures.append("warm hybrid records differ from the cold run")
        if set(cold["fleet_tier"]["tiers"].values()) != {"hybrid"}:
            failures.append("--fleet-tier hybrid override did not reach every preset")

    if failures:
        for failure in failures:
            print(f"FLEET SMOKE FAILURE: {failure}", file=sys.stderr)
        return 1
    print(
        f"fleet smoke ok: {len(serial['fleets'])} presets x {OPERATORS} operators, "
        "jobs-invariant, 100% warm hits (exact + hybrid), solo == session, "
        "all-hot hybrid == exact"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
