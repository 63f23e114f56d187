#!/usr/bin/env python
"""CI smoke test for the SLO-driven capacity planner, end to end.

Runs the ``plan`` keyword through the real CLI code path
(:func:`repro.experiments.runner.run_experiments`) against a temporary
store and asserts the planner's whole contract on a clean checkout:

* both built-in plan presets recover the documented shared-ap knee
  (capacity 3 ops/AP, exactly) and declare it feasible;
* the cold pass computes every probe, persists probe shards *and* the
  finished plan records;
* the warm pass is **100% store hits** — the plan records are loaded
  whole, zero probes recomputed — and renders a bit-identical ``plans``
  section;
* a ``--jobs 4`` pass (fresh store) produces the same plans byte for byte
  as the ``--jobs 1`` cold pass (jobs invariance).

Exit code 0 on success, 1 with a diagnostic on any violated expectation.
Run it from an environment where ``repro`` is importable (CI installs the
package; locally ``PYTHONPATH=src python scripts/plan_smoke.py`` works).
"""

from __future__ import annotations

import json
import sys
import tempfile

from repro.experiments.runner import run_experiments

SEED = 11
KNEE = 3


def _plan(store: str, resume: bool, jobs: int = 1) -> dict:
    report = run_experiments(
        ["plan"], scale="ci", seed=SEED, jobs=jobs, fmt="json", store=store, resume=resume
    )
    return json.loads(report)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="foreco-plan-smoke-") as root:
        first = _plan(root, resume=False)
        second = _plan(root, resume=True)
    with tempfile.TemporaryDirectory(prefix="foreco-plan-smoke-") as root:
        fanned = _plan(root, resume=False, jobs=4)

    failures = []
    for row in first["plans"]:
        if row["capacity"] != KNEE:
            failures.append(
                f"{row['plan']} ({row['method']}) chose capacity "
                f"{row['capacity']}, expected the knee at {KNEE}"
            )
        if not row["feasible"]:
            failures.append(f"{row['plan']} declared the knee infeasible")
    n_plans = len(first["plans"])
    if first["store"]["hits"] >= first["store"]["misses"]:
        failures.append(
            f"cold pass expected mostly misses, got "
            f"{first['store']['hits']}/{first['store']['misses']} hits/misses"
        )
    if second["store"]["misses"] != 0 or second["store"]["hits"] != n_plans:
        failures.append(
            f"warm pass expected {n_plans}/0 hits/misses (plan records reused, "
            f"zero recompute), got "
            f"{second['store']['hits']}/{second['store']['misses']}"
        )
    if second["plans"] != first["plans"]:
        failures.append("warm plans differ from the cold pass (determinism broken)")
    if fanned["plans"] != first["plans"]:
        failures.append("--jobs 4 plans differ from --jobs 1 plans (invariance broken)")

    if failures:
        for failure in failures:
            print(f"plan smoke FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        f"plan smoke ok: {n_plans} presets at the knee (capacity {KNEE}), warm pass "
        f"{second['store']['hits']}/{n_plans} plan records reused (zero recompute), "
        f"--jobs 4 identical to --jobs 1"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
