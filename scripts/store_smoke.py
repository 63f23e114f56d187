#!/usr/bin/env python
"""CI smoke test for the persistent result store, end to end.

Runs a tiny scenario sweep twice through the real CLI code path
(:func:`repro.experiments.runner.run_experiments`) against a temporary
store and asserts the resumable-execution contract on a clean checkout:

* the first run computes everything (0 hits) and persists it;
* the second run — with ``--resume`` semantics — reports **100% hits**,
  computes nothing, and returns record-for-record identical results;
* each stored row replays (:meth:`SessionEngine.trajectories`) to the
  trajectories of a cold run of its spec, bit for bit.

Exit code 0 on success, 1 with a diagnostic on any violated expectation.
Run it from an environment where ``repro`` is importable (CI installs the
package; locally ``PYTHONPATH=src python scripts/store_smoke.py`` works).
"""

from __future__ import annotations

import json
import sys
import tempfile

from repro.experiments.runner import run_experiments
from repro.scenarios import ResultStore, SessionEngine, get_scenario

#: Small presets exercising three channel kinds, one carrying ``inf`` delays.
SCENARIOS = ["bursty-loss", "random-loss", "trace-replay"]


def _trajectory_bytes(engine: SessionEngine, row) -> list[bytes]:
    """The replayed trajectories of ``row`` (clocks and joints) as raw bytes."""
    replay = engine.trajectories(row)
    trajectories = (replay.defined, replay.baseline, replay.foreco)
    return [array.tobytes() for t in trajectories for array in (t.times_s, t.joints)]


def _replay_failures(root: str) -> list[str]:
    """Scenarios whose stored row does not replay to the cold row's trajectories."""
    failures = []
    for name in SCENARIOS:
        spec = get_scenario(name, scale="ci", seed=42)
        warm_engine, cold_engine = SessionEngine(store=ResultStore(root)), SessionEngine()
        warm, stored = warm_engine.memo.lookup(spec)
        if warm is None or not stored:
            failures.append(f"{name}: no stored row to replay")
        elif _trajectory_bytes(warm_engine, warm) != _trajectory_bytes(cold_engine, cold_engine.run(spec)):
            failures.append(f"{name}: stored row replays to different trajectories than a cold run")
    return failures


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="foreco-store-smoke-") as root:
        first = json.loads(
            run_experiments([], scale="ci", seed=42, jobs=2, fmt="json",
                            scenarios=SCENARIOS, store=root)
        )
        second = json.loads(
            run_experiments([], scale="ci", seed=42, jobs=2, fmt="json",
                            scenarios=SCENARIOS, store=root, resume=True)
        )
        replay_failures = _replay_failures(root)

    failures = []
    expected = len(SCENARIOS)
    if (first["store"]["hits"], first["store"]["misses"]) != (0, expected):
        failures.append(f"cold run expected 0/{expected} hits/misses, got {first['store']}")
    if (second["store"]["hits"], second["store"]["misses"]) != (expected, 0):
        failures.append(f"warm run expected 100% hits, got {second['store']}")
    if first["scenarios"] != second["scenarios"]:
        failures.append("warm records differ from the cold run (round-trip broken)")
    if first["store"]["entries"] != expected:
        failures.append(f"store holds {first['store']['entries']} entries, expected {expected}")
    failures += replay_failures

    if failures:
        for failure in failures:
            print(f"store smoke FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        f"store smoke ok: {expected} specs computed once, second run "
        f"{second['store']['hits']}/{expected} hits (100% reused), records and replayed "
        "trajectories identical"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
