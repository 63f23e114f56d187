"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's figures/tables through the
same ``repro.experiments`` code path as the CLI runner, times it with
pytest-benchmark, and prints the resulting table/series so the paper-vs-
measured comparison can be read straight from the benchmark log (these are
the numbers recorded in EXPERIMENTS.md).

Set ``FORECO_BENCH_SCALE=standard`` (or ``full``) to run the larger sweeps;
the default ``ci`` scale keeps the whole suite in the minutes range.

Benchmark trajectory
--------------------

When ``FORECO_BENCH_JSON=path.json`` is set, the session writes a
machine-readable summary on exit: per-benchmark wall time (the ``call``
phase of every test in this directory) plus whatever named metrics the
benchmarks registered through :func:`record_metric` (speedup factors,
throughputs).  CI runs the suite with ``FORECO_BENCH_JSON=BENCH_ci.json``,
uploads the file as an artifact and diffs it against the committed
``benchmarks/baseline.json`` with ``scripts/compare_bench.py`` (warn-only),
so the repository accumulates a benchmark trajectory instead of discarding
every run's numbers.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import pytest

# The ratio gates time the serial oracles kept with the tests (tests/oracles).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

#: Per-test payload for the trajectory file: ``{test_name: {metric: value}}``.
#: ``wall_s`` is filled by the harness; everything else by record_metric().
_RECORDS: dict[str, dict[str, float]] = {}


@pytest.fixture(scope="session")
def bench_scale() -> str:
    """Experiment scale used by the benchmark suite."""
    return os.environ.get("FORECO_BENCH_SCALE", "ci")


@pytest.fixture(scope="session")
def bench_seed() -> int:
    """Seed shared by every benchmark for reproducible reports."""
    return int(os.environ.get("FORECO_BENCH_SEED", "42"))


def emit(title: str, text: str) -> None:
    """Print an experiment report block inside the benchmark output."""
    print(f"\n================ {title} ================")
    print(text)
    print("=" * (34 + len(title)))


def record_metric(test: str, **metrics: float) -> None:
    """Attach named metrics (speedup factors, throughputs) to a benchmark.

    The values land next to the test's wall time in the
    ``FORECO_BENCH_JSON`` trajectory file and are compared against the
    committed baseline by ``scripts/compare_bench.py``.
    """
    entry = _RECORDS.setdefault(test, {})
    for name, value in metrics.items():
        entry[name] = float(value)


def pytest_runtest_logreport(report) -> None:
    """Record each benchmark's measured (call-phase) wall time."""
    if report.when == "call" and report.passed:
        test = report.nodeid.rsplit("::", 1)[-1]
        _RECORDS.setdefault(test, {})["wall_s"] = float(report.duration)


def pytest_sessionfinish(session, exitstatus) -> None:
    """Write the machine-readable trajectory when FORECO_BENCH_JSON is set."""
    path = os.environ.get("FORECO_BENCH_JSON")
    if not path or not _RECORDS:
        return
    payload = {
        "format": 1,
        "scale": os.environ.get("FORECO_BENCH_SCALE", "ci"),
        "seed": int(os.environ.get("FORECO_BENCH_SEED", "42")),
        "python": platform.python_version(),
        "benchmarks": {name: dict(sorted(metrics.items())) for name, metrics in sorted(_RECORDS.items())},
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
