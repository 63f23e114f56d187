"""Self-tests of the benchmark; not part of the tier-1 suite.

Run from the repository root::

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps it out of default pytest collection, so a plain
``pytest`` run never starts a benchmark workload.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
import run  # noqa: E402

# One BLAS thread, set before NumPy loads, as in a benchmark run: the pinned
# digests hold only for it.
run._pin_process()

import layers  # noqa: E402
from spans import Hook, Tracer, write_chrome_trace  # noqa: E402
from workloads import WORKLOADS, OnlineResult  # noqa: E402


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, seed: int, seconds: float, trace: int):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------- declaration
def test_benchmark_json_declares_what_the_runner_reports():
    bench = _bench()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == layers.PER_LAYER


def test_layer_map_names_real_metrics_and_workloads():
    for entry in layers.MOVES:
        for pattern in entry["layer"]:
            assert fnmatch.filter(layers.PER_LAYER, pattern), pattern
        for metric in entry["moves"].split(", "):
            assert metric in run.END_TO_END
        assert set(entry["on"]) | set(entry["not_on"]) <= set(WORKLOADS)


# ------------------------------------------------------------- correctness
def _perturb(result):
    """The same result with one float nudged by a rounding-sized amount."""
    if isinstance(result, OnlineResult):
        executed = result.executed.copy()
        executed[0, -1, 0] += 1e-9
        return dataclasses.replace(result, executed=executed)

    def nudge(row):
        return dataclasses.replace(
            row, rmse_foreco_mm=(row.rmse_foreco_mm[0] + 1e-9, *row.rmse_foreco_mm[1:])
        )

    if hasattr(result, "rows"):
        return dataclasses.replace(result, rows=[nudge(result.rows[0]), *result.rows[1:]])
    return nudge(result)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pinned_digest_holds_and_a_perturbed_result_is_caught(name, tmp_path):
    seed = 0
    workload = WORKLOADS[name](seed, tmp_path)
    workload.setup()
    workload.prepare()
    result = workload.request()
    good = workload.summarize(result)
    bad = workload.summarize(_perturb(result))
    workload.cleanup()

    assert good.problems == []
    pinned = run.pinned_digest(run.load_pins(), name, seed)
    if pinned is not None:
        assert good.digest == pinned
    assert bad.digest != good.digest
    assert run.count_failures(good, [good, good], pinned) == 0
    assert run.count_failures(good, [good, bad], pinned) == bad.sessions
    assert run.count_failures(good, [good], "0" * 64) == good.sessions


# ----------------------------------------------------------------- tracing
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly_across_runs(name):
    first, second = (_result(_run(ROOT, name, 2, 0, 1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(layers.PER_LAYER)
    for metric, (unit, _) in layers.PER_LAYER.items():
        if unit in ("count", "bytes"):
            assert first["metrics"][metric] == second["metrics"][metric], metric
    trace = json.loads((ROOT / ".perfbench" / f"{name}-seed2-trace1.trace.json").read_text())
    assert trace["otherData"]["workload"] == name
    assert {event["name"] for event in trace["traceEvents"]} >= {"bench.setup", "bench.request"}


class Toy:
    """Target for the tracer's own tests."""

    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i


def test_tracer_nests_spans_counts_rows_and_restores_targets(tmp_path):
    original = Toy.__dict__["inner"]
    hooks = (
        Hook("toy.outer", f"{__name__}.Toy", "outer", lambda a, k, r: {"toy.rows": a[1]}),
        Hook("toy.inner", f"{__name__}.Toy", "inner"),
    )
    tracer = Tracer()
    with tracer.installed(hooks), tracer.span("root"):
        assert Toy().outer(3) == 3
    assert Toy.__dict__["inner"] is original
    tracer.check_nesting()
    metrics = tracer.metrics()
    assert metrics["toy.outer.calls"] == 1 and metrics["toy.inner.calls"] == 3
    assert metrics["toy.rows"] == 3
    assert metrics["toy.outer.s"] >= metrics["toy.inner.s"]
    parents = {span.name: span.parent_id for span in tracer.spans}
    assert parents["toy.inner"] == next(s.span_id for s in tracer.spans if s.name == "toy.outer")
    path = tmp_path / "trace.json"
    write_chrome_trace([tracer, tracer], path, {"seed": 0})
    events = json.loads(path.read_text())["traceEvents"]
    assert len({event["args"]["id"] for event in events}) == 2 * len(tracer.spans)


# ------------------------------------------------------------------ guards
def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run(tmp_path, "online-recovery", 1, 1, 0)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
