"""scripts/compare_bench.py: the perfbench ledger mode and the trajectory mode's exit codes."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_script():
    spec = importlib.util.spec_from_file_location("compare_bench", REPO_ROOT / "scripts" / "compare_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_bench = _load_script()


def _record(workload: str, trace: int, metrics: dict[str, float]) -> dict:
    return {
        "run": {"workload": workload, "seed": 1, "trace": trace},
        "correct": True,
        "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()},
    }


def _ledger(tmp_path: Path, payload: dict) -> str:
    path = tmp_path / "BENCH_1.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def ledger(tmp_path) -> str:
    return _ledger(
        tmp_path,
        {
            "records": {
                "parent": {
                    "svc-seed1-trace0": _record("svc", 0, {"session_slots_per_s": 1000.0, "setup_s": 0.5}),
                    "svc-seed1-trace1": _record("svc", 1, {"service.admit.s": 0.12, "fit.calls": 2306}),
                },
                "change": {
                    "svc-seed1-trace0": _record("svc", 0, {"session_slots_per_s": 1800.0, "setup_s": 0.5}),
                    "svc-seed1-trace1": _record("svc", 1, {"service.admit.s": 0.012, "fit.calls": 0}),
                },
            }
        },
    )


def test_ledger_mode_prints_parent_change_and_delta(ledger, capsys):
    assert compare_bench.main(["--ledger", ledger]) == 0
    out = capsys.readouterr().out
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines() if line.startswith("  ")}
    assert rows["session_slots_per_s"] == ["1000", "1800", "+80.0%"]
    assert rows["setup_s"] == ["0.5", "0.5", "+0.0%"]
    assert rows["service.admit.s"] == ["0.12", "0.012", "-90.0%"]
    assert rows["fit.calls"] == ["2306", "0", "-100.0%"]
    assert out.index("svc-seed1-trace0") < out.index("svc-seed1-trace1")


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {"about": "no records"},
        {"records": {"parent": {"w-seed1-trace0": _record("w", 0, {"setup_s": 1.0})}}},
        {"records": {"parent": {"w": {"run": {}}}, "change": {"w": {"metrics": {}}}}},
        {
            "records": {
                "parent": {"w": {"metrics": {"setup_s": {"value": "fast"}}}},
                "change": {"w": {"metrics": {"setup_s": {"value": 1.0}}}},
            }
        },
    ],
    ids=["not-an-object", "no-records", "no-change-side", "no-metrics", "non-numeric"],
)
def test_malformed_ledger_exits_2(tmp_path, payload):
    with pytest.raises(SystemExit) as exc:
        compare_bench.main(["--ledger", _ledger(tmp_path, payload)])
    assert exc.value.code == 2


def test_unreadable_ledger_exits_2(tmp_path):
    (tmp_path / "broken.json").write_text("{not json", encoding="utf-8")
    for path in (tmp_path / "broken.json", tmp_path / "missing.json"):
        with pytest.raises(SystemExit) as exc:
            compare_bench.main(["--ledger", str(path)])
        assert exc.value.code == 2


def test_trajectory_mode_stays_warn_only(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    current = tmp_path / "current.json"
    baseline.write_text(json.dumps({"scale": "ci", "benchmarks": {"t": {"wall_s": 1.0}}}), encoding="utf-8")
    current.write_text(json.dumps({"scale": "ci", "benchmarks": {"t": {"wall_s": 2.0}}}), encoding="utf-8")
    assert compare_bench.main([str(current), str(baseline)]) == 0
    assert "regression warning" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        compare_bench.main([str(current)])
    assert exc.value.code == 2
