#!/usr/bin/env python
"""Diff a benchmark-trajectory JSON against the committed baseline.

CI runs the benchmark suite with ``FORECO_BENCH_JSON=BENCH_ci.json`` (see
``benchmarks/conftest.py``), uploads the file as an artifact, then runs::

    python scripts/compare_bench.py BENCH_ci.json benchmarks/baseline.json

The comparison is **warn-only**: CI hardware is noisy and shared, so a wall
time more than ``--threshold`` (default 20%) over baseline — or a speedup
factor more than 20% under it — prints a warning (a ``::warning::``
annotation on GitHub Actions) but never fails the build.  Hard performance
floors live in the benchmarks themselves (the >=3x batch gates, the >=10x
warm-store gate); this script tracks the *trajectory* between those floors.

Exit codes: 0 — compared (with or without warnings); 2 — a file is missing
or malformed (the pipeline itself is broken, which SHOULD fail the step).

Ledger mode reads a committed perfbench ledger instead (``BENCH_<number>.json``
at the repository root: the ``.perfbench`` records of the parent commit and
of the change, under ``records.parent`` and ``records.change``)::

    python scripts/compare_bench.py --ledger BENCH_20.json

It prints, per workload, parent vs change for every end-to-end and per-layer
metric the records hold, with the relative delta.  It only reports: exit 0
once printed, 2 when the ledger is missing or malformed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def _load(path: str) -> dict:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"compare_bench: cannot read {path}: {exc}\n")
        raise SystemExit(2) from exc
    if not isinstance(payload.get("benchmarks"), dict):
        sys.stderr.write(f"compare_bench: {path} has no 'benchmarks' table\n")
        raise SystemExit(2)
    return payload


def _warn(message: str) -> None:
    prefix = "::warning title=benchmark regression::" if os.environ.get("GITHUB_ACTIONS") else "WARNING: "
    print(f"{prefix}{message}")


def compare(current: dict, baseline: dict, threshold: float) -> list[str]:
    """Return the list of regression messages (also printed as warnings)."""
    warnings: list[str] = []
    current_benchmarks = current["benchmarks"]
    for test, base_metrics in sorted(baseline["benchmarks"].items()):
        cur_metrics = current_benchmarks.get(test)
        if cur_metrics is None:
            warnings.append(f"{test}: present in baseline but missing from this run")
            continue
        for metric, base_value in sorted(base_metrics.items()):
            cur_value = cur_metrics.get(metric)
            if cur_value is None or not base_value:
                continue
            ratio = cur_value / base_value
            if metric == "wall_s" or metric.endswith("_s"):
                # Wall times regress upward.  Sub-50ms timings are pure
                # scheduler noise at any threshold — never warn on them.
                if max(base_value, cur_value) < 0.05:
                    continue
                if ratio > 1.0 + threshold:
                    warnings.append(
                        f"{test}.{metric}: {cur_value:.3f}s vs baseline "
                        f"{base_value:.3f}s (+{100 * (ratio - 1):.0f}%)"
                    )
            elif metric.startswith("speedup"):
                # Speedup factors regress downward.
                if ratio < 1.0 - threshold:
                    warnings.append(
                        f"{test}.{metric}: x{cur_value:.1f} vs baseline "
                        f"x{base_value:.1f} (-{100 * (1 - ratio):.0f}%)"
                    )
    return warnings


def render_table(current: dict, baseline: dict) -> str:
    """Side-by-side table of every metric present in either file."""
    lines = [f"{'benchmark.metric':<58s} {'baseline':>10s} {'current':>10s} {'delta':>8s}"]
    lines.append("-" * len(lines[0]))
    tests = sorted(set(baseline["benchmarks"]) | set(current["benchmarks"]))
    for test in tests:
        base_metrics = baseline["benchmarks"].get(test, {})
        cur_metrics = current["benchmarks"].get(test, {})
        for metric in sorted(set(base_metrics) | set(cur_metrics)):
            base_value = base_metrics.get(metric)
            cur_value = cur_metrics.get(metric)
            base_text = f"{base_value:.3f}" if base_value is not None else "-"
            cur_text = f"{cur_value:.3f}" if cur_value is not None else "-"
            if base_value and cur_value is not None:
                delta = f"{100 * (cur_value / base_value - 1):+.0f}%"
            else:
                delta = "-"
            lines.append(f"{test + '.' + metric:<58s} {base_text:>10s} {cur_text:>10s} {delta:>8s}")
    return "\n".join(lines)


def _load_ledger(path: str) -> dict[str, dict[str, dict[str, float]]]:
    """``{side: {record: {metric: value}}}`` for the parent and change sides of a ledger."""

    def malformed(reason: str) -> SystemExit:
        sys.stderr.write(f"compare_bench: {path} is not a perfbench ledger: {reason}\n")
        return SystemExit(2)

    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"compare_bench: cannot read {path}: {exc}\n")
        raise SystemExit(2) from exc
    records = payload.get("records") if isinstance(payload, dict) else None
    if not isinstance(records, dict):
        raise malformed("no 'records' table")
    sides: dict[str, dict[str, dict[str, float]]] = {}
    for side in ("parent", "change"):
        if not isinstance(records.get(side), dict) or not records[side]:
            raise malformed(f"no records for the {side!r} side")
        sides[side] = {}
        for name, record in records[side].items():
            metrics = record.get("metrics") if isinstance(record, dict) else None
            if not isinstance(metrics, dict):
                raise malformed(f"{side} record {name!r} has no 'metrics' table")
            values = {
                metric: entry.get("value") if isinstance(entry, dict) else None
                for metric, entry in metrics.items()
            }
            bad = [m for m, v in values.items() if isinstance(v, bool) or not isinstance(v, (int, float))]
            if bad:
                raise malformed(f"{side} record {name!r} has non-numeric values for {bad}")
            sides[side][name] = values
    return sides


def render_ledger(sides: dict[str, dict[str, dict[str, float]]]) -> str:
    """Parent vs change per record (one workload, seed and trace mode each), with deltas."""
    lines = []
    parent, change = sides["parent"], sides["change"]
    for record in [*parent, *(name for name in change if name not in parent)]:
        before, after = parent.get(record, {}), change.get(record, {})
        header = f"{record:<48s} {'parent':>14s} {'change':>14s} {'delta':>8s}"
        lines += ["", header, "-" * len(header)]
        for metric in [*before, *(name for name in after if name not in before)]:
            base_value, cur_value = before.get(metric), after.get(metric)
            base_text = f"{base_value:.6g}" if base_value is not None else "-"
            cur_text = f"{cur_value:.6g}" if cur_value is not None else "-"
            if base_value and cur_value is not None:
                delta = f"{100 * (cur_value - base_value) / abs(base_value):+.1f}%"
            else:
                delta = "-"
            lines.append(f"  {metric:<46s} {base_text:>14s} {cur_text:>14s} {delta:>8s}")
    return "\n".join(lines[1:])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("current", nargs="?", help="trajectory JSON from this run (BENCH_*.json)")
    parser.add_argument("baseline", nargs="?", help="committed baseline (benchmarks/baseline.json)")
    parser.add_argument(
        "--threshold", type=float, default=0.20,
        help="relative regression that triggers a warning (default: 0.20 = 20%%)",
    )
    parser.add_argument(
        "--ledger", help="print parent vs change from a perfbench ledger (BENCH_<number>.json)"
    )
    args = parser.parse_args(argv)
    if args.ledger is not None:
        if args.current is not None or args.baseline is not None:
            parser.error("--ledger takes no trajectory or baseline file")
        print(render_ledger(_load_ledger(args.ledger)))
        return 0
    if args.current is None or args.baseline is None:
        parser.error("give a trajectory and a baseline file, or --ledger")
    current = _load(args.current)
    baseline = _load(args.baseline)
    if current.get("scale") != baseline.get("scale"):
        _warn(
            f"scale mismatch: run at {current.get('scale')!r}, baseline at "
            f"{baseline.get('scale')!r} — wall-time deltas are not comparable"
        )
    print(render_table(current, baseline))
    warnings = compare(current, baseline, args.threshold)
    for message in warnings:
        _warn(message)
    if warnings:
        print(f"\n{len(warnings)} regression warning(s) over {100 * args.threshold:.0f}% (warn-only)")
    else:
        print("\nno regressions beyond the threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
