#!/usr/bin/env python
"""Generate the docs pages that are derived from code.

Currently one page: ``docs/presets.md``, the scenario-preset reference table
rendered from :mod:`repro.scenarios.registry` plus the sizing-scale and
forecaster tables.  Run from the repository root::

    PYTHONPATH=src python scripts/generate_docs.py            # (re)write
    PYTHONPATH=src python scripts/generate_docs.py --check    # CI drift gate

``--check`` exits non-zero when the checked-in page differs from what the
registry would generate, so the docs can never silently drift from the code.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import inspect

from repro.fleet import (
    ARRIVAL_KIND_SUMMARIES,
    ARRIVAL_KINDS,
    METHOD_KIND_SUMMARIES,
    METHOD_KINDS,
    TIER_KIND_SUMMARIES,
    TIER_KINDS,
    FleetSpec,
    PlanSpec,
    fleet_catalog,
    get_fleet,
    get_plan,
    plan_catalog,
)
from repro.forecasting import forecaster_names, make_forecaster
from repro.scenarios import (
    CHANNEL_KIND_SUMMARIES,
    CHANNEL_KINDS,
    ENGINE_EPOCH,
    ResultStore,
    get_scale,
    get_scenario,
    scale_names,
    scenario_catalog,
)
from repro.service import (
    POLICY_KIND_SUMMARIES,
    POLICY_KINDS,
    get_service,
    service_catalog,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
PRESETS_PAGE = REPO_ROOT / "docs" / "presets.md"

HEADER = """\
# Scenario preset reference

<!-- GENERATED PAGE - edit scripts/generate_docs.py or the registries it
     reads, then run: PYTHONPATH=src python scripts/generate_docs.py -->

Named workloads registered in `repro.scenarios.registry`.  Fetch one with
`get_scenario(name)` and derive variants with `.with_(...)`,
`.with_channel(...)` and `.with_foreco(...)`; register project-specific
presets with `register_scenario`.
"""


def _preset_table() -> list[str]:
    lines = [
        "| Preset | Channel | Operator | PID | Description |",
        "| --- | --- | --- | --- | --- |",
    ]
    for name, description in scenario_catalog().items():
        if name.startswith("adversarial-"):
            continue  # rendered in their own provenance table
        spec = get_scenario(name)
        channel = spec.channel.describe().replace("|", "\\|")
        lines.append(
            f"| `{name}` | `{channel}` | {spec.operator} | "
            f"{'yes' if spec.use_pid else 'no'} | {description} |"
        )
    return lines


def _adversarial_table() -> list[str]:
    lines = [
        "| Preset | Spec hash | Channel | Provenance |",
        "| --- | --- | --- | --- |",
    ]
    for name, description in scenario_catalog().items():
        if not name.startswith("adversarial-"):
            continue
        spec = get_scenario(name)
        channel = spec.channel.describe().replace("|", "\\|")
        lines.append(f"| `{name}` | `{spec.spec_hash()}` | `{channel}` | {description} |")
    return lines


def _channel_kind_table() -> list[str]:
    lines = [
        "| Kind | Model |",
        "| --- | --- |",
    ]
    for kind in CHANNEL_KINDS:
        summary = CHANNEL_KIND_SUMMARIES.get(kind, "")
        lines.append(f"| `{kind}` | {summary} |")
    return lines


def _fleet_table() -> list[str]:
    lines = [
        "| Fleet | Operators | APs | Capacity | Service (ms) | Arrival | Tier | Template | Description |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for name, description in fleet_catalog().items():
        fleet = get_fleet(name)
        arrival = fleet.arrival
        if arrival != "simultaneous":
            arrival = f"{arrival} @ {fleet.arrival_rate_hz:g}/s"
        tier = fleet.tier
        if tier != "exact":
            tier = f"{tier} @ {fleet.hot_threshold:g}/{fleet.cold_tail}"
        lines.append(
            f"| `{name}` | {fleet.operators} | {fleet.aps} | {fleet.ap_capacity} | "
            f"{fleet.ap_service_ms:g} | {arrival} | {tier} | `{fleet.template.name}` | {description} |"
        )
    return lines


def _arrival_kind_table() -> list[str]:
    lines = [
        "| Arrival | Process |",
        "| --- | --- |",
    ]
    for kind in ARRIVAL_KINDS:
        lines.append(f"| `{kind}` | {ARRIVAL_KIND_SUMMARIES.get(kind, '')} |")
    return lines


def _tier_table() -> list[str]:
    lines = [
        "| Tier | Execution |",
        "| --- | --- |",
    ]
    for kind in TIER_KINDS:
        lines.append(f"| `{kind}` | {TIER_KIND_SUMMARIES.get(kind, '')} |")
    return lines


def _tier_knob_table() -> list[str]:
    defaults = FleetSpec()
    rows = [
        (
            "hot_threshold",
            f"{defaults.hot_threshold:g}",
            "saturation score in (0, 1] at or above which an AP is simulated exactly",
        ),
        (
            "cold_tail",
            f"`{defaults.cold_tail}`",
            "tail family of the cold-AP superposition model (`gaussian` or `heavy`)",
        ),
        (
            "cold_tail_index",
            f"{defaults.cold_tail_index:g}",
            "Pareto shape of the `heavy` tail (> 1; larger is thinner)",
        ),
    ]
    lines = [
        "| Knob | Default | Meaning |",
        "| --- | --- | --- |",
    ]
    for knob, default, meaning in rows:
        lines.append(f"| `{knob}` | {default} | {meaning} |")
    return lines


def _plan_table() -> list[str]:
    lines = [
        "| Plan | Fleet | Method | SLO (p99 / late / drop) | Bounds | Budget | Description |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for name, description in plan_catalog().items():
        spec = get_plan(name)
        slo = f"{spec.slo_p99:g} / {spec.slo_late:g} / {spec.slo_drop:g}"
        bounds = f"[{spec.min_capacity}, {spec.max_capacity}]"
        lines.append(
            f"| `{name}` | `{spec.fleet.name}` | `{spec.method}` | {slo} | "
            f"{bounds} | {spec.budget} | {description} |"
        )
    return lines


def _plan_method_table() -> list[str]:
    lines = [
        "| Method | Search |",
        "| --- | --- |",
    ]
    for kind in METHOD_KINDS:
        lines.append(f"| `{kind}` | {METHOD_KIND_SUMMARIES.get(kind, '')} |")
    return lines


def _plan_knob_table() -> list[str]:
    defaults = PlanSpec()
    rows = [
        ("slo_p99", f"{defaults.slo_p99:g}",
         "quality gate: p99 recovery at a probed capacity must reach this fraction"),
        ("slo_late", f"{defaults.slo_late:g}",
         "quality gate: mean late/lost fraction must stay at or below this"),
        ("slo_drop", f"{defaults.slo_drop:g}",
         "verdict gate: drop rate left at the *chosen* capacity must not exceed this"),
        ("min_capacity / max_capacity",
         f"{defaults.min_capacity} / {defaults.max_capacity}",
         "inclusive integer bounds of the capacity search"),
        ("budget", f"{defaults.budget}",
         "maximum distinct capacities evaluated (store hits and repeats are free)"),
        ("method", f"`{defaults.method}`",
         "search method (see the method table above)"),
        ("dual_step", f"{defaults.dual_step:g}",
         "dual-ascent step size (multipliers move `dual_step * violation` per iteration)"),
        ("max_iterations", f"{defaults.max_iterations}",
         "iteration safety cap for either method"),
    ]
    lines = [
        "| Knob | Default | Meaning |",
        "| --- | --- | --- |",
    ]
    for knob, default, meaning in rows:
        lines.append(f"| `{knob}` | {default} | {meaning} |")
    return lines


def _service_table() -> list[str]:
    lines = [
        "| Service | Fleet | Policy | Limit | Forecast | Snapshot every | Description |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for name, description in service_catalog().items():
        spec = get_service(name)
        forecast = (
            f"`{spec.forecast_algorithm}` @ {spec.forecast_record}"
            if spec.policy == "forecast-aware"
            else "—"
        )
        lines.append(
            f"| `{name}` | `{spec.fleet.name}` | `{spec.policy}` | "
            f"{spec.utilization_limit:g} | {forecast} | {spec.snapshot_every_slots} slots | "
            f"{description} |"
        )
    return lines


def _policy_table() -> list[str]:
    lines = [
        "| Policy | Admission rule |",
        "| --- | --- |",
    ]
    for kind in POLICY_KINDS:
        lines.append(f"| `{kind}` | {POLICY_KIND_SUMMARIES.get(kind, '')} |")
    return lines


def _scale_table() -> list[str]:
    lines = [
        "| Scale | Train reps | Test reps | Heatmap reps | Run (s) | Fig. 7 windows (ms) |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for name in scale_names():
        scale = get_scale(name)
        windows = ", ".join(str(w) for w in scale.forecast_windows_ms)
        lines.append(
            f"| `{scale.name}` | {scale.train_repetitions} | {scale.test_repetitions} | "
            f"{scale.heatmap_repetitions} | {scale.run_seconds:g} | {windows} |"
        )
    return lines


def _forecaster_table() -> list[str]:
    lines = [
        "| Name | Class | Batched kernel |",
        "| --- | --- | --- |",
    ]
    for name in forecaster_names():
        try:
            forecaster = make_forecaster(name, record=2)
        except Exception:  # pragma: no cover - runtime-registered class quirks
            continue
        if not type(forecaster).__module__.startswith("repro.forecasting"):
            # Runtime-registered project forecasters are not part of the
            # shipped reference (and would make the generated page depend on
            # what happens to be registered in this process).
            continue
        batched = "yes" if forecaster.supports_batch_predict else "no (one copy per row)"
        lines.append(f"| `{name}` | `{type(forecaster).__name__}` | {batched} |")
    return lines


def _store_table() -> list[str]:
    defaults = {
        name: parameter.default
        for name, parameter in inspect.signature(ResultStore.__init__).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    }
    rows = [
        ("root", "(required)", "store directory; epochs coexist under one root"),
        (
            "epoch",
            str(defaults.get("epoch", ENGINE_EPOCH)),
            "engine/code epoch (`ENGINE_EPOCH`); entries from other epochs are invisible",
        ),
        (
            "max_entries",
            "unbounded" if defaults.get("max_entries") is None else str(defaults["max_entries"]),
            "LRU cap on stored results",
        ),
        (
            "max_bytes",
            "unbounded" if defaults.get("max_bytes") is None else str(defaults["max_bytes"]),
            "LRU cap on total shard bytes",
        ),
    ]
    lines = [
        "| Knob | Default | Meaning |",
        "| --- | --- | --- |",
    ]
    for knob, default, meaning in rows:
        lines.append(f"| `{knob}` | {default} | {meaning} |")
    return lines


def render() -> str:
    """The full generated page as one string."""
    parts = [HEADER]
    parts.append("## Presets\n")
    parts.extend(_preset_table())
    parts.append("\nA `compound[...]` channel superposes stages: a command traverses")
    parts.append("every stage, delays add up, and it is lost if any stage loses it.")
    parts.append("Per-stage RNG seeds are hash-derived from the stage's *content*, so")
    parts.append("reordering stages never changes the realisations or the loss set.\n")
    parts.append("## Adversarial presets (search-discovered)\n")
    parts.extend(_adversarial_table())
    parts.append("\nWorst cases found by the coverage-guided scenario search")
    parts.append("(`repro.scenarios.search`, CLI: `foreco-experiments search --budget N")
    parts.append("[--promote]`) and pinned in the registry as standing regression")
    parts.append("presets.  The name carries the spec-hash prefix of the discovered")
    parts.append("point; knob values are frozen at full precision so the hash — and any")
    parts.append("memoized store entry — stays stable.  Workflow and tolerances:")
    parts.append("[Validation](validation.md).\n")
    parts.append("## Channel kinds\n")
    parts.extend(_channel_kind_table())
    parts.append("\nEvery kind samples through `sample_channel_delays_batch` (all")
    parts.append("repetitions as one `(B, n)` array; `sample_channel_delays` is its")
    parts.append("one-seed case).  Each row is bit-identical to the serial")
    parts.append("one-realisation sampler of `tests/oracles/serial.py`, the oracle (see")
    parts.append("[Performance](performance.md)).\n")
    parts.append("## Fleet presets\n")
    parts.extend(_fleet_table())
    parts.append("\nA fleet runs `operators` concurrent sessions of its template scenario,")
    parts.append("statically assigned to AP `i % aps`, with per-AP admission control")
    parts.append("(`capacity` concurrent sessions) and a shared backlog that couples the")
    parts.append("co-scheduled sessions' delays (`service` ms of AP air time per")
    parts.append("delivered command).  Fetch one with `repro.fleet.get_fleet(name)`, run")
    parts.append("it with `FleetEngine` or any `SweepExecutor`, or from the CLI:")
    parts.append("`foreco-experiments fleet [--fleet N]`.  See the")
    parts.append("[fleet operations guide](fleet.md).\n")
    parts.extend(_arrival_kind_table())
    parts.append("")
    parts.append("## Simulation tiers\n")
    parts.extend(_tier_table())
    parts.append("\nThe `hybrid` tier classifies every AP hot or cold with the Bianchi")
    parts.append("saturation score (`repro.wireless.bianchi.saturation_score`) and")
    parts.append("services cold APs with the analytic superposition model")
    parts.append("(`repro.wireless.superposition`) instead of the exact Lindley")
    parts.append("backlog.  Tier knobs on `FleetSpec` (hash-relevant: an exact and a")
    parts.append("hybrid run occupy different store addresses, but share arrivals and")
    parts.append("channels through `workload_identity()`):\n")
    parts.extend(_tier_knob_table())
    parts.append("\nOverride from the CLI with `foreco-experiments --fleet-tier")
    parts.append("hybrid|exact`; crossover guidance and the error bound live in the")
    parts.append('[fleet operations guide](fleet.md), "City scale".\n')
    parts.append("## Capacity-plan presets (SLO-driven search)\n")
    parts.extend(_plan_table())
    parts.append("\nA plan searches the per-AP admission capacity of its target fleet")
    parts.append("directly against the SLO gates — no grid sweep.  Fetch one with")
    parts.append("`repro.fleet.get_plan(name)`, run it with `repro.plan(...)` or a")
    parts.append("`CapacityPlanner`, or from the CLI: `foreco-experiments plan")
    parts.append("[--slo-p99 F] [--slo-drop F] [--budget N]`.  Every probe is a real")
    parts.append("fleet evaluation memoized through the result store; finished plans")
    parts.append("persist under their own content addresses, so a warm rerun loads the")
    parts.append('plan record and recomputes nothing.  See [fleet operations](fleet.md),')
    parts.append('"Capacity planning".\n')
    parts.extend(_plan_method_table())
    parts.append("\nPlanner knobs on `PlanSpec` (all hash-relevant except `name`; the")
    parts.append("target fleet's initial `ap_capacity` is pinned out of the identity —")
    parts.append("the capacity is the search variable):\n")
    parts.extend(_plan_knob_table())
    parts.append("")
    parts.append("## Service presets (live admission)\n")
    parts.extend(_service_table())
    parts.append("\nA service runs its fleet workload *live*: operator sessions arrive on")
    parts.append("the virtual clock and an admission policy places, migrates or drops")
    parts.append("each one as it arrives, streaming incremental snapshots.  Fetch one")
    parts.append("with `repro.get_service(name)`, run it with `repro.serve(...)` or any")
    parts.append("`SweepExecutor`, or from the CLI: `foreco-experiments serve [--policy")
    parts.append('NAME] [--until SECONDS]`.  See [fleet operations](fleet.md), "Live')
    parts.append('operations".\n')
    parts.extend(_policy_table())
    parts.append("")
    parts.append("## Sizing scales\n")
    parts.extend(_scale_table())
    parts.append("\n`full` approaches the paper's sweep sizes; `ci` keeps every")
    parts.append("experiment in the seconds range.  `seq2seq` layer sizes and epochs")
    parts.append("also scale (paper: 200/30 units at full scale).\n")
    parts.append("## Forecasting algorithms\n")
    parts.extend(_forecaster_table())
    parts.append(
        "\nAll registry names are accepted by `ScenarioSpec.foreco.algorithm` and"
    )
    parts.append("`make_forecaster`; add custom algorithms with `register_forecaster`.\n")
    parts.append("## Result store\n")
    parts.extend(_store_table())
    parts.append(f"\nThe current engine epoch is **{ENGINE_EPOCH}**.  `ResultStore` persists")
    parts.append("finished sessions on disk, content-addressed by `spec_hash()` + epoch,")
    parts.append("so sweeps compute only the specs whose results are not already stored")
    parts.append("(`SweepExecutor(store=...)`, `foreco-experiments --store PATH`); see")
    parts.append("[Architecture](architecture.md) and [Performance](performance.md).")
    return "\n".join(parts) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the checked-in page matches the registries (exit 1 on drift)",
    )
    args = parser.parse_args(argv)
    content = render()
    if args.check:
        on_disk = PRESETS_PAGE.read_text(encoding="utf-8") if PRESETS_PAGE.exists() else ""
        if on_disk != content:
            sys.stderr.write(
                "docs/presets.md is out of date - run "
                "'PYTHONPATH=src python scripts/generate_docs.py'\n"
            )
            return 1
        print("docs/presets.md is up to date")
        return 0
    PRESETS_PAGE.write_text(content, encoding="utf-8")
    print(f"wrote {PRESETS_PAGE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
