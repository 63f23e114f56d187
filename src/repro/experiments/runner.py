"""Command-line runner for the paper experiments and scenario presets.

Installed as the ``foreco-experiments`` console script::

    foreco-experiments all                     # every figure/table at CI scale
    foreco-experiments fig8 --scale ci --jobs 4
    foreco-experiments fig7 fig9 --seed 7 --output results.txt
    foreco-experiments --scenario jammer --scenario congested-ap --jobs 2
    foreco-experiments all --format json       # machine-readable report
    foreco-experiments --scenario all --store ~/.cache/foreco-store
    foreco-experiments --scenario all --store ~/.cache/foreco-store --resume
    foreco-experiments fleet                   # every fleet preset
    foreco-experiments fleet --fleet 8 --jobs 4  # ... with 8 operators each

(also installed as ``repro-experiments``, the name CI uses)

Each experiment prints the text rendering of its result (the same tables the
benchmark harness produces) or, with ``--format json``, a JSON document, so
the paper-vs-measured comparison recorded in EXPERIMENTS.md can be
regenerated with a single command.  ``--jobs`` fans sweep-style experiments
out over worker processes through the scenario engine; results are identical
to the serial run.  ``--scenario`` runs named presets from
:mod:`repro.scenarios.registry` (repeat the flag for several; the special
name ``all`` runs every preset).

``--store PATH`` attaches a persistent :class:`repro.scenarios.ResultStore`
to the scenario sweep: results already stored are loaded instead of
recomputed, everything newly computed is written back, and the report states
the hit/miss partition — so an interrupted or extended sweep only ever
computes what is missing.  ``--resume`` additionally *requires* the store to
exist and be non-empty, guarding against a mistyped path silently
recomputing a whole grid from scratch.  (The figure/table experiments run
their own pipelines and are not stored.)

The ``search`` keyword runs the budgeted coverage-guided scenario search
(:mod:`repro.scenarios.search`) over the combinator grammar: ``--budget N``
sets the number of candidate evaluations, ``--promote`` registers the
top-discovered worst cases as ``adversarial-*`` presets for the rest of the
invocation (they then run like any preset via ``--scenario all``), and
``--store``/``--resume``/``--jobs`` memoize and parallelise
the probes exactly like scenario sweeps — a warm rerun against the same
store recomputes nothing.

The ``fleet`` keyword runs every fleet preset from
:mod:`repro.fleet.registry` — multi-operator service workloads with shared
access points, admission control and arrival processes (see
``docs/fleet.md``).  ``--fleet N`` overrides the operator population of
every fleet preset (and implies the ``fleet`` run); ``--fleet-tier
hybrid|exact`` overrides the simulation tier (the city-scale hybrid tier
classifies APs hot/cold and services the cold tail analytically — see
``docs/fleet.md`` "City scale"); fleets honour ``--jobs``, ``--store`` and
``--resume`` exactly like scenario sweeps.  Reports carry a tier section:
per-fleet tier fields in JSON rows plus an aggregate ``fleet_tier`` block,
and a ``tier:`` summary line in text mode.

The ``serve`` keyword runs every live-service preset from
:mod:`repro.service.registry` — fleet workloads operated under online
admission control on the virtual clock (see ``docs/fleet.md`` "Live
operations").  ``--policy NAME`` overrides each preset's admission policy
(``static-cap``, ``utilization-threshold`` or ``forecast-aware``) and
``--until SECONDS`` bounds the virtual admission horizon; serve runs honour
``--jobs``, ``--store`` and ``--resume`` exactly like the other sweeps and
are bit-identical for any worker count.

The ``plan`` keyword runs every capacity-plan preset from
:mod:`repro.fleet.plan` — SLO-driven searches over per-AP admission
capacities (see ``docs/fleet.md`` "Capacity planning").  ``--slo-p99`` and
``--slo-drop`` override the p99-recovery and drop-rate gates of every
preset, ``--budget N`` caps the number of capacities probed, and
``--jobs``/``--store``/``--resume`` parallelise and memoize
the probes exactly like scenario sweeps; with a store, the finished plans
persist under their own content addresses, so a warm rerun loads the plan
records and recomputes nothing.

Flags that only make sense for one keyword are rejected when that keyword
is absent (``--fleet-tier`` without ``fleet``, ``--budget`` without
``search``/``plan``, ``--promote`` without ``search``,
``--policy``/``--until`` without ``serve``, ``--slo-p99``/``--slo-drop``
without ``plan``): the
library entry point :func:`run_experiments` raises
:class:`~repro.errors.ConfigurationError`, which :func:`main` renders as a
clean CLI error.  JSON reports carry a top-level ``"report_version"``
field (:data:`REPORT_VERSION`); consumers should pin it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from ..errors import ConfigurationError
from ..scenarios import ResultStore, SweepExecutor, get_scenario, scenario_catalog, scenario_names
from . import (
    fig6_dataset,
    fig7_forecast_accuracy,
    fig8_simulation_heatmap,
    fig9_controlled_losses,
    fig10_jammer,
    table1_training_profile,
    table2_hardware_timing,
)

#: Version of the JSON report schema.  Bump when a section is added,
#: removed or restructured, so downstream consumers can pin the shape.
#: (2: added the ``plans`` section and plan lookups in ``store``.)
REPORT_VERSION = 2

#: Registry of experiment name -> run callable.
EXPERIMENTS: dict[str, Callable] = {
    "fig6": fig6_dataset.run,
    "fig7": fig7_forecast_accuracy.run,
    "fig8": fig8_simulation_heatmap.run,
    "fig9": fig9_controlled_losses.run,
    "fig10": fig10_jammer.run,
    "table1": table1_training_profile.run,
    "table2": table2_hardware_timing.run,
}


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``foreco-experiments`` entry point."""
    parser = argparse.ArgumentParser(
        prog="foreco-experiments",
        description="Regenerate the FoReCo paper's figures and tables.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=[],
        help="experiments to run: " + ", ".join(sorted(EXPERIMENTS)) + ", 'all', "
        "'fleet' (every fleet preset), 'serve' (every live-service preset), "
        "'search' (coverage-guided scenario search), or 'plan' (SLO-driven "
        "capacity planning)",
    )
    parser.add_argument("--scale", default="ci", choices=["ci", "standard", "full"],
                        help="experiment scale (default: ci)")
    parser.add_argument("--seed", type=int, default=42, help="random seed (default: 42)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for sweep-style experiments (default: 1)")
    parser.add_argument(
        "--scenario",
        action="append",
        default=[],
        metavar="NAME",
        help="also run a named scenario preset ("
        + ", ".join(scenario_names())
        + "); repeat for several, or 'all' for every preset",
    )
    parser.add_argument("--fleet", type=int, default=None, metavar="N",
                        help="operator-population override for the fleet presets; "
                        "implies the 'fleet' run (see docs/fleet.md)")
    parser.add_argument("--fleet-tier", dest="fleet_tier", default=None,
                        choices=["exact", "hybrid"],
                        help="simulation-tier override for the fleet presets: "
                        "'exact' forces the vectorized Lindley path, 'hybrid' the "
                        "city-scale exact/analytic tier (default: each preset's own "
                        "tier; see docs/fleet.md 'City scale')")
    parser.add_argument("--budget", type=int, default=None, metavar="N",
                        help="evaluation budget: candidate evaluations for the "
                        "'search' keyword (default: 16), capacities probed per "
                        "plan for the 'plan' keyword (default: each preset's "
                        "own); only valid with 'search' or 'plan'")
    parser.add_argument("--promote", action="store_true",
                        help="register the search's top discoveries as "
                        "'adversarial-*' presets (requires the 'search' keyword)")
    parser.add_argument("--policy", default=None, metavar="NAME",
                        help="admission-policy override for the 'serve' keyword: "
                        "static-cap, utilization-threshold or forecast-aware "
                        "(default: each preset's own policy)")
    parser.add_argument("--until", type=float, default=None, metavar="SECONDS",
                        help="virtual-time admission horizon for the 'serve' "
                        "keyword: arrivals after this instant never enter the "
                        "service (default: accept every arrival)")
    parser.add_argument("--slo-p99", dest="slo_p99", type=float, default=None,
                        metavar="FRACTION",
                        help="p99-recovery SLO override for the 'plan' keyword: "
                        "99%% of admitted sessions must recover at least this "
                        "fraction (default: each preset's own gate)")
    parser.add_argument("--slo-drop", dest="slo_drop", type=float, default=None,
                        metavar="FRACTION",
                        help="drop-rate SLO override for the 'plan' keyword: the "
                        "chosen capacity may drop at most this fraction of "
                        "sessions (default: each preset's own gate)")
    parser.add_argument("--format", dest="fmt", default="text", choices=["text", "json"],
                        help="report format (default: text)")
    parser.add_argument("--output", default=None, help="also write the report to this file")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="persistent result store for --scenario sweeps: stored "
                        "results are reused, computed ones written back")
    parser.add_argument("--resume", action="store_true",
                        help="require --store to exist and be non-empty (refuses to "
                        "silently recompute a whole sweep from a mistyped path)")
    return parser


def _open_store(path: str | None, resume: bool) -> ResultStore | None:
    """Materialise the ``--store``/``--resume`` flags (shared CLI semantics)."""
    if path is None:
        if resume:
            raise ConfigurationError("--resume requires --store PATH (nothing to resume from)")
        return None
    store = ResultStore(path)
    if resume and len(store) == 0:
        raise ConfigurationError(
            f"--resume: store at {path!r} has no entries for engine epoch "
            f"{store.epoch}; drop --resume for a first run (or check the path)"
        )
    return store


def _given(options: dict) -> dict:
    """The options the command line set (``None`` means not given)."""
    return {key: value for key, value in options.items() if value is not None}


def _plan_store_partition(plans) -> tuple[int, int]:
    """This-run store hits/misses attributable to the ``plan`` keyword.

    A plan loaded whole from its record is one hit and zero probes; a
    computed plan contributes its probes' partition plus the one miss of
    the failed plan-record lookup.
    """
    hits = misses = 0
    for report in plans or ():
        if report.from_store:
            hits += 1
        else:
            hits += report.store_hits
            misses += report.store_misses + 1
    return hits, misses


def run_experiments(
    names: list[str],
    scale: str,
    seed: int,
    jobs: int = 1,
    fmt: str = "text",
    scenarios: list[str] | None = None,
    store: str | None = None,
    resume: bool = False,
    fleet: int | None = None,
    fleet_tier: str | None = None,
    budget: int | None = None,
    promote: bool = False,
    policy: str | None = None,
    until: float | None = None,
    slo_p99: float | None = None,
    slo_drop: float | None = None,
) -> str:
    """Run the selected experiments/scenarios/fleets/services and return the report.

    This is the library entry point behind :func:`main`; configuration
    misuse (unknown names, flags without their keyword) raises
    :class:`~repro.errors.ConfigurationError` rather than exiting the
    process, so programmatic callers can handle it.
    """
    names = list(names)
    fleet_requested = fleet is not None or "fleet" in names
    search_requested = "search" in names
    serve_requested = "serve" in names
    plan_requested = "plan" in names
    names = [name for name in names if name not in ("fleet", "search", "serve", "plan")]
    if any(name == "all" for name in names):
        names = sorted(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        raise ConfigurationError(f"unknown experiment(s): {', '.join(unknown)}")
    if fleet_tier is not None and not fleet_requested:
        raise ConfigurationError(
            "--fleet-tier only applies to fleet runs: add the 'fleet' keyword or --fleet N"
        )
    if budget is not None and not (search_requested or plan_requested):
        raise ConfigurationError("--budget only applies to the 'search' and 'plan' keywords")
    if promote and not search_requested:
        raise ConfigurationError("--promote only applies to the 'search' keyword")
    if policy is not None and not serve_requested:
        raise ConfigurationError("--policy only applies to the 'serve' keyword")
    if until is not None and not serve_requested:
        raise ConfigurationError("--until only applies to the 'serve' keyword")
    if slo_p99 is not None and not plan_requested:
        raise ConfigurationError("--slo-p99 only applies to the 'plan' keyword")
    if slo_drop is not None and not plan_requested:
        raise ConfigurationError("--slo-drop only applies to the 'plan' keyword")
    scenarios = list(scenarios or [])
    if (
        not names
        and not scenarios
        and not fleet_requested
        and not search_requested
        and not serve_requested
        and not plan_requested
    ):
        raise ConfigurationError(
            "nothing to run: pass experiment names, 'fleet', 'serve', 'search', "
            "'plan' and/or --scenario"
        )
    result_store = _open_store(store, resume)

    results = {name: EXPERIMENTS[name](scale=scale, seed=seed, jobs=jobs) for name in names}
    # One executor serves every sweep-shaped run (scenario presets, fleet
    # presets, service presets, search probes), so they share one result
    # memo.
    executor = SweepExecutor(jobs=jobs, store=result_store)
    search_result = None
    if search_requested:
        from ..scenarios.search import ScenarioSearch, SearchConfig  # deferred: keeps import light

        config = SearchConfig(budget=16 if budget is None else budget, seed=seed)
        search_result = ScenarioSearch(config=config, executor=executor).run()
        if promote:
            search_result.promote()
    if any(name == "all" for name in scenarios):
        # Expanded after a possible --promote, so 'all' includes presets the
        # search registered moments ago.
        scenarios = scenario_names()
    sweep = None
    if scenarios:
        specs = [get_scenario(name, scale=scale, seed=seed) for name in scenarios]
        sweep = executor.run(specs)
    fleet_sweep = None
    fleet_presets: list[str] = []
    if fleet_requested:
        from ..fleet import fleet_names, get_fleet  # deferred: keeps import light

        fleet_presets = fleet_names()
        fleet_overrides = _given({"tier": fleet_tier, "operators": fleet})
        fleet_specs = [
            get_fleet(name, scale=scale, seed=seed, **fleet_overrides) for name in fleet_presets
        ]
        fleet_sweep = executor.run(fleet_specs)
    service_sweep = None
    service_presets: list[str] = []
    if serve_requested:
        from ..service import get_service, service_names  # deferred: keeps import light

        service_presets = service_names()
        service_specs = [
            get_service(name, scale=scale, seed=seed, **_given({"policy": policy}))
            for name in service_presets
        ]
        if until is not None:
            service_specs = [spec.with_(until_s=until) for spec in service_specs]
        service_sweep = executor.run(service_specs)
    plans = None
    plan_presets: list[str] = []
    if plan_requested:
        from ..fleet import CapacityPlanner, get_plan, plan_names  # deferred: keeps import light

        plan_overrides = _given({"slo_p99": slo_p99, "slo_drop": slo_drop, "budget": budget})
        plan_presets = plan_names()
        planner = CapacityPlanner(executor=executor)
        plans = [
            planner.run(get_plan(name, scale=scale, seed=seed, **plan_overrides))
            for name in plan_presets
        ]

    if fmt == "json":
        document: dict = {
            "report_version": REPORT_VERSION,
            "scale": scale,
            "seed": seed,
            "experiments": {name: result.to_dict() for name, result in results.items()},
        }
        if search_result is not None:
            document["search"] = search_result.to_dict()
        if sweep is not None:
            document["scenarios"] = sweep.to_records()
        if fleet_sweep is not None:
            document["fleets"] = fleet_sweep.to_records()
            document["fleet_tier"] = {
                "override": fleet_tier,
                "tiers": {row.spec.name: row.tier for row in fleet_sweep},
                "hot_aps": sum(row.hot_aps for row in fleet_sweep),
                "cold_aps": sum(row.cold_aps for row in fleet_sweep),
                "exact_sessions": sum(row.exact_sessions for row in fleet_sweep),
                "analytic_sessions": sum(row.analytic_sessions for row in fleet_sweep),
            }
        if service_sweep is not None:
            document["services"] = service_sweep.to_records()
        if plans is not None:
            document["plans"] = [report.to_dict() for report in plans]
        sweeps = (sweep, fleet_sweep, service_sweep)
        if result_store is not None and (any(s is not None for s in sweeps) or plans is not None):
            stats = result_store.stats()
            hits = sum(s.store_hits for s in sweeps if s is not None)
            misses = sum(s.store_misses for s in sweeps if s is not None)
            plan_hits, plan_misses = _plan_store_partition(plans)
            hits += plan_hits
            misses += plan_misses
            document["store"] = {
                "path": str(result_store.root),
                "epoch": result_store.epoch,
                "hits": hits,
                "misses": misses,
                "entries": stats.entries,
                "total_bytes": stats.total_bytes,
            }
        return json.dumps(document, indent=2) + "\n"

    sections = []
    for result in results.values():
        sections.append(result.to_text())
        sections.append("")
    if search_result is not None:
        sections.append("# scenario search")
        sections.append(search_result.to_text())
        sections.append("")
    if sweep is not None:
        catalog = scenario_catalog()
        sections.append("# scenario presets")
        for name, row in zip(scenarios, sweep):
            description = catalog.get(row.spec.name, "")
            if description:
                sections.append(f"## {name} — {description}")
        sections.append(sweep.to_table())
        if result_store is not None:
            stats = result_store.stats()
            sections.append(
                f"store: {sweep.store_hits} hits / {sweep.store_misses} misses "
                f"({100.0 * sweep.hit_fraction:.0f}% reused), "
                f"{stats.entries} entries at {result_store.root} (epoch {result_store.epoch})"
            )
        sections.append("")
    if fleet_sweep is not None:
        from ..fleet import fleet_catalog

        catalog = fleet_catalog()
        sections.append("# fleet presets")
        for name, row in zip(fleet_presets, fleet_sweep):
            description = catalog.get(row.spec.name, "")
            if description:
                sections.append(f"## {name} — {description}")
            sections.append(row.to_text())
        hybrid_rows = [row for row in fleet_sweep if row.tier != "exact"]
        tier_line = (
            f"tier: {len(hybrid_rows)}/{len(fleet_sweep)} presets hybrid "
            f"({sum(r.exact_sessions for r in fleet_sweep)} exact + "
            f"{sum(r.analytic_sessions for r in fleet_sweep)} analytic sessions)"
        )
        if fleet_tier is not None:
            tier_line += f" | --fleet-tier {fleet_tier} override"
        sections.append(tier_line)
        if result_store is not None:
            stats = result_store.stats()
            sections.append(
                f"store: {fleet_sweep.store_hits} hits / {fleet_sweep.store_misses} misses "
                f"({100.0 * fleet_sweep.hit_fraction:.0f}% reused), "
                f"{stats.entries} entries at {result_store.root} (epoch {result_store.epoch})"
            )
        sections.append("")
    if service_sweep is not None:
        from ..service import service_catalog  # deferred: keeps import light

        catalog = service_catalog()
        sections.append("# service presets")
        for name, row in zip(service_presets, service_sweep):
            description = catalog.get(name, "")
            if description:
                sections.append(f"## {name} — {description}")
            sections.append(row.to_text())
        overrides = []
        if policy is not None:
            overrides.append(f"--policy {policy}")
        if until is not None:
            overrides.append(f"--until {until:g}")
        if overrides:
            sections.append(f"overrides: {' '.join(overrides)}")
        if result_store is not None:
            stats = result_store.stats()
            sections.append(
                f"store: {service_sweep.store_hits} hits / {service_sweep.store_misses} misses "
                f"({100.0 * service_sweep.hit_fraction:.0f}% reused), "
                f"{stats.entries} entries at {result_store.root} (epoch {result_store.epoch})"
            )
        sections.append("")
    if plans is not None:
        from ..fleet import plan_catalog  # deferred: keeps import light

        catalog = plan_catalog()
        sections.append("# capacity plans")
        for name, report in zip(plan_presets, plans):
            description = catalog.get(name, "")
            if description:
                sections.append(f"## {name} — {description}")
            sections.append(report.to_text())
        overrides = []
        if slo_p99 is not None:
            overrides.append(f"--slo-p99 {slo_p99:g}")
        if slo_drop is not None:
            overrides.append(f"--slo-drop {slo_drop:g}")
        if budget is not None:
            overrides.append(f"--budget {budget}")
        if overrides:
            sections.append(f"overrides: {' '.join(overrides)}")
        if result_store is not None:
            stats = result_store.stats()
            plan_hits, plan_misses = _plan_store_partition(plans)
            lookups = plan_hits + plan_misses
            reused = 100.0 * plan_hits / lookups if lookups else 0.0
            sections.append(
                f"store: {plan_hits} hits / {plan_misses} misses "
                f"({reused:.0f}% reused), "
                f"{stats.entries} entries at {result_store.root} (epoch {result_store.epoch})"
            )
        sections.append("")
    return "\n".join(sections).rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    """Entry point used by the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = run_experiments(
            args.experiments,
            scale=args.scale,
            seed=args.seed,
            jobs=args.jobs,
            fmt=args.fmt,
            scenarios=args.scenario,
            store=args.store,
            resume=args.resume,
            fleet=args.fleet,
            fleet_tier=args.fleet_tier,
            budget=args.budget,
            promote=args.promote,
            policy=args.policy,
            until=args.until,
            slo_p99=args.slo_p99,
            slo_drop=args.slo_drop,
        )
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from exc
    sys.stdout.write(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    raise SystemExit(main())
