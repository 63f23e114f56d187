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
regenerated with a single command.  ``--jobs N`` (``N >= 1``) fans
sweep-style runs out over worker processes; results are identical to the
serial run.

Four preset sections share one dispatch: ``--scenario NAME`` runs named
presets from :mod:`repro.scenarios.registry` (repeat the flag for several;
``all`` runs every preset), and the keywords ``fleet``
(:mod:`repro.fleet.registry`, multi-operator workloads; ``--fleet N``
overrides every preset's operator count and implies the keyword,
``--fleet-tier exact|hybrid`` its simulation tier), ``serve``
(:mod:`repro.service.registry`, live admission on the virtual clock;
``--policy NAME`` and ``--until SECONDS``) and ``plan``
(:mod:`repro.fleet.plan`, SLO-driven capacity plans; ``--slo-p99``,
``--slo-drop`` and ``--budget N``) run every preset of their registry with
those overrides (see ``docs/fleet.md``).  The ``search`` keyword runs the
budgeted coverage-guided scenario search (:mod:`repro.scenarios.search`):
``--budget N`` candidate evaluations, and ``--promote`` registers the top
discoveries as ``adversarial-*`` presets for the rest of the invocation
(``--scenario all`` then runs them too).

``--store PATH`` attaches a persistent :class:`repro.scenarios.ResultStore`
to every preset and search run: stored results are loaded instead of
recomputed, everything newly computed is written back, and each text
section ends with its ``store:`` hit/miss line (the JSON report sums them),
so an interrupted or extended run only computes what is missing.  The text
is rendered after every keyword has run, so all ``store:`` lines state the
same end-of-run entry count.  ``--resume`` additionally *requires* the store
to exist and be non-empty, guarding against a mistyped path silently
recomputing from scratch.  (The figure/table experiments run their own
pipelines and are not stored.)

A keyword-scoped flag without its keyword is misuse: the library entry
point :func:`run_experiments` raises
:class:`~repro.errors.ConfigurationError` (``"<flag> only applies to the
<keywords> keyword(s)"``), which :func:`main` renders as a clean CLI error.
JSON reports carry a top-level ``"report_version"`` field
(:data:`REPORT_VERSION`); consumers should pin it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import Callable, NamedTuple, Sequence

from ..errors import ConfigurationError
from ..scenarios import ResultStore, SweepExecutor, scenario_names
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


#: Keywords that select a run beyond the figure/table experiments.
_KEYWORDS = ("fleet", "search", "serve", "plan")

#: Keyword-scoped option -> (CLI flag, keywords it needs, how its value prints).
_SCOPED_FLAGS = {
    "fleet_tier": ("--fleet-tier", ("fleet",), "{}"),
    "budget": ("--budget", ("search", "plan"), "{}"),
    "promote": ("--promote", ("search",), "{}"),
    "policy": ("--policy", ("serve",), "{}"),
    "until": ("--until", ("serve",), "{:g}"),
    "slo_p99": ("--slo-p99", ("plan",), "{:g}"),
    "slo_drop": ("--slo-drop", ("plan",), "{:g}"),
}

#: Preset section, in report order -> (text title, JSON key, registry module
#: and attribute, the options that override its specs).
_SECTIONS = {
    "scenario": ("# scenario presets", "scenarios", "..scenarios", "SCENARIOS", ()),
    "fleet": ("# fleet presets", "fleets", "..fleet", "FLEETS", ("fleet_tier", "fleet")),
    "serve": ("# service presets", "services", "..service", "SERVICES", ("policy", "until")),
    "plan": ("# capacity plans", "plans", "..fleet", "PLANS", ("slo_p99", "slo_drop", "budget")),
}

#: Option -> the spec field it overrides, where the two names differ.
_SPEC_FIELDS = {"fleet_tier": "tier", "fleet": "operators", "until": "until_s"}


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
                        help="worker processes (>= 1) for sweep-style runs (default: 1)")
    parser.add_argument(
        "--scenario",
        dest="scenarios",
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
                        help="persistent result store for every preset and search "
                        "run: stored results are reused, computed ones written back")
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


def _plan_store_partition(plans) -> tuple[int, int]:
    """This-run store hits/misses attributable to the ``plan`` keyword.

    A plan loaded whole from its record is one hit and zero probes; a
    computed plan contributes its probes' partition plus the one miss of
    the failed plan-record lookup.
    """
    hits = misses = 0
    for report in plans:
        if report.from_store:
            hits += 1
        else:
            hits += report.store_hits
            misses += report.store_misses + 1
    return hits, misses


def _store_line(hits: int, misses: int, stats) -> str:
    """The text report's ``store:`` line for one section's partition."""
    lookups = hits + misses
    reused = 100.0 * hits / lookups if lookups else 0.0
    return (
        f"store: {hits} hits / {misses} misses ({reused:.0f}% reused), "
        f"{stats.entries} entries at {stats.root} (epoch {stats.epoch})"
    )


class _Section(NamedTuple):
    """One preset section of the report, built after its keyword ran."""

    title: str  # text heading
    key: str  # JSON key of the row records
    names: list[str]  # the preset names as requested
    rows: Sequence  # one result per spec (a SweepResult, or capacity plans)
    catalog: dict[str, str]  # preset name -> description
    notes: list[str]  # text lines after the rows
    partition: tuple[int, int]  # this section's store (hits, misses)
    extra: dict  # further JSON sections that follow the rows


def _flag(option: str, value) -> str:
    """A scoped option as the command line spells it (``--until 60``)."""
    flag, _, value_format = _SCOPED_FLAGS[option]
    return f"{flag} {value_format.format(value)}"


def _tier_summary(rows, override: str | None) -> tuple[list[str], dict]:
    """The fleet section's ``tier:`` text line and JSON ``fleet_tier`` block."""
    exact = sum(row.exact_sessions for row in rows)
    analytic = sum(row.analytic_sessions for row in rows)
    line = (
        f"tier: {sum(row.tier != 'exact' for row in rows)}/{len(rows)} presets hybrid "
        f"({exact} exact + {analytic} analytic sessions)"
    )
    if override is not None:
        line += f" | {_flag('fleet_tier', override)} override"
    block = {
        "override": override,
        "tiers": {row.spec.name: row.tier for row in rows},
        "hot_aps": sum(row.hot_aps for row in rows),
        "cold_aps": sum(row.cold_aps for row in rows),
        "exact_sessions": exact,
        "analytic_sessions": analytic,
    }
    return [line], {"fleet_tier": block}


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
    options = {
        "fleet": fleet,
        "fleet_tier": fleet_tier,
        "budget": budget,
        "promote": promote or None,
        "policy": policy,
        "until": until,
        "slo_p99": slo_p99,
        "slo_drop": slo_drop,
    }
    keywords = {name for name in names if name in _KEYWORDS}
    if fleet is not None:
        keywords.add("fleet")
    names = [name for name in names if name not in _KEYWORDS]
    if "all" in names:
        names = sorted(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        raise ConfigurationError(f"unknown experiment(s): {', '.join(unknown)}")
    for option, (flag, needs, _) in _SCOPED_FLAGS.items():
        if options[option] is not None and not keywords.intersection(needs):
            quoted = " and ".join(f"'{keyword}'" for keyword in needs)
            plural = "s" if len(needs) > 1 else ""
            raise ConfigurationError(f"{flag} only applies to the {quoted} keyword{plural}")
    scenarios = list(scenarios or [])
    if not names and not scenarios and not keywords:
        raise ConfigurationError(
            "nothing to run: pass experiment names, 'fleet', 'serve', 'search', "
            "'plan' and/or --scenario"
        )
    result_store = _open_store(store, resume)
    # One executor serves every sweep-shaped run (scenario presets, fleet
    # presets, service presets, search and plan probes), so they share one
    # result memo.
    executor = SweepExecutor(jobs=jobs, store=result_store)

    results = {name: EXPERIMENTS[name](scale=scale, seed=seed, jobs=jobs) for name in names}
    search_result = None
    if "search" in keywords:
        from ..scenarios.search import ScenarioSearch, SearchConfig  # deferred: keeps import light

        config = SearchConfig(budget=16 if budget is None else budget, seed=seed)
        search_result = ScenarioSearch(config=config, executor=executor).run()
        if promote:
            search_result.promote()
    if "all" in scenarios:
        # Expanded after a possible --promote, so 'all' includes presets the
        # search registered moments ago.
        scenarios = scenario_names()
    if scenarios:
        keywords.add("scenario")

    sections: list[_Section] = []
    for keyword, (title, key, module, attribute, overrides) in _SECTIONS.items():
        if keyword not in keywords:
            continue
        registry = getattr(importlib.import_module(module, __package__), attribute)
        presets = scenarios if keyword == "scenario" else registry.names()
        given = [option for option in overrides if options[option] is not None]
        fields = {_SPEC_FIELDS.get(option, option): options[option] for option in given}
        specs = [registry.get(name, scale=scale, seed=seed, **fields) for name in presets]
        if keyword == "plan":
            from ..fleet import CapacityPlanner  # deferred: keeps import light

            planner = CapacityPlanner(executor=executor)
            rows: Sequence = [planner.run(spec) for spec in specs]
            partition = _plan_store_partition(rows)
        else:
            rows = executor.run(specs)
            partition = (rows.store_hits, rows.store_misses)
        if keyword == "fleet":
            notes, extra = _tier_summary(rows, fleet_tier)
        else:
            flags = " ".join(_flag(option, options[option]) for option in given)
            notes, extra = ([f"overrides: {flags}"] if given else []), {}
        sections.append(_Section(title, key, presets, rows, registry.catalog(), notes, partition, extra))
    stats = result_store.stats() if result_store is not None and sections else None

    if fmt == "json":
        document: dict = {
            "report_version": REPORT_VERSION,
            "scale": scale,
            "seed": seed,
            "experiments": {name: result.to_dict() for name, result in results.items()},
        }
        if search_result is not None:
            document["search"] = search_result.to_dict()
        for section in sections:
            document[section.key] = [row.to_dict() for row in section.rows]
            document.update(section.extra)
        if stats is not None:
            document["store"] = {
                "path": stats.root,
                "epoch": stats.epoch,
                "hits": sum(section.partition[0] for section in sections),
                "misses": sum(section.partition[1] for section in sections),
                "entries": stats.entries,
                "total_bytes": stats.total_bytes,
            }
        return json.dumps(document, indent=2) + "\n"

    lines = []
    for result in results.values():
        lines += [result.to_text(), ""]
    if search_result is not None:
        lines += ["# scenario search", search_result.to_text(), ""]
    for section in sections:
        lines.append(section.title)
        for name, row in zip(section.names, section.rows):
            description = section.catalog.get(row.spec.name, "")
            if description:
                lines.append(f"## {name} — {description}")
            if section.key != "scenarios":  # one to_text() per row, or one table
                lines.append(row.to_text())
        if section.key == "scenarios":
            lines.append(section.rows.to_table())
        lines += section.notes
        if stats is not None:
            lines.append(_store_line(*section.partition, stats))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    """Entry point used by the console script."""
    options = vars(build_parser().parse_args(argv))
    output = options.pop("output")
    try:
        report = run_experiments(options.pop("experiments"), **options)
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from exc
    sys.stdout.write(report)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(report)
    return 0


if __name__ == "__main__":  # pragma: no cover - manual invocation
    raise SystemExit(main())
