"""Budgeted coverage-guided search for worst-case recovery scenarios.

:class:`ScenarioSearch` drives the combinator grammar of
:mod:`repro.scenarios.grammar` against the session engine to find where the
recovery worst cases live in the channel parameter space:

1. **Explore**: evaluate a slice of the grammar's enumerated frontier
   (round-robin across channel kinds, deterministic order).
2. **Refine**: repeatedly perturb the current top-``k`` candidates through
   :meth:`~repro.scenarios.grammar.ScenarioGrammar.neighbors` and evaluate
   the unseen neighbors, until the probe budget is spent.

Candidates are scored by :func:`adversarial_score` — a worst-case recovery
objective combining the p99 recovery shortfall (the 1st percentile of
per-repetition recovery fractions, SLO semantics as in
:class:`repro.fleet.engine.FleetResult`) with the mean late/lost fraction;
higher scores mean worse service.

Every probe runs through a :class:`~repro.scenarios.sweep.SweepExecutor`,
so evaluation parallelises over worker processes and — when a
:class:`~repro.scenarios.store.ResultStore` is attached — memoizes through
the content-addressed store: a repeated search recomputes **nothing** (the
smoke gate in ``scripts/search_smoke.py`` asserts a warm second pass is
100 % store hits).  All random draws happen in the coordinating thread in a
fixed order seeded from :attr:`SearchConfig.seed`, and candidate evaluation
is a pure function of the spec, so a search with a fixed seed and budget is
bit-deterministic across ``--jobs 1`` vs ``--jobs N``.

Discovered worst cases graduate to named presets through
:meth:`SearchResult.promote` — they appear as ``adversarial-*`` entries in
the scenario registry, runnable like any built-in preset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from .engine import SessionResult
from .grammar import ScenarioGrammar
from .registry import register_scenario
from .spec import ScenarioSpec
from .store import ResultStore
from .sweep import SweepExecutor


# -------------------------------------------------------------------- scoring
def p99_recovery(result: SessionResult) -> float:
    """The 1st percentile of per-repetition recovery fractions.

    Mirrors the fleet layer's SLO semantics
    (:attr:`repro.fleet.engine.FleetResult.p99_recovery`): 99 % of
    repetitions recover at least this fraction of their missing slots.
    """
    return float(np.percentile(np.asarray(result.recovery_fraction, dtype=float), 1.0))


def adversarial_score(result: SessionResult) -> float:
    """Worst-case recovery objective (higher = worse service).

    ``(1 - p99_recovery) + mean_late_fraction`` — the p99 recovery
    shortfall plus the mean drop/late fraction.  Both terms live in
    ``[0, 1]``, so the score is bounded by 2 and a healthy channel scores
    near 0.
    """
    return (1.0 - p99_recovery(result)) + float(result.mean_late_fraction)


# --------------------------------------------------------------------- config
@dataclass(frozen=True)
class SearchConfig:
    """Knobs of one budgeted scenario search.

    Attributes
    ----------
    budget:
        Total number of candidate evaluations (enumerated + neighborhood).
    seed:
        Seed of the coordinating RNG; with a fixed budget it pins the whole
        search trajectory (candidate generation consumes randomness only in
        the coordinating thread, in a fixed order).
    top_k:
        Number of best-so-far candidates refined each round (and promoted
        by default).
    neighbors_per_round:
        Unseen neighborhood candidates evaluated per refinement round.
    explore_fraction:
        Share of the budget spent on the enumerated frontier before
        neighborhood refinement starts.
    """

    budget: int = 16
    seed: int = 0
    top_k: int = 2
    neighbors_per_round: int = 8
    explore_fraction: float = 0.5

    def __post_init__(self) -> None:
        """Validate every knob, raising :class:`ConfigurationError` on misuse."""
        if int(self.budget) < 1:
            raise ConfigurationError("search budget must be >= 1")
        if int(self.top_k) < 1:
            raise ConfigurationError("top_k must be >= 1")
        if int(self.neighbors_per_round) < 1:
            raise ConfigurationError("neighbors_per_round must be >= 1")
        if not 0.0 < float(self.explore_fraction) <= 1.0:
            raise ConfigurationError("explore_fraction must be in (0, 1]")


# -------------------------------------------------------------------- results
@dataclass(frozen=True)
class SearchProbe:
    """One evaluated candidate of a scenario search.

    Attributes
    ----------
    spec:
        The candidate spec (grammar-generated; name carries the kind).
    result:
        The session result the spec evaluated to.
    score:
        Its :func:`adversarial_score`.
    round:
        0 for the enumerated frontier, ``n >= 1`` for refinement round n.
    """

    spec: ScenarioSpec
    result: SessionResult
    score: float
    round: int

    def to_dict(self) -> dict:
        """JSON-safe summary row of this probe."""
        return {
            "name": self.spec.name,
            "kind": self.spec.channel.kind,
            "channel": self.spec.channel.describe(),
            "spec_hash": self.spec.spec_hash(),
            "round": self.round,
            "score": self.score,
            "p99_recovery": p99_recovery(self.result),
            "mean_late_fraction": float(self.result.mean_late_fraction),
            "mean_recovery_fraction": float(self.result.mean_recovery_fraction),
        }


@dataclass
class SearchResult:
    """Outcome of one budgeted search: every probe plus the store partition.

    ``store_hits`` / ``store_misses`` aggregate the executor's partition
    across rounds; a warm rerun of the same search against the same store is
    100 % hits (nothing recomputed).  ``promoted`` records the preset names
    registered by :meth:`promote`.
    """

    config: SearchConfig
    probes: list[SearchProbe] = field(default_factory=list)
    rounds: int = 0
    store_hits: int = 0
    store_misses: int = 0
    promoted: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.probes)

    def top(self, k: int | None = None) -> list[SearchProbe]:
        """The ``k`` worst-case probes, score-descending (hash tie-break)."""
        k = self.config.top_k if k is None else int(k)
        ranked = sorted(self.probes, key=lambda p: (-p.score, p.spec.spec_hash()))
        return ranked[:k]

    def promote(self, k: int | None = None, register: bool = True) -> list[ScenarioSpec]:
        """Name the top-``k`` discoveries ``adversarial-*`` and register them.

        Each promoted spec is renamed
        ``adversarial-<channel kind>-<spec hash prefix>`` (the hash prefix
        keeps promoted names collision-free because the registry refuses
        duplicate names) and registered with a provenance description —
        search seed, budget and score — so a promoted preset documents how
        it was found.  ``register=False`` returns the renamed specs without
        touching the registry.
        """
        promoted: list[ScenarioSpec] = []
        for probe in self.top(k):
            spec = probe.spec
            name = f"adversarial-{spec.channel.kind}-{spec.spec_hash()[:6]}"
            renamed = spec.with_(name=name)
            if register:
                register_scenario(
                    renamed,
                    f"search-discovered worst case (score {probe.score:.3f}, "
                    f"seed {self.config.seed}, budget {self.config.budget})",
                    overwrite=True,
                )
                if name not in self.promoted:
                    self.promoted.append(name)
            promoted.append(renamed)
        return promoted

    def to_dict(self) -> dict:
        """JSON-safe rendering of the search (config, top probes, store)."""
        return {
            "budget": self.config.budget,
            "seed": self.config.seed,
            "rounds": self.rounds,
            "evaluated": len(self.probes),
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "promoted": list(self.promoted),
            "top": [probe.to_dict() for probe in self.top()],
            "probes": [probe.to_dict() for probe in self.probes],
        }

    def to_json(self, indent: int | None = 2) -> str:
        """JSON text rendering of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)

    def to_text(self) -> str:
        """Fixed-width text report: top probes, budget and store partition."""
        header = (
            f"{'rank':>4s} {'score':>6s} {'p99rec':>7s} {'late':>6s} "
            f"{'round':>5s}  channel"
        )
        lines = [
            f"scenario search: {len(self.probes)} probes "
            f"(budget {self.config.budget}, seed {self.config.seed}, "
            f"{self.rounds} refinement rounds)",
            header,
            "-" * len(header),
        ]
        for rank, probe in enumerate(self.top(max(self.config.top_k, 5)), start=1):
            channel = probe.spec.channel.describe()
            if len(channel) > 60:
                channel = channel[:57] + "..."
            lines.append(
                f"{rank:>4d} {probe.score:>6.3f} {p99_recovery(probe.result):>7.3f} "
                f"{probe.result.mean_late_fraction:>6.3f} {probe.round:>5d}  {channel}"
            )
        lookups = self.store_hits + self.store_misses
        if lookups:
            lines.append(
                f"store: {self.store_hits} hits / {self.store_misses} misses "
                f"({100.0 * self.store_hits / lookups:.0f}% reused)"
            )
        if self.promoted:
            lines.append("promoted: " + ", ".join(self.promoted))
        return "\n".join(lines)


# --------------------------------------------------------------------- search
class ScenarioSearch:
    """Coverage-guided scenario search over a grammar, with memoized probes.

    Parameters
    ----------
    grammar:
        Candidate source (default: a :class:`ScenarioGrammar` over every
        grammar kind with the default probe-sized base spec).
    config:
        Budget/seed/refinement knobs (default: :class:`SearchConfig`).
    executor:
        The sweep executor probes run through.  Built from ``jobs`` /
        ``store`` when omitted; pass an explicit executor to share engine
        caches with other sweeps.
    jobs / store:
        Convenience constructor arguments for the default executor
        (ignored when ``executor`` is given).
    """

    def __init__(
        self,
        grammar: ScenarioGrammar | None = None,
        config: SearchConfig | None = None,
        executor: SweepExecutor | None = None,
        jobs: int = 1,
        store: ResultStore | None = None,
    ) -> None:
        self.grammar = grammar if grammar is not None else ScenarioGrammar()
        if not isinstance(self.grammar, ScenarioGrammar):
            raise ConfigurationError("grammar must be a ScenarioGrammar")
        self.config = config if config is not None else SearchConfig()
        if executor is None:
            executor = SweepExecutor(jobs=jobs, store=store)
        self.executor = executor

    def _evaluate(
        self, specs: list[ScenarioSpec], round_index: int, out: SearchResult
    ) -> None:
        """Run one batch through the executor and append scored probes."""
        sweep = self.executor.run(specs)
        out.store_hits += sweep.store_hits
        out.store_misses += sweep.store_misses
        for spec, row in zip(specs, sweep):
            out.probes.append(
                SearchProbe(
                    spec=spec,
                    result=row,
                    score=adversarial_score(row),
                    round=round_index,
                )
            )

    def run(self) -> SearchResult:
        """Execute the search to budget exhaustion and return every probe.

        Deterministic by construction: the enumerated frontier has a fixed
        order, neighborhood generation consumes the seeded coordinating RNG
        in a fixed order (independent of worker scheduling), candidates are
        deduplicated by spec hash, and evaluation is a pure function of the
        spec — so fixed ``(seed, budget)`` always yields the same probes in
        the same order, for any job count.
        """
        config = self.config
        rng = np.random.default_rng(config.seed)
        result = SearchResult(config=config)
        seen: set[str] = set()

        frontier_budget = max(1, min(config.budget, round(config.budget * config.explore_fraction)))
        frontier: list[ScenarioSpec] = []
        for spec in self.grammar.enumerate_specs():
            key = spec.spec_hash()
            if key in seen:
                continue
            seen.add(key)
            frontier.append(spec)
            if len(frontier) >= frontier_budget:
                break
        self._evaluate(frontier, 0, result)

        remaining = config.budget - len(result.probes)
        max_attempts = 50 * config.neighbors_per_round
        while remaining > 0:
            result.rounds += 1
            leaders = result.top(config.top_k)
            batch: list[ScenarioSpec] = []
            attempts = 0
            want = min(remaining, config.neighbors_per_round)
            while len(batch) < want and attempts < max_attempts:
                attempts += 1
                parent = leaders[len(batch) % len(leaders)].spec
                candidate = self.grammar.neighbors(parent, rng, 1)[0]
                key = candidate.spec_hash()
                if key in seen:
                    continue
                seen.add(key)
                batch.append(candidate)
            while len(batch) < want and attempts < 2 * max_attempts:
                # Neighborhoods around the leaders are exhausted (every
                # perturbation already probed): fall back to fresh draws so
                # the budget is still spent exploring.
                attempts += 1
                candidate = self.grammar.random_spec(rng)
                key = candidate.spec_hash()
                if key in seen:
                    continue
                seen.add(key)
                batch.append(candidate)
            if not batch:
                break
            self._evaluate(batch, result.rounds, result)
            remaining = config.budget - len(result.probes)
        return result


def run_search(
    budget: int = 16,
    seed: int = 0,
    top_k: int = 2,
    jobs: int = 1,
    store: ResultStore | None = None,
    grammar: ScenarioGrammar | None = None,
) -> SearchResult:
    """One-call convenience wrapper: configure, run and return the search.

    This is what the runner's ``search`` keyword and the CI smoke script
    call; see :class:`ScenarioSearch` for the determinism and memoization
    contract.
    """
    config = SearchConfig(budget=budget, seed=seed, top_k=top_k)
    search = ScenarioSearch(grammar=grammar, config=config, jobs=jobs, store=store)
    return search.run()
