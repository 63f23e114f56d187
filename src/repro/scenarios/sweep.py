"""Parallel sweep execution over lists/grids of scenario specs.

A sweep is an ordered list of :class:`ScenarioSpec` values — or
:class:`~repro.fleet.FleetSpec` values, which route through a
:class:`~repro.fleet.FleetEngine` sharing the executor's session engine and
store (capacity-planning sweeps resume and parallelise like any other; the
engine runs both the exact and the hybrid fleet tier), or
:class:`~repro.service.ServiceSpec` values, which route through a
:class:`~repro.service.ServiceEngine` the same way (live-service runs are
spec-seeded too, so they stay bit-identical across worker counts).  Any
other value is refused with a ``ConfigurationError`` before the sweep reads
the store.  The
:class:`SweepExecutor`'s unit of work is a **kernel group**: the pending
scenario specs sharing a :func:`~repro.scenarios.engine.kernel_group_key`
(e.g. every cell of the Fig. 8 grid, which differ only in channel) run as one
stacked kernel pass through :meth:`SessionEngine.run_many`; each fleet or
service spec is a unit of its own.  With ``jobs > 1`` and more than one
unit, the executor fans the units out over a process pool for true
multi-core grids, placing every row back at its input index in the
returned :class:`SweepResult`.
Because every random draw is seeded from the spec itself (see
:func:`repro.scenarios.engine.repetition_seed`), the result is bit-identical
whether the sweep runs with 1 worker or N.

:func:`scenario_grid` expands axis definitions into the cross-product of
specs — the declarative replacement for the nested ``for`` loops the
experiment modules used to hand-write.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .._validation import ensure_int
from ..errors import ConfigurationError
from .engine import SessionEngine, SessionResult, for_spec, kernel_group_key
from .spec import ScenarioSpec
from .store import ResultStore


# ----------------------------------------------------------------------- grid
def scenario_grid(base: ScenarioSpec, axes: dict[str, Sequence]) -> list[ScenarioSpec]:
    """Cross-product of specs from a base spec and axis definitions.

    Axis keys address spec fields by path:

    * ``"channel.<param>"`` merges a channel parameter
      (e.g. ``"channel.n_robots": (5, 15, 25)``);
    * ``"foreco.<field>"`` replaces a FoReCo field
      (e.g. ``"foreco.record": (2, 5, 10)``);
    * any other key replaces a top-level :class:`ScenarioSpec` field
      (e.g. ``"seed": range(10)``).

    Axes expand in insertion order with the *last* axis varying fastest, so
    the output order is deterministic.
    """
    if not axes:
        return [base]
    keys = list(axes)
    value_lists = [list(axes[key]) for key in keys]
    if any(not values for values in value_lists):
        raise ConfigurationError("every sweep axis needs at least one value")
    specs = []
    for combo in itertools.product(*value_lists):
        spec = base
        for key, value in zip(keys, combo):
            spec = _apply_axis(spec, key, value)
        specs.append(spec)
    return specs


def _apply_axis(spec: ScenarioSpec, key: str, value) -> ScenarioSpec:
    if key.startswith("channel."):
        return spec.with_channel(**{key[len("channel."):]: value})
    if key.startswith("foreco."):
        return spec.with_foreco(**{key[len("foreco."):]: value})
    return spec.with_(**{key: value})


# -------------------------------------------------------------------- results
@dataclass
class SweepResult:
    """Ordered table of per-scenario session results.

    When the sweep ran against a persistent
    :class:`~repro.scenarios.store.ResultStore`, ``store_hits`` /
    ``store_misses`` record how the rows partitioned: hits were loaded from
    disk, misses are every other row (computed and written back, already in
    memory, or a repeat of another row's spec).  Both stay 0 for store-less
    sweeps and for derived tables (:meth:`filter`).
    """

    rows: list[SessionResult] = field(default_factory=list)
    store_hits: int = 0
    store_misses: int = 0

    @property
    def hit_fraction(self) -> float:
        """Store hits over specs (0.0 when the sweep had no store)."""
        lookups = self.store_hits + self.store_misses
        return self.store_hits / lookups if lookups else 0.0

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, index: int) -> SessionResult:
        return self.rows[index]

    def filter(self, predicate: Callable[[SessionResult], bool]) -> "SweepResult":
        """A sub-sweep of the rows matching ``predicate`` (order kept)."""
        return SweepResult([row for row in self.rows if predicate(row)])

    def metric(self, name: str) -> list[float]:
        """One aggregate metric across rows (attribute name on the rows)."""
        return [getattr(row, name) for row in self.rows]

    def worst(self, metric: str = "mean_rmse_foreco_mm") -> SessionResult:
        """The row with the largest value of ``metric``."""
        if not self.rows:
            raise ConfigurationError("empty sweep has no worst row")
        return max(self.rows, key=lambda row: getattr(row, metric))

    def best(self, metric: str = "mean_rmse_foreco_mm") -> SessionResult:
        """The row with the smallest value of ``metric``."""
        if not self.rows:
            raise ConfigurationError("empty sweep has no best row")
        return min(self.rows, key=lambda row: getattr(row, metric))

    def to_records(self) -> list[dict]:
        """JSON-safe record list (one dict per row)."""
        return [row.to_dict() for row in self.rows]

    def to_json(self, indent: int | None = 2) -> str:
        """JSON rendering of the sweep table."""
        return json.dumps(self.to_records(), indent=indent)

    def to_table(self) -> str:
        """Fixed-width text table (one line per scenario row)."""
        header = (
            f"{'scenario':<18s} {'channel':<44s} {'reps':>4s} "
            f"{'no-forecast':>12s} {'FoReCo':>8s} {'gain':>6s} {'late':>6s}"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            channel = row.spec.channel.describe()
            if len(channel) > 44:
                channel = channel[:41] + "..."
            lines.append(
                f"{row.spec.name:<18s} {channel:<44s} {row.repetitions:>4d} "
                f"{row.mean_rmse_no_forecast_mm:>10.2f}mm {row.mean_rmse_foreco_mm:>6.2f}mm "
                f"x{row.improvement_factor:>5.1f} {row.mean_late_fraction:>6.2f}"
            )
        return "\n".join(lines)

    def to_text(self) -> str:
        """Alias of :meth:`to_table` (uniform with experiment results)."""
        return self.to_table()


# ------------------------------------------------------------------- executor
#: Per-process executor of a pool worker.  Created lazily in
#: each worker on its first unit, so one worker amortises dataset and
#: forecaster training across every unit it is handed.
_WORKER_EXECUTOR: "SweepExecutor | None" = None


def _run_unit_in_worker(task: tuple[list, tuple | None]) -> list:
    """Run one work unit in a pool worker; ``task`` is ``(specs, store_config)``.

    A unit is one kernel group of scenario specs (run as one stacked pass
    through :meth:`SessionEngine.run_many`) or a single fleet/service spec.
    ``store_config`` is ``(root, epoch, max_entries, max_bytes)`` or ``None``;
    each worker process opens its own :class:`ResultStore` handle on it, so
    results are persisted the moment a worker finishes them (per-key atomic
    renames make the concurrent writers safe).  Every spec in a task is one
    the parent's partition found missing, so the worker does not read it
    from the store again.
    """
    global _WORKER_EXECUTOR
    specs, store_config = task
    if _WORKER_EXECUTOR is None:
        store = ResultStore(*store_config) if store_config is not None else None
        _WORKER_EXECUTOR = SweepExecutor(store=store)
    for spec in specs:
        _WORKER_EXECUTOR._engine_for(spec).memo.note_miss(spec)
    return _WORKER_EXECUTOR._run_unit(specs)


def _pool_context():
    """The ``fork`` start method where the platform has it, else the default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return None


def _work_units(pending: Sequence[tuple[int, object]]) -> list[list[tuple[int, object]]]:
    """Partition ``(index, spec)`` pairs into work units, in first-seen order.

    Scenario specs sharing a :func:`~repro.scenarios.engine.kernel_group_key`
    form one unit (one stacked kernel pass); every fleet or service spec is
    a unit of its own.
    """
    units: dict[object, list[tuple[int, object]]] = {}
    for index, spec in pending:
        key = kernel_group_key(spec) if isinstance(spec, ScenarioSpec) else ("spec", index)
        units.setdefault(key, []).append((index, spec))
    return list(units.values())


class SweepExecutor:
    """Runs a list of scenario specs, optionally over workers.

    Parameters
    ----------
    jobs:
        Worker count, an integer ``>= 1`` (anything else raises
        ``ConfigurationError``); ``1`` (default) runs serially in the calling
        thread, and so does a sweep with a single work unit.  Otherwise the units go
        to a :class:`~concurrent.futures.ProcessPoolExecutor` of at most
        ``jobs`` workers, one pool per :meth:`run` call.  Workers take whole
        kernel groups (see the module docs), so a sweep with fewer groups
        than workers leaves the extra workers idle.  Every worker process
        builds a private engine on first use; specs and result rows travel
        by pickling, and every returned row is kept in its engine's memo in
        this process.  What else a worker warms (dataset and forecaster
        caches, a hybrid fleet's template session) stays in the worker.
        Because all randomness is seeded from the spec, the rows are
        bit-identical to a serial run.

        Caveat: runtime registrations (``register_forecaster`` /
        ``register_scenario``) live in per-process module globals.  The pool
        uses the ``fork`` start method wherever the platform has it (Linux,
        macOS), so workers inherit them.  Where only ``spawn`` exists
        (Windows), specs referencing them fail in the workers with a
        ``ConfigurationError``; run such specs with ``jobs=1`` there.
    engine:
        Shared :class:`SessionEngine`; a private one is created when omitted,
        so repeated ``run`` calls on one executor reuse its caches.
    store:
        Optional persistent :class:`~repro.scenarios.store.ResultStore`.
        :meth:`run` first partitions the specs through the engines'
        :class:`~repro.scenarios.engine.ResultMemo` (memory, then one store
        read per distinct spec) and fans out **only the misses** — the
        synchronisation-protocol move: compute only what differs from what
        is already stored.  Every computed result is written back as soon as
        it finishes (worker processes open their own handle on the same
        directory), so an interrupted sweep resumes where it crashed and a
        grown grid reuses its overlap with previous grids.  When both
        ``engine`` and ``store`` are given, the store is attached to the
        engine (which must not already carry a different one).
    """

    def __init__(
        self,
        jobs: int = 1,
        engine: SessionEngine | None = None,
        store: ResultStore | None = None,
    ) -> None:
        self.jobs = ensure_int("jobs", jobs, minimum=1)
        if engine is None:
            engine = SessionEngine(store=store)
        elif store is not None:
            if engine.memo.store is not None and engine.memo.store is not store:
                raise ConfigurationError("engine already carries a different result store")
            engine.memo.store = store
        self.engine = engine
        self.store = engine.memo.store
        self._fleet_engine = None  # lazy FleetEngine for FleetSpec rows
        self._service_engine = None  # lazy ServiceEngine for ServiceSpec rows

    def _store_config(self) -> tuple | None:
        """Picklable store parameters for worker processes."""
        if self.store is None:
            return None
        return (str(self.store.root), self.store.epoch, self.store.max_entries, self.store.max_bytes)

    def _engine_for(self, spec):
        """The engine a spec runs on, created on first use for fleet/service specs.

        Fleet and service engines share this executor's session engine (and
        therefore its result memo) and store, so fleet,
        service and scenario rows mix freely in one resumable sweep.  Any
        value that is not a scenario, fleet or service spec raises
        ``ConfigurationError``.
        """
        if isinstance(spec, ScenarioSpec):
            return self.engine
        # deferred: fleet and service import scenarios
        from ..fleet import FleetEngine, FleetSpec, PlanSpec
        from ..service import ServiceEngine, ServiceSpec

        if isinstance(spec, FleetSpec):
            if self._fleet_engine is None:
                self._fleet_engine = FleetEngine(sessions=self.engine, store=self.store)
            return self._fleet_engine
        if isinstance(spec, ServiceSpec):
            if self._service_engine is None:
                self._service_engine = ServiceEngine(sessions=self.engine, store=self.store)
            return self._service_engine
        hint = "; run a PlanSpec with repro.plan(...)" if isinstance(spec, PlanSpec) else ""
        raise ConfigurationError(
            f"a sweep runs ScenarioSpec, FleetSpec or ServiceSpec values, got {type(spec).__name__}{hint}"
        )

    def _run_unit(self, specs: list) -> list:
        """Run one work unit (see :func:`_work_units`) through the right engine."""
        engine = self._engine_for(specs[0])
        if engine is self.engine:
            return engine.run_many(specs)
        return [engine.run(specs[0])]

    def run(self, specs: Iterable[ScenarioSpec]) -> SweepResult:
        """Execute every spec and return results in input order.

        Each distinct spec is looked up once in its engine's memo (memory,
        then store); only the misses fan out to workers, and a repeated spec
        shares its first row, labelled with its own spec.  The rows are
        indistinguishable from a cold serial run, hits included.
        """
        specs = list(specs)
        engines = [self._engine_for(spec) for spec in specs]
        keys = [spec.spec_hash() for spec in specs]
        rows: list = [None] * len(specs)
        first: dict[str, int] = {}
        loaded: set[str] = set()
        pending: list[tuple[int, ScenarioSpec]] = []
        for index, (spec, key, engine) in enumerate(zip(specs, keys, engines)):
            if key in first:
                continue
            first[key] = index
            rows[index], stored = engine.memo.lookup(spec)
            if stored:
                loaded.add(key)
            elif rows[index] is None:
                pending.append((index, spec))

        if pending:
            units = _work_units(pending)
            unit_specs = [[spec for _, spec in unit] for unit in units]
            if self.jobs == 1 or len(units) == 1:
                computed = [self._run_unit(group) for group in unit_specs]
            else:
                store_config = self._store_config()
                tasks = [(group, store_config) for group in unit_specs]
                workers = min(self.jobs, len(units))
                with ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context()) as pool:
                    computed = list(pool.map(_run_unit_in_worker, tasks))
                # Keep each worker row in this process's memo; the worker
                # already wrote it to the store.
                computed = [
                    [self._engine_for(spec).memo.adopt(spec, row) for spec, row in zip(group, got)]
                    for group, got in zip(unit_specs, computed)
                ]
            for unit, unit_rows in zip(units, computed):
                for (index, _), row in zip(unit, unit_rows):
                    rows[index] = row
        hits = sum(key in loaded for key in keys)
        return SweepResult(
            [for_spec(rows[first[key]], spec) for spec, key in zip(specs, keys)],
            store_hits=hits,
            store_misses=len(specs) - hits if self.store is not None else 0,
        )

    def run_grid(self, base: ScenarioSpec, axes: dict[str, Sequence]) -> SweepResult:
        """Expand a grid (see :func:`scenario_grid`) and execute it."""
        return self.run(scenario_grid(base, axes))
