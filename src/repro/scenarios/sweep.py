"""Parallel sweep execution over lists/grids of scenario specs.

A sweep is an ordered list of :class:`ScenarioSpec` values — or
:class:`~repro.fleet.FleetSpec` values, which route through a
:class:`~repro.fleet.HybridFleetEngine` sharing the executor's session
engine and store (capacity-planning sweeps resume and parallelise like any
other; the hybrid engine runs both the exact and the hybrid fleet tier), or
:class:`~repro.service.ServiceSpec` values, which route through a
:class:`~repro.service.ServiceEngine` the same way (live-service runs are
spec-seeded too, so they stay bit-identical across worker counts).  The
:class:`SweepExecutor`'s unit of work is a **kernel group**: the pending
scenario specs sharing a :func:`~repro.scenarios.engine.kernel_group_key`
(e.g. every cell of the Fig. 8 grid, which differ only in channel) run as one
stacked kernel pass through :meth:`SessionEngine.run_many`; each fleet or
service spec is a unit of its own.  The executor fans the units out over a
thread pool (each unit is NumPy-bound and self-contained, and the engine's
caches are lock-guarded) or, with ``backend="process"``, over a process pool
for true multi-core grids — placing every row back at its input index in the
returned :class:`SweepResult` either way.
Because every random draw is seeded from the spec itself (see
:func:`repro.scenarios.engine.repetition_seed`), the result is bit-identical
whether the sweep runs with 1 worker or N, threads or processes.

:func:`scenario_grid` expands axis definitions into the cross-product of
specs — the declarative replacement for the nested ``for`` loops the
experiment modules used to hand-write.
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..errors import ConfigurationError
from .engine import SessionEngine, SessionResult, kernel_group_key
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
    ``store_misses`` record how the specs partitioned: hits were loaded from
    disk, misses were computed (and written back).  Both stay 0 for
    store-less sweeps and for derived tables (:meth:`filter`).
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
#: Per-process session engine for the ``"process"`` backend.  Created lazily
#: in each worker on its first spec, so one worker amortises dataset and
#: forecaster training across every spec it is handed.
_WORKER_ENGINE: SessionEngine | None = None

#: Per-process fleet engine (wraps the worker's session engine; lazy like it).
_WORKER_FLEET_ENGINE = None

#: Per-process service engine (wraps the worker's session engine; lazy like it).
_WORKER_SERVICE_ENGINE = None


def _run_unit_in_worker(task: tuple[list, tuple | None]) -> list:
    """Run one work unit in a pool worker; ``task`` is ``(specs, store_config)``.

    A unit is one kernel group of scenario specs (run as one stacked pass
    through :meth:`SessionEngine.run_many`) or a single fleet/service spec.
    ``store_config`` is ``(root, epoch, max_entries, max_bytes)`` or ``None``;
    each worker process opens its own :class:`ResultStore` handle on it, so
    results are persisted the moment a worker finishes them (per-key atomic
    renames make the concurrent writers safe).  Fleet specs route through a
    per-process :class:`~repro.fleet.HybridFleetEngine` sharing the worker's
    session engine and store (it runs both fleet tiers; exact-tier specs
    take the plain :class:`~repro.fleet.FleetEngine` path unchanged).
    """
    global _WORKER_ENGINE, _WORKER_FLEET_ENGINE, _WORKER_SERVICE_ENGINE
    specs, store_config = task
    if _WORKER_ENGINE is None:
        store = ResultStore(*store_config) if store_config is not None else None
        _WORKER_ENGINE = SessionEngine(store=store)
    spec = specs[0]
    if isinstance(spec, ScenarioSpec):
        return _WORKER_ENGINE.run_many(specs)
    if getattr(spec, "store_kind", None) == "service":
        if _WORKER_SERVICE_ENGINE is None:
            from ..service import ServiceEngine  # deferred: service imports scenarios

            _WORKER_SERVICE_ENGINE = ServiceEngine(
                sessions=_WORKER_ENGINE, store=_WORKER_ENGINE.store
            )
        return [_WORKER_SERVICE_ENGINE.run(spec)]
    if _WORKER_FLEET_ENGINE is None:
        from ..fleet import HybridFleetEngine  # deferred: fleet imports scenarios

        _WORKER_FLEET_ENGINE = HybridFleetEngine(
            sessions=_WORKER_ENGINE, store=_WORKER_ENGINE.store
        )
    return [_WORKER_FLEET_ENGINE.run(spec)]


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
        Worker count; ``1`` (default) runs serially in the calling thread.
        Workers take whole kernel groups (see the module docs), so a sweep
        with fewer groups than workers leaves the extra workers idle.
    engine:
        Shared :class:`SessionEngine`; a private one is created when omitted,
        so repeated ``run`` calls on one executor reuse its caches.  Ignored
        by the ``"process"`` backend (see below).
    backend:
        ``"thread"`` (default) fans groups out over a thread pool sharing
        ``engine`` and its caches — the right choice when sweeps reuse
        datasets/forecasters heavily or results must land in this process's
        cache.  ``"process"`` uses a :class:`~concurrent.futures.
        ProcessPoolExecutor` for true multi-core scaling of NumPy-bound
        grids: every worker process builds a private engine on first use
        (caches cannot be shared across processes), specs and result rows
        travel by pickling.  Because all randomness is seeded from the spec,
        both backends return results bit-identical to a serial run.

        Caveat: runtime registrations (``register_forecaster`` /
        ``register_scenario``) live in per-process module globals.  Workers
        inherit them under the ``fork`` start method (Linux default) but NOT
        under ``spawn`` (macOS/Windows default), where specs referencing
        them fail with a ``ConfigurationError``; use ``backend="thread"``
        for such specs on those platforms.
    store:
        Optional persistent :class:`~repro.scenarios.store.ResultStore`.
        :meth:`run` first partitions the specs into store hits and misses
        and fans out **only the misses** — the synchronisation-protocol
        move: compute only what differs from what is already stored.  Every
        computed result is written back as soon as it finishes (worker
        processes open their own handle on the same directory), so an
        interrupted sweep resumes where it crashed and a grown grid reuses
        its overlap with previous grids.  When both ``engine`` and ``store``
        are given, the store is attached to the engine (which must not
        already carry a different one).
    """

    #: Accepted ``backend`` values.
    BACKENDS: tuple[str, ...] = ("thread", "process")

    def __init__(
        self,
        jobs: int = 1,
        engine: SessionEngine | None = None,
        backend: str = "thread",
        store: ResultStore | None = None,
    ) -> None:
        if backend not in self.BACKENDS:
            raise ConfigurationError(
                f"unknown sweep backend {backend!r}; available: {sorted(self.BACKENDS)}"
            )
        self.jobs = max(1, int(jobs))
        if engine is None:
            engine = SessionEngine(store=store)
        elif store is not None:
            if engine.store is not None and engine.store is not store:
                raise ConfigurationError("engine already carries a different result store")
            engine.store = store
        self.engine = engine
        self.backend = backend
        self.store = store if store is not None else engine.store
        self._fleet_engine = None  # lazy FleetEngine for FleetSpec rows
        self._service_engine = None  # lazy ServiceEngine for ServiceSpec rows

    def _store_config(self) -> tuple | None:
        """Picklable store parameters for worker processes."""
        if self.store is None:
            return None
        return (str(self.store.root), self.store.epoch, self.store.max_entries, self.store.max_bytes)

    def _ensure_fleet_engine(self):
        """The lazily created :class:`~repro.fleet.HybridFleetEngine` for fleet rows.

        Shares this executor's session engine (and therefore its dataset /
        forecaster caches) and store — so capacity sweeps mix freely with
        scenario sweeps.  The hybrid engine runs *both* fleet tiers:
        exact-tier specs take the plain :class:`~repro.fleet.FleetEngine`
        path unchanged, hybrid-tier specs route through the city-scale
        classifier (see :mod:`repro.fleet.hybrid`).
        """
        if self._fleet_engine is None:
            from ..fleet import HybridFleetEngine  # deferred: fleet imports scenarios

            self._fleet_engine = HybridFleetEngine(sessions=self.engine, store=self.store)
        return self._fleet_engine

    def _ensure_service_engine(self):
        """The lazily created :class:`~repro.service.ServiceEngine` for service rows.

        Like the fleet engine, it shares this executor's session engine and
        store, so live-service runs mix freely with scenario and fleet rows
        in one resumable sweep.
        """
        if self._service_engine is None:
            from ..service import ServiceEngine  # deferred: service imports scenarios

            self._service_engine = ServiceEngine(sessions=self.engine, store=self.store)
        return self._service_engine

    def _run_unit(self, specs: list) -> list:
        """Run one work unit (see :func:`_work_units`) through the right engine."""
        spec = specs[0]
        if isinstance(spec, ScenarioSpec):
            return self.engine.run_many(specs)
        if getattr(spec, "store_kind", None) == "service":
            return [self._ensure_service_engine().run(spec)]
        return [self._ensure_fleet_engine().run(spec)]

    def run(self, specs: Iterable[ScenarioSpec]) -> SweepResult:
        """Execute every spec and return results in input order.

        With a store attached, specs whose results are already persisted are
        loaded instead of computed; only the misses fan out to workers.  The
        rows are indistinguishable from a cold serial run (modulo the
        in-memory-only ``outcome`` field on hits).
        """
        specs = list(specs)
        if not specs:
            return SweepResult([])
        rows: list[SessionResult | None] = [None] * len(specs)
        pending: list[tuple[int, ScenarioSpec]] = []
        hits = 0
        if self.store is not None:
            for index, spec in enumerate(specs):
                # Partition with a cheap existence check; the stats-counted
                # get() runs only for actual hits, so the per-spec miss is
                # counted exactly once (by the engine, when it computes).
                cached = self.store.get(spec) if self.store.contains(spec) else None
                if cached is not None:
                    rows[index] = cached
                    hits += 1
                else:
                    pending.append((index, spec))
        else:
            pending = list(enumerate(specs))
        misses = len(pending) if self.store is not None else 0

        if pending:
            pending_specs = [spec for _, spec in pending]
            # Materialise the non-scenario engines before fanning out so
            # worker threads never race their lazy construction.
            kinds = {
                getattr(spec, "store_kind", None)
                for spec in pending_specs
                if not isinstance(spec, ScenarioSpec)
            }
            if "service" in kinds:
                self._ensure_service_engine()
            if kinds - {"service"}:
                self._ensure_fleet_engine()
            units = _work_units(pending)
            unit_specs = [[spec for _, spec in unit] for unit in units]
            if self.jobs == 1 or len(units) == 1:
                computed = [self._run_unit(group) for group in unit_specs]
            elif self.backend == "process":
                store_config = self._store_config()
                tasks = [(group, store_config) for group in unit_specs]
                with ProcessPoolExecutor(max_workers=min(self.jobs, len(units))) as pool:
                    computed = list(pool.map(_run_unit_in_worker, tasks))
            else:
                # The engine trains distinct forecaster identities in parallel and
                # serialises same-identity requests on a per-key lock, so workers
                # can start immediately.
                with ThreadPoolExecutor(max_workers=min(self.jobs, len(units))) as pool:
                    computed = list(pool.map(self._run_unit, unit_specs))
            for unit, unit_rows in zip(units, computed):
                for (index, _), row in zip(unit, unit_rows):
                    rows[index] = row
        return SweepResult(rows, store_hits=hits, store_misses=misses)

    def run_grid(self, base: ScenarioSpec, axes: dict[str, Sequence]) -> SweepResult:
        """Expand a grid (see :func:`scenario_grid`) and execute it."""
        return self.run(scenario_grid(base, axes))
