"""SLO-driven capacity planning: search admission capacities, not grids.

Capacity planning used to mean sweeping ``--fleet N`` and eyeballing the
knee in ``examples/fleet_capacity.py``.  :class:`CapacityPlanner` replaces
the grid with a direct search: given a :class:`PlanSpec` — a target fleet,
SLO gates, capacity bounds and a probe budget — it searches the per-AP
admission capacity against the SLO and emits a versioned
:class:`CapacityPlan` (chosen capacity, predicted metrics, the full probe
ledger and a convergence trace).

The optimisation problem
------------------------

Minimise total capacity subject to the SLO, in its utility-maximising form:
among capacities whose **quality gates** hold (p99 recovery ``>= slo_p99``,
mean late fraction ``<= slo_late``), choose the one admitting the most
operator sessions, tie-broken to the smallest capacity.  The **drop gate**
(``drop_rate <= slo_drop``) then decides the plan's feasibility verdict at
the chosen capacity.  See :mod:`repro.fleet.objective` for why the gates
are split this way (it is what keeps the planned capacity monotone under
SLO tightening).

Methods
-------

``"dual-gradient"``
    Dual-gradient ascent on the Lagrangian ``L(c, lam) = admitted(c) -
    lam . v(c)`` of the gated problem (the resource-allocation idiom from
    PAPERS.md): the Lagrange multipliers ``lam`` ascend along the violation
    slacks ``v`` of each probed capacity, and the primal iterate moves to
    the neighbouring capacity maximising the estimated Lagrangian —
    optimistic utility estimates (:func:`~repro.fleet.objective.
    admitted_estimate`) for unprobed capacities, nearest-probed violation
    estimates otherwise.  From a violating iterate the primal step always
    *descends* (with load-monotone quality gates everything above an
    infeasible capacity is at least as infeasible), and when a probed
    infeasible neighbour still dominates the Lagrangian the multipliers
    take one Polyak-sized jump along its violation vector instead of
    oscillating — so the iterate settles on the feasibility knee within a
    bounded number of iterations.
``"golden-section"``
    Deterministic golden-section refinement of the penalized objective
    (:func:`~repro.fleet.objective.penalized_score`) over the integer
    capacity interval, finished by an exhaustive sweep of the surviving
    bracket — the derivative-free fallback when the dual method's
    monotonicity assumptions are in doubt.

Both methods are **warm-started** by :func:`analytic_bracket`: the largest
capacity the analytic superposition model
(:mod:`repro.wireless.superposition`) calls stable at delivery probability
1 — pure air-time arithmetic (``floor`` of command period over AP service
time) that usually lands on the knee before the first probe runs.

Determinism and memoization
---------------------------

Every probe is a real :class:`~repro.fleet.FleetSpec` evaluation routed
through a :class:`~repro.scenarios.SweepExecutor`, so probes parallelise
over worker processes and memoize through the content-addressed
:class:`~repro.scenarios.ResultStore`.  The planner consumes **no
randomness at all** — probe sequences are pure functions of the spec — so
a plan is bit-identical across ``--jobs 1`` vs ``--jobs N``.  Finished
plans persist under the ``"plan"`` record kind of the same epoch scheme as
every other result: a rerun against the same store loads the plan shard
directly and recomputes nothing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

from ..errors import ConfigurationError, StoreError
from ..scenarios.engine import ResultMemo
from ..scenarios.registry import Registry
from ..scenarios.spec import SpecIdentity
from ..scenarios.store import ResultStore, register_store_codec
from ..scenarios.sweep import SweepExecutor
from ..wireless.superposition import SuperpositionModel
from .objective import PlanProbe, admitted_estimate, assess_probe, penalized_score, select_probe
from .registry import get_fleet
from .spec import FleetSpec, _coerce_float, _coerce_int

#: Version of the :class:`CapacityPlan` report/record schema.
PLAN_VERSION = 1

#: Search methods understood by the planner.
METHOD_KINDS: tuple[str, ...] = ("dual-gradient", "golden-section")

#: One-line summary per search method (rendered into the docs reference).
METHOD_KIND_SUMMARIES: dict[str, str] = {
    "dual-gradient": "dual ascent on the Lagrangian of (max admitted s.t. quality gates)",
    "golden-section": "derivative-free golden-section refinement of the penalized objective",
}

#: Inverse golden ratio (interior-point placement of the golden method).
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class PlanSpec(SpecIdentity):
    """One fully-specified capacity-planning problem.

    Attributes
    ----------
    name:
        Human-readable label (preset name); not part of the problem
        identity and excluded from :meth:`spec_hash`.
    fleet:
        The target :class:`~repro.fleet.FleetSpec` whose per-AP admission
        capacity is being planned.  Its own ``ap_capacity`` is the search
        variable, not an input: :meth:`canonical` pins it to 1, so two
        plans differing only in the fleet's initial capacity share a spec
        hash (and a store shard).
    slo_p99:
        Quality gate: 99 % of admitted operator-sessions must recover at
        least this fraction of their missing command slots
        (:attr:`~repro.fleet.engine.FleetResult.p99_recovery`).
    slo_late:
        Quality gate: the mean late/lost command fraction over admitted
        sessions must not exceed this value.
    slo_drop:
        Verdict gate: the drop rate left at the *chosen* capacity must not
        exceed this value for the plan to be declared feasible.
    min_capacity / max_capacity:
        Inclusive integer bounds of the capacity search.
    budget:
        Maximum number of distinct capacities evaluated (memoized repeats
        and store hits are free).  Budgets at least the size of the bound
        range make the search exhaustive-equivalent.
    method:
        Search method (see :data:`METHOD_KINDS`).
    dual_step:
        Dual-ascent step size of the ``"dual-gradient"`` method (the
        multipliers move ``dual_step * violation`` per iteration).
    max_iterations:
        Iteration cap of either method (a safety bound; the methods
        normally converge long before it).
    """

    name: str = "plan"
    fleet: FleetSpec = field(default_factory=FleetSpec)
    slo_p99: float = 0.8
    slo_late: float = 0.2
    slo_drop: float = 0.3
    min_capacity: int = 1
    max_capacity: int = 8
    budget: int = 12
    method: str = "dual-gradient"
    dual_step: float = 2.0
    max_iterations: int = 64

    def __post_init__(self) -> None:
        """Validate every knob, raising :class:`ConfigurationError` on misuse."""
        if not isinstance(self.fleet, FleetSpec):
            raise ConfigurationError("PlanSpec.fleet must be a FleetSpec")
        for int_field in ("min_capacity", "max_capacity", "budget", "max_iterations"):
            object.__setattr__(self, int_field, _coerce_int(int_field, getattr(self, int_field)))
        for float_field in ("slo_p99", "slo_late", "slo_drop", "dual_step"):
            object.__setattr__(self, float_field, _coerce_float(float_field, getattr(self, float_field)))
        for gate in ("slo_p99", "slo_late", "slo_drop"):
            if not 0.0 <= getattr(self, gate) <= 1.0:
                raise ConfigurationError(f"{gate} must be in [0, 1]")
        if self.min_capacity < 1:
            raise ConfigurationError("min_capacity must be >= 1 (zero-capacity APs admit nobody)")
        if self.max_capacity < self.min_capacity:
            raise ConfigurationError("max_capacity must be >= min_capacity")
        if self.budget < 1:
            raise ConfigurationError("plan budget must be >= 1")
        if self.method not in METHOD_KINDS:
            raise ConfigurationError(
                f"unknown plan method {self.method!r}; available: {sorted(METHOD_KINDS)}"
            )
        if self.dual_step <= 0.0:
            raise ConfigurationError("dual_step must be > 0")
        if self.max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")

    # --------------------------------------------------------------- identity
    #: Record kind this spec stores/loads under in a ResultStore.
    store_kind = "plan"

    def canonical(self) -> dict:
        """JSON-safe canonical representation (the hashing domain).

        The target fleet enters with its ``ap_capacity`` pinned to 1: the
        capacity is the search variable, so plans over the same fleet that
        differ only in the fleet's initial capacity are the *same problem*
        and must share a store address.
        """
        return {
            "kind": "plan",
            "fleet": self.fleet.with_(ap_capacity=1).canonical(),
            "slo": {
                "p99_recovery": float(self.slo_p99),
                "late_fraction": float(self.slo_late),
                "drop_rate": float(self.slo_drop),
            },
            "bounds": {
                "min_capacity": int(self.min_capacity),
                "max_capacity": int(self.max_capacity),
            },
            "budget": int(self.budget),
            "method": {
                "kind": self.method,
                "dual_step": float(self.dual_step),
                "max_iterations": int(self.max_iterations),
            },
        }

    # --------------------------------------------------------------- builders
    def with_(self, **changes) -> "PlanSpec":
        """A copy with top-level plan fields replaced."""
        return replace(self, **changes)

    def with_fleet(self, **changes) -> "PlanSpec":
        """A copy whose target fleet has top-level fields replaced."""
        return replace(self, fleet=self.fleet.with_(**changes))

    def with_template(self, **changes) -> "PlanSpec":
        """A copy whose target fleet's per-operator template has fields replaced."""
        return replace(self, fleet=self.fleet.with_template(**changes))

    def probe_spec(self, capacity: int) -> FleetSpec:
        """The fleet spec one capacity probe evaluates.

        The probe is the target fleet with ``ap_capacity`` set to the
        candidate (name-tagged for readable ledgers; names never enter the
        hash, so probe shards are shared with any other sweep that
        evaluates the same physical fleet).
        """
        capacity = _coerce_int("capacity", capacity)
        if not self.min_capacity <= capacity <= self.max_capacity:
            raise ConfigurationError(
                f"probe capacity {capacity} outside bounds "
                f"[{self.min_capacity}, {self.max_capacity}]"
            )
        return self.fleet.with_(ap_capacity=capacity, name=f"{self.fleet.name}-cap{capacity}")

    def describe(self) -> str:
        """One-line summary used by reports and the CLI."""
        return (
            f"{self.name}: {self.method} over capacities "
            f"[{self.min_capacity}, {self.max_capacity}] of fleet {self.fleet.name} "
            f"(SLO: p99 recovery >= {self.slo_p99:g}, late <= {self.slo_late:g}, "
            f"drop <= {self.slo_drop:g}; budget {self.budget})"
        )


# ------------------------------------------------------------------- results
@dataclass
class CapacityPlan:
    """The versioned outcome of one capacity-planning run.

    Attributes
    ----------
    spec / spec_hash:
        The planning problem and its content address.
    feasible:
        The verdict: a quality-feasible capacity exists within bounds *and*
        the drop rate it leaves satisfies ``slo_drop``.
    capacity:
        The chosen per-AP admission capacity (the least-violating probe
        when the verdict is infeasible).
    admitted / dropped_sessions / drop_rate:
        Admission outcome at the chosen capacity.
    predicted:
        Service-level metrics predicted at the chosen capacity (p99
        recovery, mean late fraction, mean AP utilisation, drop rate).
    bracket:
        The analytic warm-start capacity (:func:`analytic_bracket`).
    method:
        Search method that produced the plan.
    probes:
        The full probe ledger in evaluation order.
    trace:
        Per-iteration convergence trace (method-specific rows: multiplier
        values for the dual method, interval bounds for golden-section).
    evaluated:
        Number of distinct capacities probed (``<= spec.budget``).
    store_hits / store_misses:
        Store partition of the probes *when this plan was computed* (the
        numbers persist with the record, so a warm-loaded plan renders
        bit-identically to the run that computed it).
    from_store:
        Whether this object was loaded from a plan shard instead of being
        computed (in-memory only, never persisted).
    """

    spec: PlanSpec
    spec_hash: str
    feasible: bool
    capacity: int
    admitted: int
    dropped_sessions: int
    drop_rate: float
    predicted: dict
    bracket: int
    method: str
    probes: tuple[PlanProbe, ...]
    trace: tuple[dict, ...]
    evaluated: int
    store_hits: int = 0
    store_misses: int = 0
    from_store: bool = field(default=False, compare=False)

    #: Record kind this result stores under in a ResultStore.
    store_kind = "plan"

    def to_dict(self) -> dict:
        """JSON-safe rendering of the plan (verdict, ledger, trace, store)."""
        return {
            "plan": self.spec.name,
            "plan_version": PLAN_VERSION,
            "spec_hash": self.spec_hash,
            "method": self.method,
            "feasible": bool(self.feasible),
            "capacity": int(self.capacity),
            "admitted": int(self.admitted),
            "dropped_sessions": int(self.dropped_sessions),
            "drop_rate": float(self.drop_rate),
            "bracket": int(self.bracket),
            "evaluated": int(self.evaluated),
            "store_hits": int(self.store_hits),
            "store_misses": int(self.store_misses),
            "slo": {
                "p99_recovery": float(self.spec.slo_p99),
                "late_fraction": float(self.spec.slo_late),
                "drop_rate": float(self.spec.slo_drop),
            },
            "bounds": {
                "min_capacity": int(self.spec.min_capacity),
                "max_capacity": int(self.spec.max_capacity),
            },
            "predicted": {key: float(value) for key, value in self.predicted.items()},
            "probes": [probe.to_dict() for probe in self.probes],
            "trace": [dict(row) for row in self.trace],
        }

    def to_json(self, indent: int | None = 2) -> str:
        """JSON text rendering of :meth:`to_dict` (sorted keys: byte-stable)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_text(self) -> str:
        """Fixed-width text report: verdict, SLO, ledger table, store line."""
        verdict = "FEASIBLE" if self.feasible else "INFEASIBLE"
        lines = [
            f"capacity plan {self.spec.name!r} ({self.method}): {verdict} "
            f"at capacity {self.capacity}",
            f"  SLO: p99 recovery >= {self.spec.slo_p99:g}, "
            f"late fraction <= {self.spec.slo_late:g}, drop rate <= {self.spec.slo_drop:g}",
            f"  bounds [{self.spec.min_capacity}, {self.spec.max_capacity}], "
            f"budget {self.spec.budget}, analytic bracket {self.bracket}",
            f"  chosen: admits {self.admitted}, drops {self.dropped_sessions} "
            f"(drop rate {self.drop_rate:.2f}), p99 recovery "
            f"{self.predicted.get('p99_recovery', float('nan')):.3f}, "
            f"late {self.predicted.get('mean_late_fraction', float('nan')):.3f}",
        ]
        header = (
            f"{'cap':>4s} {'admit':>6s} {'drop':>6s} {'p99rec':>7s} "
            f"{'late':>6s} {'util':>6s} {'feas':>5s}  source"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for probe in self.probes:
            lines.append(
                f"{probe.capacity:>4d} {probe.admitted:>6d} {probe.drop_rate:>6.2f} "
                f"{probe.p99_recovery:>7.3f} {probe.mean_late_fraction:>6.3f} "
                f"{probe.mean_ap_utilization:>6.2f} {'yes' if probe.feasible else 'no':>5s}"
                f"  {probe.source}"
            )
        lookups = self.store_hits + self.store_misses
        if lookups:
            lines.append(
                f"  probes: {self.evaluated} evaluated, {self.store_hits} store hits / "
                f"{self.store_misses} misses ({100.0 * self.store_hits / lookups:.0f}% reused)"
            )
        else:
            lines.append(f"  probes: {self.evaluated} evaluated")
        lines.append(f"  trace: {len(self.trace)} iterations")
        return "\n".join(lines)


# --------------------------------------------------------------------- codec
def _encode_plan(result: CapacityPlan) -> dict:
    """Kind-specific payload fields for a plan record."""
    payload = result.to_dict()
    # The record envelope already carries the name, spec and hash.
    for redundant in ("plan", "spec_hash", "slo", "bounds"):
        payload.pop(redundant, None)
    return payload


def _decode_plan(spec: PlanSpec, key: str, payload: dict) -> CapacityPlan:
    """Rebuild a :class:`CapacityPlan` from a plan record's payload."""
    if payload.get("plan_version") != PLAN_VERSION:
        raise StoreError(f"unknown plan record version {payload.get('plan_version')!r}")
    method = str(payload["method"])
    if method != spec.method:
        raise StoreError(f"stored method {method!r} does not match the spec's {spec.method!r}")
    probes = payload["probes"]
    if not isinstance(probes, list):
        raise StoreError("plan record probes must be a list")
    return CapacityPlan(
        spec=spec,
        spec_hash=key,
        feasible=bool(payload["feasible"]),
        capacity=int(payload["capacity"]),
        admitted=int(payload["admitted"]),
        dropped_sessions=int(payload["dropped_sessions"]),
        drop_rate=float(payload["drop_rate"]),
        predicted={k: float(v) for k, v in payload["predicted"].items()},
        bracket=int(payload["bracket"]),
        method=method,
        probes=tuple(PlanProbe.from_dict(row) for row in probes),
        trace=tuple(dict(row) for row in payload["trace"]),
        evaluated=int(payload["evaluated"]),
        store_hits=int(payload["store_hits"]),
        store_misses=int(payload["store_misses"]),
        from_store=True,
    )


register_store_codec("plan", _encode_plan, _decode_plan)


# ------------------------------------------------------------------- bracket
def analytic_bracket(spec: PlanSpec) -> int:
    """Warm-start capacity from the analytic superposition model.

    The largest capacity within the spec's bounds that the
    :class:`~repro.wireless.superposition.SuperpositionModel` calls stable
    at delivery probability 1 — i.e. the most sessions whose worst-case
    air-time demand still fits one command period.  Pure arithmetic
    (``m * service_ms < period_ms``), so the bracket costs nothing and in
    practice lands on (or next to) the empirical knee; when even the
    smallest bound is unstable the bracket clamps to ``min_capacity``.
    """
    fleet = spec.fleet
    period_ms = float(fleet.template.foreco.command_period_ms)
    bracket = spec.min_capacity
    for sessions in range(spec.min_capacity, spec.max_capacity + 1):
        model = SuperpositionModel(
            sessions=sessions,
            delivery_probability=1.0,
            service_ms=fleet.ap_service_ms,
            period_ms=period_ms,
        )
        if not model.is_stable:
            break
        bracket = sessions
    return bracket


# ------------------------------------------------------------------- planner
class _PlanRun:
    """Mutable state of one planning run (ledger, budget, store partition)."""

    def __init__(self, spec: PlanSpec) -> None:
        self.spec = spec
        self.ledger: dict[int, PlanProbe] = {}
        self.store_hits = 0
        self.store_misses = 0

    @property
    def budget_left(self) -> int:
        """Distinct capacities the run may still evaluate."""
        return self.spec.budget - len(self.ledger)


class CapacityPlanner:
    """Search per-AP admission capacities directly against an SLO.

    Parameters
    ----------
    executor:
        The sweep executor probes run through.  Built from ``jobs`` /
        ``store`` when omitted; pass an explicit executor to share engine
        caches (and the store) with other sweeps.
    jobs / store:
        Convenience constructor arguments for the default executor
        (ignored when ``executor`` is given).
    evaluator:
        Test seam: a callable mapping a probe :class:`FleetSpec` to a
        fleet-result-like object (see
        :func:`~repro.fleet.objective.assess_probe`).  When given, probes
        bypass the executor entirely — the planner's decision logic runs
        against the synthetic surface — and plan records are neither
        loaded nor stored.

    Finished plans are memoized by spec hash in :attr:`memo` (a
    :class:`~repro.scenarios.engine.ResultMemo` over the executor's store).
    """

    def __init__(
        self,
        executor: SweepExecutor | None = None,
        jobs: int = 1,
        store: ResultStore | None = None,
        evaluator: Callable[[FleetSpec], object] | None = None,
    ) -> None:
        if evaluator is not None and executor is not None:
            raise ConfigurationError("pass either an executor or an evaluator, not both")
        if evaluator is None and executor is None:
            executor = SweepExecutor(jobs=jobs, store=store)
        self.evaluator = evaluator
        self.executor = executor
        self.memo = ResultMemo(None if executor is None else executor.store)

    # ------------------------------------------------------------- probing
    def _probe(self, run: _PlanRun, capacities: list[int], source: str) -> None:
        """Evaluate unprobed capacities (budget-capped) in one batch.

        Already-probed capacities are free; fresh ones beyond the remaining
        budget are silently skipped, which is how both methods stop probing
        at budget exhaustion.  Batches route through the executor in probe
        order, so any worker count returns bit-identical ledgers.
        """
        fresh: list[int] = []
        for capacity in capacities:
            if capacity not in run.ledger and capacity not in fresh:
                fresh.append(capacity)
        fresh = fresh[: max(0, run.budget_left)]
        if not fresh:
            return
        specs = [run.spec.probe_spec(capacity) for capacity in fresh]
        if self.evaluator is not None:
            results: list[object] = [self.evaluator(spec) for spec in specs]
        else:
            assert self.executor is not None
            sweep = self.executor.run(specs)
            run.store_hits += sweep.store_hits
            run.store_misses += sweep.store_misses
            results = list(sweep)
        for capacity, result in zip(fresh, results):
            run.ledger[capacity] = assess_probe(
                capacity,
                result,
                slo_p99=run.spec.slo_p99,
                slo_late=run.spec.slo_late,
                source=source,
                order=len(run.ledger),
            )

    # ------------------------------------------------------------- methods
    def _lagrangian(self, run: _PlanRun, capacity: int, lam: tuple[float, float]) -> float:
        """Estimated Lagrangian of one candidate capacity.

        Probed capacities use their measured utility and violations;
        unprobed ones use the optimistic admission-arithmetic utility and
        the violation vector of the nearest probed capacity (ties toward
        the smaller neighbour).
        """
        row = run.ledger.get(capacity)
        if row is not None:
            return float(row.admitted) - lam[0] * row.p99_violation - lam[1] * row.late_violation
        fleet = run.spec.fleet
        utility = float(admitted_estimate(capacity, fleet.operators, fleet.aps))
        if not run.ledger:
            return utility
        nearest = min(run.ledger, key=lambda probed: (abs(probed - capacity), probed))
        near = run.ledger[nearest]
        return utility - lam[0] * near.p99_violation - lam[1] * near.late_violation

    def _dual_gradient(self, run: _PlanRun, bracket: int) -> list[dict]:
        """Dual-gradient ascent around the feasibility knee (see module docs)."""
        spec = run.spec
        lo, hi = spec.min_capacity, spec.max_capacity
        lam = (0.0, 0.0)
        current = bracket
        trace: list[dict] = []
        for iteration in range(spec.max_iterations):
            row = run.ledger.get(current)
            if row is None:  # budget refused the probe
                break
            violation = (row.p99_violation, row.late_violation)
            lam = (
                lam[0] + spec.dual_step * violation[0],
                lam[1] + spec.dual_step * violation[1],
            )
            if row.feasible:
                candidates = sorted({max(lo, current - 1), current, min(hi, current + 1)})
                best = max(candidates, key=lambda c: (self._lagrangian(run, c, lam), -c))
                best_row = run.ledger.get(best)
                if best != current and best_row is not None and best_row.violation > 0.0:
                    # A probed infeasible neighbour still dominates the
                    # Lagrangian: take one Polyak-sized multiplier jump
                    # along its violation vector (exactly the ascent needed
                    # to stop it dominating) instead of oscillating there.
                    gap = self._lagrangian(run, best, lam) - max(
                        self._lagrangian(run, c, lam) for c in candidates if c != best
                    )
                    vector = (best_row.p99_violation, best_row.late_violation)
                    norm = vector[0] ** 2 + vector[1] ** 2
                    # A violation below ~1e-154 squares to zero: no finite
                    # jump exists, so keep plain ascent for this step.
                    if norm > 0.0:
                        alpha = max(0.0, gap) / norm
                        lam = (lam[0] + alpha * vector[0], lam[1] + alpha * vector[1])
                        best = max(
                            candidates, key=lambda c: (self._lagrangian(run, c, lam), -c)
                        )
                nxt = best
            else:
                # Quality gates are load-monotone: everything above a
                # violating capacity is at least as violating, so the
                # primal step from an infeasible iterate always descends.
                nxt = current - 1 if current > lo else current
            trace.append(
                {
                    "iteration": iteration,
                    "capacity": current,
                    "lambda_p99": lam[0],
                    "lambda_late": lam[1],
                    "violation": row.violation,
                    "next": nxt,
                }
            )
            if nxt == current:
                break
            if nxt not in run.ledger:
                self._probe(run, [nxt], "dual")
                if nxt not in run.ledger:
                    break  # budget exhausted
            current = nxt
        return trace

    def _golden_section(self, run: _PlanRun, bracket: int) -> list[dict]:
        """Golden-section refinement of the penalized objective (see module docs)."""
        spec = run.spec
        fleet = spec.fleet
        low, high = spec.min_capacity, spec.max_capacity
        self._probe(run, [low, high], "golden")
        trace: list[dict] = []

        def score(capacity: int) -> float | None:
            row = run.ledger.get(capacity)
            if row is None:
                return None
            return penalized_score(row, fleet.operators, spec.max_capacity)

        iteration = 0
        while high - low > 2 and run.budget_left > 0 and iteration < spec.max_iterations:
            span = high - low
            step = int(round(span * _INV_PHI))
            inner_low = max(low + 1, min(high - step, high - 1))
            inner_high = max(low + 1, min(low + step, high - 1))
            if inner_high <= inner_low:
                inner_high = min(high - 1, inner_low + 1)
            self._probe(run, [inner_low, inner_high], "golden")
            score_low, score_high = score(inner_low), score(inner_high)
            if score_low is None or score_high is None:
                break  # budget exhausted mid-iteration
            trace.append(
                {
                    "iteration": iteration,
                    "low": low,
                    "high": high,
                    "probe_low": inner_low,
                    "probe_high": inner_high,
                    "score_low": score_low,
                    "score_high": score_high,
                }
            )
            if score_low >= score_high:
                # Ties keep the smaller-capacity side (the plan objective
                # breaks utility ties toward the smallest capacity).
                high = inner_high
            else:
                low = inner_low
            iteration += 1
        # Exhaustive sweep of the surviving bracket pins the exact knee.
        self._probe(run, list(range(low, high + 1)), "refine")
        return trace

    # ----------------------------------------------------------------- run
    def run(self, spec: PlanSpec) -> CapacityPlan:
        """Plan one :class:`PlanSpec` (memory -> store -> compute, with write-back).

        A plan this planner already made is returned from :attr:`memo`, and
        one persisted under the spec's content address is returned directly
        (``from_store=True``) without a single probe;
        otherwise the search runs, every probe memoizing through the
        executor's store, and the finished plan is written back.
        """
        if not isinstance(spec, PlanSpec):
            raise ConfigurationError("CapacityPlanner.run expects a PlanSpec")
        return self.memo.fetch(spec, self._plan)

    def _plan(self, spec: PlanSpec) -> CapacityPlan:
        """Search one plan from scratch."""
        run = _PlanRun(spec)
        bracket = analytic_bracket(spec)
        self._probe(run, [bracket], "bracket")
        if spec.method == "dual-gradient":
            trace = self._dual_gradient(run, bracket)
        else:
            trace = self._golden_section(run, bracket)
        chosen = select_probe(run.ledger.values())
        return CapacityPlan(
            spec=spec,
            spec_hash=spec.spec_hash(),
            feasible=chosen.feasible and chosen.drop_rate <= spec.slo_drop,
            capacity=chosen.capacity,
            admitted=chosen.admitted,
            dropped_sessions=chosen.dropped_sessions,
            drop_rate=chosen.drop_rate,
            predicted={
                "p99_recovery": chosen.p99_recovery,
                "mean_late_fraction": chosen.mean_late_fraction,
                "mean_ap_utilization": chosen.mean_ap_utilization,
                "drop_rate": chosen.drop_rate,
            },
            bracket=bracket,
            method=spec.method,
            probes=tuple(sorted(run.ledger.values(), key=lambda probe: probe.order)),
            trace=tuple(trace),
            evaluated=len(run.ledger),
            store_hits=run.store_hits,
            store_misses=run.store_misses,
        )


# ----------------------------------------------------------------- registry
#: The capacity-plan presets.
PLANS: Registry[PlanSpec] = Registry("plan", PlanSpec, "plan")
register_plan = PLANS.register
get_plan = PLANS.get
plan_names = PLANS.names
plan_catalog = PLANS.catalog


def _register_builtins() -> None:
    """Register the built-in plan presets."""
    register_plan(
        PlanSpec(name="plan-shared-ap", fleet=get_fleet("shared-ap")),
        "dual-gradient capacity plan for the shared-ap fleet (knee at 3 ops/AP)",
    )
    register_plan(
        PlanSpec(name="plan-shared-ap-golden", fleet=get_fleet("shared-ap"), method="golden-section"),
        "golden-section twin of plan-shared-ap (same knee, derivative-free refinement)",
    )


_register_builtins()
