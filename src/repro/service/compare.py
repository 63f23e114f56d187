"""Policy-comparison experiment: rank admission policies on one workload.

Because :meth:`ServiceSpec.workload_identity` excludes the policy knobs,
every policy variant of one spec sees *identical* arrivals and channel
realisations — so the comparison isolates the admission decision itself.
Policies are scored against the service-level trade-off the paper's
operator cares about: reject as few sessions as possible (drop rate) while
keeping the recovery tail above an SLO (p99 recovery, the recovery share at
least 99% of admitted sessions achieve).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..scenarios.store import ResultStore

from .engine import ServiceEngine, ServiceResult
from .registry import SERVICES
from .spec import POLICY_KINDS, ServiceSpec

#: Default p99-recovery service-level objective the ranking scores against.
DEFAULT_RECOVERY_SLO = 0.5


@dataclass
class PolicyComparison:
    """Ranked outcome of running every admission policy on one workload."""

    spec: ServiceSpec
    slo: float
    #: Per-policy results keyed by policy name.
    results: dict[str, ServiceResult]
    #: Policy names, best first (ascending score).
    ranking: tuple[str, ...]
    #: Per-policy score (lower is better), keyed by policy name.
    scores: dict[str, float]

    @property
    def best(self) -> str:
        """The winning policy name."""
        return self.ranking[0]

    def to_dict(self) -> dict:
        """JSON-safe comparison summary (snapshot streams elided)."""
        rows = {}
        for policy in self.ranking:
            result = self.results[policy]
            rows[policy] = {
                "score": float(self.scores[policy]),
                "drop_rate": result.drop_rate,
                "p99_recovery": result.p99_recovery,
                "admitted": result.admitted,
                "dropped_sessions": result.dropped_sessions,
                "migrated_sessions": result.migrated_sessions,
            }
        return {
            "service": self.spec.name,
            "workload": self.spec.workload_identity(),
            "slo": float(self.slo),
            "ranking": list(self.ranking),
            "policies": rows,
        }

    def to_text(self) -> str:
        """Compact ranking table for the CLI report."""
        lines = [
            f"{self.spec.name}: policy ranking at p99-recovery SLO {self.slo:g} "
            "(score = drop rate + SLO shortfall; lower is better)"
        ]
        for rank, policy in enumerate(self.ranking, start=1):
            result = self.results[policy]
            lines.append(
                f"  {rank}. {policy}: score {self.scores[policy]:.3f} "
                f"(drop {result.drop_rate:.2f}, p99 recovery {result.p99_recovery:.2f}, "
                f"{result.migrated_sessions} migrated)"
            )
        return "\n".join(lines)


def policy_score(result: ServiceResult, slo: float) -> float:
    """Score one policy run: drop rate plus any p99-recovery SLO shortfall.

    Both terms are dimensionless fractions in ``[0, 1]``, so the score
    weighs a rejected session the same as an equal-sized recovery-tail
    deficit — the simplest expression of the paper's admission trade-off.
    """
    return result.drop_rate + max(0.0, slo - result.p99_recovery)


def compare_policies(
    spec_or_name: ServiceSpec | str,
    slo: float = DEFAULT_RECOVERY_SLO,
    engine: ServiceEngine | None = None,
    store: "ResultStore | None" = None,
) -> PolicyComparison:
    """Run every admission policy on one workload and rank them.

    ``spec_or_name`` may be a :class:`ServiceSpec` or a registered
    ``service-*`` preset name.  Ties in score break by canonical policy
    order (:data:`~repro.service.spec.POLICY_KINDS`), keeping the ranking
    deterministic.
    """
    spec = SERVICES.resolve(spec_or_name)
    runner = engine if engine is not None else ServiceEngine(store=store)
    results = {policy: runner.run(spec.with_(policy=policy)) for policy in POLICY_KINDS}
    scores = {policy: policy_score(result, slo) for policy, result in results.items()}
    ranking = tuple(
        sorted(POLICY_KINDS, key=lambda policy: (scores[policy], POLICY_KINDS.index(policy)))
    )
    return PolicyComparison(spec=spec, slo=float(slo), results=results, ranking=ranking, scores=scores)
