"""The cost-based physical optimizer.

Enumerates every physical realization of a logical query over one
substrate — horizontal partitioning degree (via the raw-data cap),
Overcollection vs Backup, replica chain length, vertical column
grouping — builds each candidate's QEP through the existing
:class:`~repro.core.planner.EdgeletPlanner`, scores it with the unified
cost model, consults the strategy advisor for hard constraints, and
picks the cheapest feasible candidate.

Determinism: candidates are keyed by a canonical string, scored costs
are rounded, and the winner is ``min`` over ``(total, key)`` — the
choice is a pure function of (logical plan, substrate, weights),
invariant to enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.core.advisor import properties_for, recommend_strategy
from repro.core.planner import (
    EdgeletPlanner,
    PlanningError,
    PrivacyParameters,
    QuerySpec,
    ResiliencyParameters,
)
from repro.core.resiliency import worst_case_delay
from repro.plan.cost import CandidateCost, CostWeights, score_plan
from repro.plan.explain import CandidateReport
from repro.plan.substrate import SubstrateProfile

__all__ = ["PhysicalCandidate", "OptimizationResult", "PhysicalOptimizer"]

_BACKUP_REPLICA_CHOICES = (1, 2)


@dataclass(frozen=True)
class PhysicalCandidate:
    """One point in the physical search space.

    Attributes:
        strategy: ``"overcollection"`` or ``"backup"``.
        max_raw: raw-tuple cap per edgelet (drives partition degree n).
        backup_replicas: replica chain length (backup only; 0 for
            overcollection).
        vertical: ``"packed"`` (only the caller's separation
            constraints) or ``"split"`` (additionally separate every
            aggregate-column pair, one column group per aggregate).
    """

    strategy: str
    max_raw: int
    backup_replicas: int
    vertical: str

    @property
    def key(self) -> str:
        return (
            f"{self.strategy}/raw{self.max_raw}"
            f"/r{self.backup_replicas}/{self.vertical}"
        )


@dataclass(frozen=True)
class OptimizationResult:
    """The optimizer's decision plus its audit trail.

    Attributes:
        candidate: the winning point.
        privacy: privacy parameters realizing the candidate.
        resiliency: resiliency parameters realizing the candidate.
        cost: the winner's scored cost.
        reports: every candidate verdict, in key order.
    """

    candidate: PhysicalCandidate
    privacy: PrivacyParameters
    resiliency: ResiliencyParameters
    cost: CandidateCost
    reports: tuple[CandidateReport, ...]


class PhysicalOptimizer:
    """Chooses the physical realization of a query over a substrate.

    Args:
        substrate: the swarm profile to optimize over.
        weights: cost scalarization weights (defaults are the shipped
            calibration).
    """

    def __init__(
        self,
        substrate: SubstrateProfile,
        weights: CostWeights | None = None,
    ):
        self.substrate = substrate
        self.weights = weights or CostWeights()

    # -- search space --------------------------------------------------------

    def candidates(
        self, spec: QuerySpec, privacy: PrivacyParameters
    ) -> list[PhysicalCandidate]:
        """Enumerate the search space, in deterministic key order."""
        cap = privacy.max_raw_per_edgelet
        raw_choices = sorted({cap, max(1, cap // 2), max(1, cap // 4)},
                             reverse=True)
        verticals = ["packed"]
        if spec.kind == "aggregate" and len(self._aggregate_columns(spec)) >= 2:
            verticals.append("split")
        points: list[PhysicalCandidate] = []
        for max_raw in raw_choices:
            for vertical in verticals:
                points.append(PhysicalCandidate(
                    strategy="overcollection", max_raw=max_raw,
                    backup_replicas=0, vertical=vertical,
                ))
                if spec.kind == "aggregate":
                    for replicas in _BACKUP_REPLICA_CHOICES:
                        points.append(PhysicalCandidate(
                            strategy="backup", max_raw=max_raw,
                            backup_replicas=replicas, vertical=vertical,
                        ))
        return sorted(points, key=lambda c: c.key)

    @staticmethod
    def _aggregate_columns(spec: QuerySpec) -> tuple[str, ...]:
        if spec.group_by is None:
            return ()
        return tuple(sorted({
            s.column for s in spec.group_by.aggregates if s.column is not None
        }))

    def _parameters_for(
        self,
        candidate: PhysicalCandidate,
        spec: QuerySpec,
        privacy: PrivacyParameters,
        resiliency: ResiliencyParameters,
    ) -> tuple[PrivacyParameters, ResiliencyParameters]:
        separated = privacy.separated_pairs
        if candidate.vertical == "split":
            split_pairs = tuple(
                combinations(self._aggregate_columns(spec), 2)
            )
            separated = tuple(dict.fromkeys((*separated, *split_pairs)))
        chosen_privacy = PrivacyParameters(
            max_raw_per_edgelet=candidate.max_raw,
            separated_pairs=separated,
        )
        chosen_resiliency = ResiliencyParameters(
            fault_rate=self.substrate.planning_fault_rate(),
            target_success=resiliency.target_success,
            strategy=candidate.strategy,
            backup_replicas=candidate.backup_replicas,
        )
        return chosen_privacy, chosen_resiliency

    # -- optimization --------------------------------------------------------

    def optimize(
        self,
        spec: QuerySpec,
        privacy: PrivacyParameters | None = None,
        resiliency: ResiliencyParameters | None = None,
    ) -> OptimizationResult:
        """Pick the cheapest feasible candidate for ``spec``.

        Raises :class:`~repro.core.planner.PlanningError` when no
        candidate is feasible.
        """
        privacy = privacy or PrivacyParameters()
        resiliency = resiliency or ResiliencyParameters()
        properties = properties_for(spec.kind)
        advice = recommend_strategy(
            properties,
            n=max(1, -(-spec.snapshot_cardinality // privacy.max_raw_per_edgelet)),
            fault_rate=self.substrate.planning_fault_rate(),
            target_success=resiliency.target_success,
        )

        scored: list[tuple[CandidateCost, PhysicalCandidate,
                           PrivacyParameters, ResiliencyParameters]] = []
        verdicts: dict[str, CandidateReport] = {}
        for candidate in self.candidates(spec, privacy):
            report = self._evaluate(
                candidate, spec, privacy, resiliency, advice, properties
            )
            verdicts[candidate.key] = report
            if report.feasible and report.cost is not None:
                chosen_privacy, chosen_resiliency = self._parameters_for(
                    candidate, spec, privacy, resiliency
                )
                scored.append(
                    (report.cost, candidate, chosen_privacy, chosen_resiliency)
                )

        if not scored:
            reasons = "; ".join(
                f"{report.key}: {report.reason}"
                for report in verdicts.values()
            )
            raise PlanningError(
                f"no feasible physical candidate for {spec.query_id} "
                f"over {self.substrate.name} ({reasons})"
            )

        best_cost, best, best_privacy, best_resiliency = min(
            scored, key=lambda entry: (entry[0].total, entry[1].key)
        )
        reports = []
        for key in sorted(verdicts):
            report = verdicts[key]
            if key == best.key:
                runner_up = min(
                    (entry[0].total for entry in scored
                     if entry[1].key != key),
                    default=None,
                )
                margin = (
                    f"; beats runner-up by {runner_up - best_cost.total:,.0f}"
                    if runner_up is not None
                    else ""
                )
                report = CandidateReport(
                    key=report.key, strategy=report.strategy,
                    max_raw=report.max_raw,
                    backup_replicas=report.backup_replicas,
                    vertical=report.vertical, feasible=True, chosen=True,
                    reason=f"lowest total cost {best_cost.total:,.0f}{margin}",
                    cost=report.cost, advisor_reasons=advice.reasons,
                )
            reports.append(report)
        return OptimizationResult(
            candidate=best,
            privacy=best_privacy,
            resiliency=best_resiliency,
            cost=best_cost,
            reports=tuple(reports),
        )

    def _evaluate(
        self,
        candidate: PhysicalCandidate,
        spec: QuerySpec,
        privacy: PrivacyParameters,
        resiliency: ResiliencyParameters,
        advice,
        properties,
    ) -> CandidateReport:
        """Build and score one candidate, recording infeasibility."""
        base = dict(
            key=candidate.key, strategy=candidate.strategy,
            max_raw=candidate.max_raw,
            backup_replicas=candidate.backup_replicas,
            vertical=candidate.vertical, chosen=False,
        )
        # hard advisor constraint: a non-distributive operator cannot be
        # overcollected (no partial-state merge exists)
        if candidate.strategy == "overcollection" and not properties.distributive:
            return CandidateReport(
                **base, feasible=False,
                reason="advisor: processing is not distributive",
            )
        try:
            chosen_privacy, chosen_resiliency = self._parameters_for(
                candidate, spec, privacy, resiliency
            )
            planner = EdgeletPlanner(
                privacy=chosen_privacy, resiliency=chosen_resiliency
            )
            qep = planner.plan(
                spec, n_contributors=self.substrate.n_contributors
            )
        except (PlanningError, ValueError) as error:
            return CandidateReport(
                **base, feasible=False, reason=str(error),
            )
        cost = score_plan(
            qep, self.substrate, self.weights,
            extra_latency=worst_case_delay(qep.replicas),
        )
        disagreement = (
            "" if advice.strategy == candidate.strategy
            else f" (advisor prefers {advice.strategy})"
        )
        return CandidateReport(
            **base, feasible=True,
            reason=f"total {cost.total:,.0f}{disagreement}",
            cost=cost, advisor_reasons=advice.reasons,
        )
