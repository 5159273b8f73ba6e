"""The cost-based physical optimizer.

Enumerates every physical realization of a logical query over one
substrate — horizontal partitioning degree (via the raw-data cap),
replica chain length (``0`` spells Overcollection, more spell Backup),
vertical column grouping — builds each candidate's QEP through the
existing :class:`~repro.core.planner.EdgeletPlanner`, scores it with
the unified cost model, notes where the strategy advisor disagrees,
and picks the cheapest feasible candidate.  Pinned compilation is the
one-candidate case: it scores the caller's parameters through the same
:meth:`PhysicalOptimizer.evaluate`.

Determinism: candidates are keyed by a canonical string, scored costs
are rounded, and the winner is ``min`` over ``(total, key)`` — the
choice is a pure function of (logical plan, substrate, weights),
invariant to enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

from repro.core.advisor import (
    StrategyRecommendation,
    properties_for,
    recommend_strategy,
)
from repro.core.planner import (
    EdgeletPlanner,
    PlanningError,
    PrivacyParameters,
    QuerySpec,
    ResiliencyParameters,
)
from repro.core.resiliency import strategy_name, worst_case_delay
from repro.plan.cost import CandidateCost, CostWeights, score_plan
from repro.plan.explain import CandidateReport
from repro.plan.substrate import SubstrateProfile

__all__ = ["PhysicalCandidate", "OptimizationResult", "PhysicalOptimizer"]

#: rank structures enumerated for aggregates: Overcollection, then
#: Backup chains of one and two replicas (k-means plans no replicas)
_REPLICA_CHOICES = (0, 1, 2)


@dataclass(frozen=True)
class PhysicalCandidate:
    """One point in the physical search space.

    Attributes:
        max_raw: raw-tuple cap per edgelet (drives partition degree n).
        replicas: passive replica ranks per Data Processor operator;
            ``0`` plans Overcollection's spare partitions instead.
        vertical: ``"packed"`` (only the caller's separation
            constraints) or ``"split"`` (additionally separate every
            aggregate-column pair, one column group per aggregate).
    """

    max_raw: int
    replicas: int
    vertical: str

    @property
    def key(self) -> str:
        return (
            f"{strategy_name(self.replicas)}/raw{self.max_raw}"
            f"/r{self.replicas}/{self.vertical}"
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
        replica_choices = _REPLICA_CHOICES if spec.kind == "aggregate" else (0,)
        points = [
            PhysicalCandidate(max_raw, replicas, vertical)
            for max_raw in raw_choices
            for vertical in verticals
            for replicas in replica_choices
        ]
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
            replicas=candidate.replicas,
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
        advice = recommend_strategy(
            properties_for(spec.kind),
            n=max(1, -(-spec.snapshot_cardinality // privacy.max_raw_per_edgelet)),
            fault_rate=self.substrate.planning_fault_rate(),
            target_success=resiliency.target_success,
        )

        scored: list[tuple[CandidateCost, PhysicalCandidate,
                           PrivacyParameters, ResiliencyParameters]] = []
        verdicts: dict[str, CandidateReport] = {}
        for candidate in self.candidates(spec, privacy):
            chosen_privacy, chosen_resiliency = self._parameters_for(
                candidate, spec, privacy, resiliency
            )
            report = self.evaluate(
                candidate, spec, chosen_privacy, chosen_resiliency, advice
            )
            verdicts[candidate.key] = report
            if report.feasible:
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
                report = replace(
                    report, chosen=True,
                    reason=f"lowest total cost {best_cost.total:,.0f}{margin}",
                )
            reports.append(report)
        return OptimizationResult(
            candidate=best,
            privacy=best_privacy,
            resiliency=best_resiliency,
            cost=best_cost,
            reports=tuple(reports),
        )

    def evaluate(
        self,
        candidate: PhysicalCandidate,
        spec: QuerySpec,
        privacy: PrivacyParameters,
        resiliency: ResiliencyParameters,
        advice: StrategyRecommendation | None = None,
    ) -> CandidateReport:
        """Build and score one candidate from the parameter blocks that
        realize it, recording infeasibility.

        Cost mode passes every enumerated point with the advisor's
        verdict; pinned mode passes its one candidate, the caller's own
        parameters, and no advice.
        """
        try:
            qep = EdgeletPlanner(privacy=privacy, resiliency=resiliency).plan(
                spec, n_contributors=self.substrate.n_contributors
            )
        except (PlanningError, ValueError) as error:
            return CandidateReport(candidate, feasible=False, reason=str(error))
        cost = score_plan(
            qep, self.substrate, self.weights,
            extra_latency=worst_case_delay(qep.replicas),
        )
        reason = f"total {cost.total:,.0f}"
        if advice is None:
            return CandidateReport(candidate, True, reason, cost=cost)
        if advice.strategy != strategy_name(candidate.replicas):
            reason += f" (advisor prefers {advice.strategy})"
        return CandidateReport(
            candidate, True, reason, cost=cost, advisor_reasons=advice.reasons
        )
