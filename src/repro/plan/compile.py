"""``compile_query`` — the single entry point from query to QEP.

Every execution path (CLI, scenario, workload, continuous, chaos) goes
through this function.  It lifts any front-end form into the logical
IR, runs the rewrite rules, and resolves the physical parameters in
one of two modes:

* ``OPTIMIZER_PINNED`` — honour the caller's privacy/resiliency
  parameters verbatim (the legacy behaviour; with a fixed seed the
  resulting execution is byte-identical to pre-pipeline hand
  assembly).  This is the optimizer's one-candidate case: given a
  substrate, the caller's candidate is scored by
  :meth:`~repro.plan.optimizer.PhysicalOptimizer.evaluate`;
* ``OPTIMIZER_COST`` — hand the query to the
  :class:`~repro.plan.optimizer.PhysicalOptimizer`, which enumerates
  candidates over a :class:`~repro.plan.substrate.SubstrateProfile`
  and picks the cheapest feasible one.

Either way the result is a :class:`CompiledQuery` carrying the
:class:`~repro.core.planner.QuerySpec`, the resolved parameter blocks,
and the :class:`~repro.plan.explain.ExplainReport` audit trail.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.core.advisor import NO_GOSSIP_HISTORY
from repro.core.planner import (
    EdgeletPlanner,
    PlanningError,
    PrivacyParameters,
    QuerySpec,
    ResiliencyParameters,
)
from repro.core.qep import QueryExecutionPlan
from repro.query.groupby import GroupByQuery
from repro.query.sql import ParsedQuery
from repro.plan.builder import QueryBuilder
from repro.plan.cost import CostWeights
from repro.plan.explain import CandidateReport, ExplainReport
from repro.plan.logical import Cluster, LogicalPlan, LogicalPlanError, Scan
from repro.plan.optimizer import PhysicalCandidate, PhysicalOptimizer
from repro.plan.rules import apply_rules
from repro.plan.substrate import SubstrateProfile

__all__ = [
    "OPTIMIZER_PINNED",
    "OPTIMIZER_COST",
    "CompiledQuery",
    "compile_query",
]

OPTIMIZER_PINNED = "pinned"
OPTIMIZER_COST = "cost"


@dataclass(frozen=True)
class CompiledQuery:
    """The compile pipeline's output: everything an execution needs.

    Attributes:
        spec: the resolved :class:`~repro.core.planner.QuerySpec`.
        privacy: the privacy parameters the physical plan honours.
        resiliency: the resiliency parameters (fault rate, target
            success, replica count) the physical plan honours.
        logical: the rewritten logical plan (``None`` when compiled
            straight from a :class:`QuerySpec` without a query body).
        explain: the optimizer's audit trail.
        order_by: querier-side presentation ordering.
        limit: querier-side presentation row limit.
    """

    spec: QuerySpec
    privacy: PrivacyParameters
    resiliency: ResiliencyParameters
    logical: LogicalPlan | None
    explain: ExplainReport
    order_by: tuple[tuple[str, bool], ...] = ()
    limit: int | None = None

    def build_qep(
        self,
        contributor_ids: list[str] | None = None,
        n_contributors: int = 0,
    ) -> QueryExecutionPlan:
        """Materialize the physical plan over concrete contributors."""
        planner = EdgeletPlanner(
            privacy=self.privacy, resiliency=self.resiliency
        )
        return planner.plan(
            self.spec,
            contributor_ids=contributor_ids,
            n_contributors=n_contributors,
        )

    def present(self, rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """Apply ORDER BY / LIMIT to finalized result rows."""
        ordered = list(rows)
        for name, descending in reversed(self.order_by):
            present = [row for row in ordered if row.get(name) is not None]
            absent = [row for row in ordered if row.get(name) is None]
            present.sort(key=lambda row: row[name], reverse=descending)
            ordered = present + absent
        if self.limit is not None:
            ordered = ordered[: self.limit]
        return ordered


def _lift_logical(source: Any, table: str) -> LogicalPlan:
    if isinstance(source, LogicalPlan):
        return source
    if isinstance(source, QueryBuilder):
        return source.build()
    if isinstance(source, str):
        return LogicalPlan.from_sql(source)
    if isinstance(source, ParsedQuery):
        return LogicalPlan.from_parsed(source)
    if isinstance(source, GroupByQuery):
        return LogicalPlan.from_group_by(table, source)
    raise LogicalPlanError(
        f"cannot compile a {type(source).__name__}: expected SQL text, "
        "ParsedQuery, GroupByQuery, QueryBuilder, LogicalPlan, or QuerySpec"
    )


def _logical_for_spec(spec: QuerySpec) -> LogicalPlan | None:
    """Reconstruct a logical view of an already-built QuerySpec (for
    the explain report; the spec itself is used verbatim)."""
    if spec.kind == "kmeans":
        return LogicalPlan(
            root=Cluster(
                child=Scan(table="health"),
                k=spec.kmeans_k,
                feature_columns=spec.feature_columns,
                heartbeats=spec.heartbeats,
                post_group_by=spec.group_by,
            )
        )
    if spec.group_by is not None:
        return LogicalPlan.from_group_by("health", spec.group_by)
    return None


def compile_query(
    source: Any,
    *,
    query_id: str | None = None,
    snapshot_cardinality: int | None = None,
    privacy: PrivacyParameters | None = None,
    resiliency: ResiliencyParameters | None = None,
    optimizer: str = OPTIMIZER_PINNED,
    substrate: SubstrateProfile | None = None,
    weights: CostWeights | None = None,
    placement_key: str | None = None,
    table: str = "health",
) -> CompiledQuery:
    """Compile any query form into an executable :class:`CompiledQuery`.

    Args:
        source: SQL text, a :class:`~repro.query.sql.ParsedQuery`, a
            :class:`~repro.query.groupby.GroupByQuery`, a
            :class:`~repro.plan.builder.QueryBuilder`, a
            :class:`~repro.plan.logical.LogicalPlan`, or an existing
            :class:`~repro.core.planner.QuerySpec` (used verbatim).
        query_id: execution identifier (required unless ``source`` is a
            QuerySpec).
        snapshot_cardinality: target snapshot size ``C`` (required
            unless ``source`` is a QuerySpec).
        privacy / resiliency: the caller's parameter blocks — honoured
            verbatim in pinned mode, used as the enumeration baseline
            in cost mode.
        optimizer: :data:`OPTIMIZER_PINNED` or :data:`OPTIMIZER_COST`.
        substrate: required in cost mode; optional in pinned mode
            (enables advisory scoring of the pinned candidate).
        weights: cost-model weights (cost mode).
        placement_key: sticky-placement key forwarded to the spec.
        table: logical table name when ``source`` is a bare
            :class:`GroupByQuery`.
    """
    if optimizer not in (OPTIMIZER_PINNED, OPTIMIZER_COST):
        raise ValueError(f"unknown optimizer mode {optimizer!r}")
    privacy = privacy or PrivacyParameters()
    resiliency = resiliency or ResiliencyParameters()

    order_by: tuple[tuple[str, bool], ...] = ()
    limit: int | None = None

    if isinstance(source, QuerySpec):
        spec = source
        if query_id is not None and query_id != spec.query_id:
            raise ValueError(
                f"query_id {query_id!r} conflicts with the spec's "
                f"{spec.query_id!r}"
            )
        logical = _logical_for_spec(spec)
        traces: tuple = ()
    else:
        if query_id is None or snapshot_cardinality is None:
            raise ValueError(
                "query_id and snapshot_cardinality are required when "
                "compiling from a query body"
            )
        logical = _lift_logical(source, table)
        logical.validate()
        order_by = logical.order_by
        limit = logical.limit
        logical, traces = apply_rules(logical)
        if logical.kind == "kmeans":
            cluster = logical.cluster_node()
            spec = QuerySpec(
                query_id=query_id,
                kind="kmeans",
                snapshot_cardinality=snapshot_cardinality,
                group_by=cluster.post_group_by,
                kmeans_k=cluster.k,
                feature_columns=cluster.feature_columns,
                heartbeats=cluster.heartbeats,
                placement_key=placement_key,
            )
        else:
            spec = QuerySpec(
                query_id=query_id,
                kind="aggregate",
                snapshot_cardinality=snapshot_cardinality,
                group_by=logical.to_group_by(),
                placement_key=placement_key,
            )

    described = logical.describe() if logical is not None else "(no query body)"

    if optimizer == OPTIMIZER_COST:
        if substrate is None:
            raise ValueError("cost-based optimization needs a substrate profile")
        result = PhysicalOptimizer(substrate, weights=weights).optimize(
            spec, privacy=privacy, resiliency=resiliency
        )
        explain = ExplainReport(
            query_id=spec.query_id,
            mode=OPTIMIZER_COST,
            logical=described,
            rules=tuple(traces),
            candidates=result.reports,
            chosen_key=result.candidate.key,
            substrate=substrate.summary(),
        )
        return CompiledQuery(
            spec=spec,
            privacy=result.privacy,
            resiliency=result.resiliency,
            logical=logical,
            explain=explain,
            order_by=order_by,
            limit=limit,
        )

    if spec.kind == "kmeans" and resiliency.replicas:
        raise PlanningError(
            f"k-means cannot be planned with replicas: {NO_GOSSIP_HISTORY}"
        )
    # the optimizer's one-candidate case: the caller's own parameters,
    # scored (when a substrate is given) by the same evaluator
    candidate = PhysicalCandidate(
        privacy.max_raw_per_edgelet, resiliency.replicas, "packed"
    )
    report = CandidateReport(candidate, feasible=True, reason="unscored")
    if substrate is not None:
        report = PhysicalOptimizer(substrate, weights=weights).evaluate(
            candidate, spec, privacy, resiliency
        )
    pinned = replace(
        report, chosen=True,
        reason="pinned to caller-provided parameters (legacy defaults)",
    )
    explain = ExplainReport(
        query_id=spec.query_id,
        mode=OPTIMIZER_PINNED,
        logical=described,
        rules=tuple(traces),
        candidates=(pinned,),
        chosen_key=pinned.key,
        substrate=substrate.summary() if substrate is not None else None,
    )
    return CompiledQuery(
        spec=spec,
        privacy=privacy,
        resiliency=resiliency,
        logical=logical,
        explain=explain,
        order_by=order_by,
        limit=limit,
    )
