"""Privacy- and resiliency-aware construction of Edgelet QEPs.

This is the machinery behind Part 1 of the demonstration: attendees pick
a query, adjust the privacy knobs (maximum raw data per edgelet,
attribute pairs to separate) and the failure probability, and watch the
QEP change shape — more horizontal partitions, more vertical column
groups, a larger overcollection degree.

Inputs:

* :class:`QuerySpec` — what to compute (a grouping-sets aggregate query
  or a K-Means clustering, over a target snapshot of cardinality ``C``);
* :class:`PrivacyParameters` — ``max_raw_per_edgelet`` drives the
  horizontal partitioning degree ``n``; ``separated_pairs`` drives the
  vertical column groups;
* :class:`ResiliencyParameters` — the fault presumption rate and target
  success probability drive the overcollection degree ``m``; a plan
  with passive replicas (the Backup strategy) has ``m = 0``.

Output: a validated :class:`~repro.core.qep.QueryExecutionPlan` shaped
like Figure 3 of the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.core.assignment import contributor_builder
from repro.core.overcollection import OvercollectionConfig
from repro.core.qep import OperatorRole, QueryExecutionPlan
from repro.core.resiliency import minimum_overcollection, strategy_name
from repro.query.groupby import GroupByQuery

__all__ = [
    "PlanningError",
    "QuerySpec",
    "PrivacyParameters",
    "ResiliencyParameters",
    "EdgeletPlanner",
]


class PlanningError(Exception):
    """Raised when no plan can satisfy the requested parameters."""


@dataclass(frozen=True)
class QuerySpec:
    """What the Querier wants computed.

    Attributes:
        query_id: unique identifier of the query execution.
        kind: ``"aggregate"`` (grouping-sets SQL) or ``"kmeans"``.
        group_by: the logical query (for ``aggregate``; for ``kmeans``
            an optional Group-By applied to the resulting clusters).
        snapshot_cardinality: target representative snapshot size ``C``.
        kmeans_k: number of clusters (``kmeans`` only).
        feature_columns: numeric columns clustered (``kmeans`` only).
        heartbeats: heartbeat count before the deadline (``kmeans``).
        placement_key: the identifier hashed into the secure routing
            and assignment digests; defaults to ``query_id``.  A
            standing query passes one key for every window so that —
            with an unchanged candidate pool — each contributor keeps
            its Snapshot Builder and each operator its device across
            windows (*sticky placement*, the substrate of incremental
            partition maintenance).  Still nothing an adversary can
            steer: the key is fixed before any window's candidate keys
            are known.
    """

    query_id: str
    kind: str
    snapshot_cardinality: int
    group_by: GroupByQuery | None = None
    kmeans_k: int = 3
    feature_columns: tuple[str, ...] = ()
    heartbeats: int = 5
    placement_key: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("aggregate", "kmeans"):
            raise ValueError(f"unknown query kind {self.kind!r}")
        if self.snapshot_cardinality <= 0:
            raise ValueError("snapshot_cardinality must be positive")
        if self.kind == "aggregate" and self.group_by is None:
            raise ValueError("aggregate queries need a group_by")
        if self.placement_key is not None and not self.placement_key:
            raise ValueError("placement_key must be non-empty when given")
        if self.kind == "kmeans":
            if not self.feature_columns:
                raise ValueError("kmeans queries need feature_columns")
            if self.kmeans_k <= 0:
                raise ValueError("kmeans_k must be positive")
            if self.heartbeats <= 0:
                raise ValueError("heartbeats must be positive")

    @property
    def effective_placement_key(self) -> str:
        """The key the routing/assignment digests hash."""
        return self.placement_key or self.query_id

    def collected_columns(self) -> list[str]:
        """Columns the Snapshot Builders must collect."""
        columns: set[str] = set()
        if self.group_by is not None:
            columns.update(self.group_by.input_columns())
        columns.update(self.feature_columns)
        return sorted(columns)


@dataclass(frozen=True)
class PrivacyParameters:
    """Privacy knobs of Part 1.

    Attributes:
        max_raw_per_edgelet: maximum number of raw tuples one Data
            Processor may hold — horizontal partitioning degree is
            ``n = ceil(C / max_raw_per_edgelet)``.
        separated_pairs: attribute pairs that must never co-reside in a
            single TEE (quasi-identifier separation).
    """

    max_raw_per_edgelet: int = 10_000
    separated_pairs: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.max_raw_per_edgelet <= 0:
            raise ValueError("max_raw_per_edgelet must be positive")
        for a, b in self.separated_pairs:
            if a == b:
                raise ValueError(f"cannot separate column {a!r} from itself")


@dataclass(frozen=True)
class ResiliencyParameters:
    """Resiliency knobs of Part 1.

    Attributes:
        fault_rate: presumed probability that one partition is lost.
        target_success: required probability that the query completes
            validly before its deadline.
        replicas: passive replica ranks per Data Processor operator.
            ``0`` plans Overcollection's ``m`` spare partitions instead
            (:func:`~repro.core.resiliency.replicas_for` spells a
            strategy name as this count).
    """

    fault_rate: float = 0.05
    target_success: float = 0.99
    replicas: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.fault_rate < 1:
            raise ValueError("fault_rate must be in [0, 1)")
        if not 0 < self.target_success < 1:
            raise ValueError("target_success must be in (0, 1)")
        if self.replicas < 0:
            raise ValueError("replicas must be non-negative")


def greedy_coloring(
    nodes: list[str], edges: set[tuple[str, str]]
) -> dict[str, int]:
    """Colour ``nodes`` so no edge joins two nodes of one colour.

    networkx's ``greedy_color(strategy="largest_first")`` rule: visit
    the nodes by degree, descending, ties in ``nodes`` order; each takes
    the smallest colour none of its neighbours holds.
    """
    neighbours: dict[str, set[str]] = {node: set() for node in nodes}
    for a, b in edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    coloring: dict[str, int] = {}
    for node in sorted(nodes, key=lambda n: len(neighbours[n]), reverse=True):
        taken = {coloring[n] for n in neighbours[node] if n in coloring}
        coloring[node] = next(c for c in range(len(taken) + 1) if c not in taken)
    return coloring


class EdgeletPlanner:
    """Builds Figure-3-shaped plans from the three parameter blocks."""

    def __init__(
        self,
        privacy: PrivacyParameters | None = None,
        resiliency: ResiliencyParameters | None = None,
    ):
        self.privacy = privacy or PrivacyParameters()
        self.resiliency = resiliency or ResiliencyParameters()

    # -- public API ----------------------------------------------------------

    def plan(
        self, spec: QuerySpec, contributor_ids: list[str] | None = None,
        n_contributors: int = 0,
    ) -> QueryExecutionPlan:
        """Build and validate the QEP for ``spec``.

        ``contributor_ids`` names the contributing edgelets; when absent
        ``n_contributors`` placeholder leaves are generated (useful for
        plan-shape experiments without a device swarm).
        """
        contributors = self._contributor_ids(contributor_ids, n_contributors)
        n = self.horizontal_degree(spec)
        column_groups = self.vertical_groups(spec)
        replicas = self.resiliency.replicas
        m = 0 if replicas else minimum_overcollection(
            n, self.resiliency.fault_rate, self.resiliency.target_success
        )
        config = OvercollectionConfig(
            n=n, m=m, snapshot_cardinality=spec.snapshot_cardinality
        )
        plan = self._build_plan(spec, contributors, config, column_groups, replicas)
        plan.validate()
        return plan

    def horizontal_degree(self, spec: QuerySpec) -> int:
        """``n = ceil(C / max_raw_per_edgelet)``."""
        return max(1, math.ceil(spec.snapshot_cardinality / self.privacy.max_raw_per_edgelet))

    def vertical_groups(self, spec: QuerySpec) -> list[tuple[str, ...]]:
        """Partition the query's columns into co-residable groups.

        Grouping columns must accompany every aggregate, so a separation
        constraint touching a grouping column (or, for K-Means, any two
        feature columns) is unsatisfiable and raises
        :class:`PlanningError` with an explanation.

        Aggregate columns are split by greedy coloring of the conflict
        graph induced by ``separated_pairs``; columns without conflicts
        share group 0.
        """
        separated = {tuple(sorted(pair)) for pair in self.privacy.separated_pairs}
        if spec.kind == "kmeans":
            # the Computer needs the full feature vector, plus whatever
            # the optional Group-By-on-clusters round aggregates
            needed = set(spec.feature_columns)
            if spec.group_by is not None:
                needed.update(spec.group_by.input_columns())
            for a, b in separated:
                if a in needed and b in needed:
                    raise PlanningError(
                        f"cannot separate {a!r} from {b!r}: the K-Means "
                        "Computer needs both columns together"
                    )
            return [tuple(sorted(needed))]

        query = spec.group_by
        grouping_columns: set[str] = set()
        for grouping_set in query.grouping_sets:
            grouping_columns.update(grouping_set)
        aggregate_columns = sorted(
            {s.column for s in query.aggregates if s.column is not None}
        )
        for a, b in separated:
            if a in grouping_columns and b in grouping_columns:
                raise PlanningError(
                    f"cannot separate grouping columns {a!r} and {b!r}: both "
                    "must accompany every aggregate"
                )
            if (a in grouping_columns) != (b in grouping_columns):
                grouped = a if a in grouping_columns else b
                other = b if grouped == a else a
                if other in aggregate_columns or other in grouping_columns:
                    raise PlanningError(
                        f"cannot separate grouping column {grouped!r} from "
                        f"{other!r}: grouping columns reach every Computer"
                    )

        columns = set(aggregate_columns)
        coloring = greedy_coloring(
            aggregate_columns, {pair for pair in separated if set(pair) <= columns}
        )
        n_colors = max(coloring.values(), default=0) + 1 if coloring else 1
        groups: list[set[str]] = [set() for _ in range(max(1, n_colors))]
        for column, color in sorted(coloring.items()):
            groups[color].add(column)
        ordered_grouping = tuple(sorted(grouping_columns))
        return [
            tuple(sorted(group | set(ordered_grouping)))
            for group in groups
            if group or len(groups) == 1
        ] or [ordered_grouping]

    # -- plan builders -----------------------------------------------------------

    def _contributor_ids(
        self, contributor_ids: list[str] | None, n_contributors: int
    ) -> list[str]:
        if contributor_ids:
            return list(contributor_ids)
        if n_contributors <= 0:
            raise PlanningError(
                "provide contributor_ids or a positive n_contributors"
            )
        return [f"contributor-{i:05d}" for i in range(n_contributors)]

    def _aggregates_for_group(
        self, query: GroupByQuery, group: tuple[str, ...], g: int
    ) -> list[int]:
        """Indices of the query aggregates computable from group ``g``.

        ``count(*)`` aggregates belong to the first group only (counting
        once is enough).
        """
        return [
            index
            for index, spec in enumerate(query.aggregates)
            if (g == 0 if spec.column is None else spec.column in group)
        ]

    def _build_plan(
        self,
        spec: QuerySpec,
        contributors: list[str],
        config: OvercollectionConfig,
        column_groups: list[tuple[str, ...]],
        replicas: int,
    ) -> QueryExecutionPlan:
        """One plan shape for both strategies: ``n + m`` partitions, each
        Data Processor operator at ``replicas + 1`` ranks.

        Overcollection is ``replicas = 0``; Backup is ``m = 0``.  A
        rank-``r`` replica (op id suffix ``.b{r}``) carries its primary's
        parameters plus a ``backup_rank``, receives every contribution
        the primary receives, and reads from every builder rank of its
        partition.
        """
        strategy: dict[str, Any] = {"strategy": strategy_name(replicas)}
        if replicas:
            strategy["backup_replicas"] = replicas
        plan = QueryExecutionPlan(
            query_id=spec.query_id,
            metadata={
                "kind": spec.kind,
                **strategy,
                "overcollection": config.to_dict(),
                "column_groups": [list(group) for group in column_groups],
                "collected_columns": spec.collected_columns(),
                "fault_rate": self.resiliency.fault_rate,
                "target_success": self.resiliency.target_success,
                "heartbeats": spec.heartbeats if spec.kind == "kmeans" else None,
                "kmeans_k": spec.kmeans_k if spec.kind == "kmeans" else None,
                "group_by": spec.group_by.to_dict() if spec.group_by else None,
                "feature_columns": list(spec.feature_columns),
                "placement_key": spec.effective_placement_key,
            },
        )
        partitions = range(config.total_partitions)
        suffixes = ["" if rank == 0 else f".b{rank}" for rank in range(replicas + 1)]

        def rank_params(rank: int) -> dict[str, Any]:
            return {"backup_rank": rank} if replicas else {}

        for i in partitions:
            for rank, suffix in enumerate(suffixes):
                # an overcollection builder records its cap, a replica its rank
                extra = rank_params(rank) if replicas else {
                    "partition_cardinality": config.partition_cardinality
                }
                plan.new_operator(
                    OperatorRole.SNAPSHOT_BUILDER,
                    params={"partition_index": i, **extra},
                    op_id=f"builder[{i}]{suffix}",
                )
        builder_ids = [f"builder[{i}]" for i in partitions]
        for contributor in contributors:
            leaf = plan.new_operator(
                OperatorRole.DATA_CONTRIBUTOR,
                params={"device": contributor},
                op_id=f"contrib[{contributor}]",
            )
            target = contributor_builder(
                contributor, builder_ids, spec.effective_placement_key
            )
            for suffix in suffixes:
                plan.connect(leaf, target + suffix)

        combiner = plan.new_operator(OperatorRole.COMPUTING_COMBINER, op_id="combiner")
        mirror = plan.new_operator(
            OperatorRole.ACTIVE_BACKUP,
            params={"mirrors": combiner.op_id},
            op_id="combiner-backup",
        )
        querier = plan.new_operator(OperatorRole.QUERIER, op_id="querier")

        for i in partitions:
            for g, group in enumerate(column_groups):
                for rank, suffix in enumerate(suffixes):
                    params: dict[str, Any] = {
                        "partition_index": i,
                        "group_index": g,
                        "column_group": list(group),
                        **rank_params(rank),
                    }
                    if spec.kind == "aggregate":
                        params["aggregate_indices"] = self._aggregates_for_group(
                            spec.group_by, group, g
                        )
                    else:
                        params["kmeans_k"] = spec.kmeans_k
                    computer = plan.new_operator(
                        OperatorRole.COMPUTER, params=params,
                        op_id=f"computer[{i},g{g}]{suffix}",
                    )
                    for builder_suffix in suffixes:
                        plan.connect(f"builder[{i}]{builder_suffix}", computer)
                    plan.connect(computer, combiner)
                    plan.connect(computer, mirror)
        plan.connect(combiner, querier)
        plan.connect(mirror, querier)
        return plan
