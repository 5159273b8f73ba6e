"""The logical plan IR.

A :class:`LogicalPlan` is a linear operator tree (every node has at
most one child — the dialect has no joins) describing *what* to compute
before any substrate decision is made:

* :class:`Scan` — read the shared distributed table; carries the
  columns to collect and the predicate pushed down onto contributor
  collection (both filled in by the rule passes);
* :class:`Filter` — a predicate not yet pushed down;
* :class:`Project` — restrict the columns flowing upward;
* :class:`Aggregate` — grouping-sets aggregation with optional HAVING;
* :class:`Cluster` — the distributed K-Means operator, optionally
  followed by a Group-By over the resulting clusters.

Schema propagation: every node exposes :func:`output_columns` (what it
produces) and :func:`required_columns` (what it needs from its child);
:meth:`LogicalPlan.validate` walks the tree and rejects references to
columns a child cannot supply.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Union

from repro.errors import ReproError
from repro.query.aggregates import AggregateSpec
from repro.query.expressions import Expression
from repro.query.groupby import GroupByQuery

__all__ = [
    "LogicalPlanError",
    "Scan",
    "Filter",
    "Project",
    "Aggregate",
    "Cluster",
    "LogicalNode",
    "LogicalPlan",
    "output_columns",
    "required_columns",
]


class LogicalPlanError(ReproError):
    """Raised when a logical plan is structurally invalid."""


@dataclass(frozen=True)
class Scan:
    """Leaf: read the shared distributed table.

    Attributes:
        table: logical table name (the demo's ``health``).
        columns: the columns contributors must ship, or ``None`` before
            column pruning has run (= every referenced column).
        predicate: filter evaluated *on the contributor device* before
            anything leaves its TEE — the target of predicate pushdown.
    """

    table: str
    columns: tuple[str, ...] | None = None
    predicate: Expression | None = None


@dataclass(frozen=True)
class Filter:
    """Predicate not (yet) pushed down to the scan."""

    child: "LogicalNode"
    predicate: Expression


@dataclass(frozen=True)
class Project:
    """Restrict the columns flowing upward."""

    child: "LogicalNode"
    columns: tuple[str, ...]


@dataclass(frozen=True)
class Aggregate:
    """Grouping-sets aggregation (the distributive workhorse)."""

    child: "LogicalNode"
    grouping_sets: tuple[tuple[str, ...], ...]
    aggregates: tuple[AggregateSpec, ...]
    having: Expression | None = None


@dataclass(frozen=True)
class Cluster:
    """Distributed K-Means over feature columns.

    ``post_group_by`` is the optional Group-By applied to the resulting
    clusters (the paper's "statistics over clusters" round).
    """

    child: "LogicalNode"
    k: int
    feature_columns: tuple[str, ...]
    heartbeats: int = 5
    post_group_by: GroupByQuery | None = None


LogicalNode = Union[Scan, Filter, Project, Aggregate, Cluster]


def _agg_alias(spec: AggregateSpec) -> str:
    if spec.alias:
        return spec.alias
    column = spec.column if spec.column is not None else "star"
    return f"{spec.function}_{column}"


def output_columns(node: LogicalNode) -> tuple[str, ...] | None:
    """Columns the node produces; ``None`` = unknown (unpruned scan)."""
    if isinstance(node, Scan):
        return node.columns
    if isinstance(node, Filter):
        return output_columns(node.child)
    if isinstance(node, Project):
        return node.columns
    if isinstance(node, Aggregate):
        grouped: list[str] = []
        for grouping_set in node.grouping_sets:
            for column in grouping_set:
                if column not in grouped:
                    grouped.append(column)
        return tuple(grouped) + tuple(_agg_alias(s) for s in node.aggregates)
    if isinstance(node, Cluster):
        produced = tuple(node.feature_columns) + ("cluster", "weight")
        if node.post_group_by is not None:
            grouped = []
            for grouping_set in node.post_group_by.grouping_sets:
                for column in grouping_set:
                    if column not in grouped:
                        grouped.append(column)
            produced = tuple(grouped) + tuple(
                _agg_alias(s) for s in node.post_group_by.aggregates
            )
        return produced
    raise LogicalPlanError(f"unknown logical node {node!r}")


def required_columns(node: LogicalNode) -> tuple[str, ...]:
    """Columns the node needs from its child (leaf nodes: from the
    contributors' datastores)."""
    if isinstance(node, Scan):
        needed: set[str] = set(node.columns or ())
        if node.predicate is not None:
            needed |= node.predicate.columns()
        return tuple(sorted(needed))
    if isinstance(node, Filter):
        return tuple(sorted(node.predicate.columns()))
    if isinstance(node, Project):
        return node.columns
    if isinstance(node, Aggregate):
        needed = set()
        for grouping_set in node.grouping_sets:
            needed.update(grouping_set)
        for spec in node.aggregates:
            if spec.column is not None:
                needed.add(spec.column)
        return tuple(sorted(needed))
    if isinstance(node, Cluster):
        needed = set(node.feature_columns)
        if node.post_group_by is not None:
            needed.update(node.post_group_by.input_columns())
        return tuple(sorted(needed))
    raise LogicalPlanError(f"unknown logical node {node!r}")


def _walk(node: LogicalNode) -> list[LogicalNode]:
    """Root-to-leaf node list."""
    nodes = [node]
    child = getattr(node, "child", None)
    while child is not None:
        nodes.append(child)
        child = getattr(child, "child", None)
    return nodes


@dataclass(frozen=True)
class LogicalPlan:
    """One declarative query as an operator tree, plus presentation.

    ``order_by`` / ``limit`` are querier-side presentation directives
    (they never influence the distributed execution, exactly like
    :class:`repro.query.sql.ParsedQuery`).
    """

    root: LogicalNode
    order_by: tuple[tuple[str, bool], ...] = ()
    limit: int | None = None
    rule_trace: tuple[Any, ...] = field(default=(), compare=False)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_sql(cls, sql: str) -> "LogicalPlan":
        """Front end #1: the existing SQL dialect."""
        from repro.query.sql import parse_query

        return cls.from_parsed(parse_query(sql))

    @classmethod
    def from_parsed(cls, parsed: Any) -> "LogicalPlan":
        """Lift a :class:`~repro.query.sql.ParsedQuery` into the IR."""
        return cls.from_group_by(
            parsed.table,
            parsed.query,
            order_by=parsed.order_by,
            limit=parsed.limit,
        )

    @classmethod
    def from_group_by(
        cls,
        table: str,
        query: GroupByQuery,
        order_by: tuple[tuple[str, bool], ...] = (),
        limit: int | None = None,
    ) -> "LogicalPlan":
        """Lift a logical Group-By into the IR (WHERE becomes a
        :class:`Filter` node for the rule passes to push down)."""
        node: LogicalNode = Scan(table=table)
        if query.where is not None:
            node = Filter(child=node, predicate=query.where)
        node = Aggregate(
            child=node,
            grouping_sets=query.grouping_sets,
            aggregates=query.aggregates,
            having=query.having,
        )
        return cls(root=node, order_by=order_by, limit=limit)

    # -- structure -----------------------------------------------------------

    def nodes(self) -> list[LogicalNode]:
        """Root-to-leaf node list."""
        return _walk(self.root)

    @property
    def scan(self) -> Scan:
        leaf = self.nodes()[-1]
        if not isinstance(leaf, Scan):
            raise LogicalPlanError("logical plan must bottom out in a Scan")
        return leaf

    @property
    def table(self) -> str:
        return self.scan.table

    @property
    def kind(self) -> str:
        """``"kmeans"`` if a Cluster node is present, else ``"aggregate"``."""
        for node in self.nodes():
            if isinstance(node, Cluster):
                return "kmeans"
        return "aggregate"

    def validate(self) -> None:
        """Schema propagation check: every node's requirements must be
        satisfiable by its child's (known) output columns."""
        nodes = self.nodes()
        if not isinstance(nodes[-1], Scan):
            raise LogicalPlanError("logical plan must bottom out in a Scan")
        aggregating = [
            n for n in nodes if isinstance(n, (Aggregate, Cluster))
        ]
        if len(aggregating) > 1:
            raise LogicalPlanError(
                "at most one Aggregate/Cluster node per plan"
            )
        if aggregating and nodes[0] is not aggregating[0]:
            raise LogicalPlanError(
                "the Aggregate/Cluster node must be the plan root"
            )
        for node in nodes[:-1]:
            child = node.child  # type: ignore[union-attr]
            available = output_columns(child)
            if available is None:
                continue  # unpruned scan supplies everything
            missing = set(required_columns(node)) - set(available)
            if missing:
                raise LogicalPlanError(
                    f"{type(node).__name__} references columns its child "
                    f"cannot supply: {sorted(missing)}"
                )

    def with_root(self, root: LogicalNode) -> "LogicalPlan":
        return replace(self, root=root)

    # -- lowering ------------------------------------------------------------

    def collected_columns(self) -> tuple[str, ...]:
        """Columns the Snapshot Builders must collect (post-pruning the
        scan's columns; pre-pruning everything referenced)."""
        scan = self.scan
        if scan.columns is not None:
            return tuple(scan.columns)
        needed: set[str] = set()
        for node in self.nodes():
            needed.update(required_columns(node))
        return tuple(sorted(needed))

    def collection_predicate(self) -> Expression | None:
        """The contributor-side predicate (pushed-down WHERE)."""
        predicates = [
            node.predicate
            for node in self.nodes()
            if isinstance(node, Filter)
        ]
        scan = self.scan
        if scan.predicate is not None:
            predicates.append(scan.predicate)
        if not predicates:
            return None
        if len(predicates) == 1:
            return predicates[0]
        from repro.query.expressions import AndExpr

        return AndExpr(tuple(predicates))

    def to_group_by(self) -> GroupByQuery:
        """Lower an aggregate plan back to the executable Group-By."""
        aggregate = next(
            (n for n in self.nodes() if isinstance(n, Aggregate)), None
        )
        if aggregate is None:
            cluster = next(
                (n for n in self.nodes() if isinstance(n, Cluster)), None
            )
            if cluster is not None and cluster.post_group_by is not None:
                return cluster.post_group_by
            raise LogicalPlanError(
                "plan has no Aggregate node to lower to a GroupByQuery"
            )
        return GroupByQuery(
            grouping_sets=aggregate.grouping_sets,
            aggregates=aggregate.aggregates,
            where=self.collection_predicate(),
            having=aggregate.having,
        )

    def cluster_node(self) -> Cluster | None:
        for node in self.nodes():
            if isinstance(node, Cluster):
                return node
        return None

    # -- display -------------------------------------------------------------

    def describe(self) -> str:
        """Indented one-node-per-line tree rendering."""
        lines = []
        for depth, node in enumerate(self.nodes()):
            pad = "  " * depth
            if isinstance(node, Scan):
                columns = (
                    ", ".join(node.columns) if node.columns is not None else "*"
                )
                pred = (
                    f" predicate={node.predicate.to_dict()}"
                    if node.predicate is not None
                    else ""
                )
                lines.append(f"{pad}Scan[{node.table}]({columns}){pred}")
            elif isinstance(node, Filter):
                lines.append(f"{pad}Filter({node.predicate.to_dict()})")
            elif isinstance(node, Project):
                lines.append(f"{pad}Project({', '.join(node.columns)})")
            elif isinstance(node, Aggregate):
                sets = ", ".join(
                    "(" + ", ".join(gs) + ")" for gs in node.grouping_sets
                )
                aggs = ", ".join(
                    f"{s.function}({s.column or '*'})" for s in node.aggregates
                )
                having = " having" if node.having is not None else ""
                lines.append(f"{pad}Aggregate[{sets}]({aggs}){having}")
            elif isinstance(node, Cluster):
                lines.append(
                    f"{pad}Cluster[k={node.k}]"
                    f"({', '.join(node.feature_columns)})"
                )
        return "\n".join(lines)
