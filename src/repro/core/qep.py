"""Query Execution Plans: the directed operator graph of Figure 2/3.

A :class:`QueryExecutionPlan` is a DAG whose vertices are operators
(Data Contributor, Snapshot Builder, Computer, Computing Combiner,
Active Backup, Querier) and whose edges carry the dataflow.  The plan is
the artifact the demonstration's Part 1 lets attendees inspect: how
horizontal/vertical partitioning and the overcollection degree reshape
it.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError

__all__ = [
    "OperatorRole", "Operator", "QueryExecutionPlan", "PlanStructureError", "rank_of",
]


class PlanStructureError(ReproError):
    """Raised when a plan violates structural invariants."""


class OperatorRole(enum.Enum):
    """The operator vocabulary of Edgelet QEPs."""

    DATA_CONTRIBUTOR = "data_contributor"
    SNAPSHOT_BUILDER = "snapshot_builder"
    COMPUTER = "computer"
    COMPUTING_COMBINER = "computing_combiner"
    ACTIVE_BACKUP = "active_backup"
    QUERIER = "querier"

    @property
    def is_data_processor(self) -> bool:
        """Whether edgelets running this role process others' data."""
        return self in (
            OperatorRole.SNAPSHOT_BUILDER,
            OperatorRole.COMPUTER,
            OperatorRole.COMPUTING_COMBINER,
            OperatorRole.ACTIVE_BACKUP,
        )


@dataclass
class Operator:
    """One QEP vertex.

    Attributes:
        op_id: unique name inside the plan (e.g. ``computer[2,g0]``).
        role: the operator vocabulary entry.
        params: role-specific parameters — for a Computer, its
            horizontal ``partition_index`` and vertical ``column_group``;
            for a Snapshot Builder, the partition it builds; etc.
        assigned_to: device identifier once assignment has run.
    """

    op_id: str
    role: OperatorRole
    params: dict[str, Any] = field(default_factory=dict)
    assigned_to: str | None = None

    def describe(self) -> str:
        """Human-readable one-liner for traces."""
        target = f" @{self.assigned_to}" if self.assigned_to else ""
        return f"{self.op_id}<{self.role.value}>{target}"


def rank_of(operator: Operator) -> int:
    """An operator's replica rank: 0 for a primary, ``r`` for ``….b{r}``."""
    return operator.params.get("backup_rank", 0)


class QueryExecutionPlan:
    """The operator DAG plus plan-level metadata.

    Metadata of interest to the experiments: the query id, the
    overcollection parameters ``(n, m)``, the vertical column groups,
    and the snapshot cardinality ``C``.
    """

    def __init__(self, query_id: str, metadata: dict[str, Any] | None = None):
        self.query_id = query_id
        self.metadata: dict[str, Any] = dict(metadata or {})
        self._operators: dict[str, Operator] = {}
        self._succ: dict[str, dict[str, None]] = {}
        self._pred: dict[str, dict[str, None]] = {}
        self._by_role: dict[OperatorRole, list[Operator]] = {}
        self._counter = itertools.count(1)

    # -- construction ---------------------------------------------------------

    def add_operator(self, operator: Operator) -> Operator:
        """Add a vertex; op_ids must be unique."""
        if operator.op_id in self._operators:
            raise PlanStructureError(f"duplicate operator id {operator.op_id!r}")
        self._operators[operator.op_id] = operator
        self._succ[operator.op_id] = {}
        self._pred[operator.op_id] = {}
        self._by_role.setdefault(operator.role, []).append(operator)
        return operator

    def new_operator(
        self, role: OperatorRole, params: dict[str, Any] | None = None, op_id: str | None = None
    ) -> Operator:
        """Create, name, and add an operator in one step."""
        if op_id is None:
            op_id = f"{role.value}#{next(self._counter)}"
        operator = Operator(op_id=op_id, role=role, params=dict(params or {}))
        return self.add_operator(operator)

    def connect(self, producer: Operator | str, consumer: Operator | str) -> None:
        """Add a dataflow edge producer → consumer.

        An edge that would close a cycle is refused and the plan is left
        unchanged.  Every edge enters through here, so the graph was
        acyclic before the call; the new edge can therefore close a cycle
        only through itself — when the producer is the consumer, or is
        already downstream of it.  That is all that is checked: a walk
        from the consumer towards the querier, not the whole plan.
        """
        producer_id = producer.op_id if isinstance(producer, Operator) else producer
        consumer_id = consumer.op_id if isinstance(consumer, Operator) else consumer
        for op_id in (producer_id, consumer_id):
            if op_id not in self._operators:
                raise PlanStructureError(f"unknown operator {op_id!r}")
        if producer_id in self._closure(consumer_id, self._succ):
            raise PlanStructureError(
                f"edge {producer_id} -> {consumer_id} would create a cycle"
            )
        self._succ[producer_id][consumer_id] = None
        self._pred[consumer_id][producer_id] = None

    @staticmethod
    def _closure(start: str, adjacency: dict[str, dict[str, None]]) -> set[str]:
        """``start`` and every operator reachable from it along ``adjacency``."""
        seen = {start}
        stack = [start]
        while stack:
            for neighbour in adjacency[stack.pop()]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return seen

    # -- queries ----------------------------------------------------------------

    def operator(self, op_id: str) -> Operator:
        """Look up an operator by id."""
        try:
            return self._operators[op_id]
        except KeyError:
            raise PlanStructureError(f"unknown operator {op_id!r}") from None

    def operators(self, role: OperatorRole | None = None) -> list[Operator]:
        """All operators, optionally restricted to one role (sorted)."""
        found = self._operators.values() if role is None else self._by_role.get(role, ())
        return sorted(found, key=lambda op: op.op_id)

    def producers_of(self, op_id: str) -> list[Operator]:
        """Upstream operators feeding ``op_id`` (sorted)."""
        self.operator(op_id)
        return [self._operators[p] for p in sorted(self._pred[op_id])]

    def consumers_of(self, op_id: str) -> list[Operator]:
        """Downstream operators fed by ``op_id`` (sorted)."""
        self.operator(op_id)
        return [self._operators[c] for c in sorted(self._succ[op_id])]

    def edges(self) -> list[tuple[str, str]]:
        """All dataflow edges (sorted)."""
        return sorted((p, c) for p, consumers in self._succ.items() for c in consumers)

    def __len__(self) -> int:
        return len(self._operators)

    @property
    def replicas(self) -> int:
        """Replica ranks behind each Data Processor primary (the planner
        writes ``backup_replicas`` only on Backup plans)."""
        return int(self.metadata.get("backup_replicas", 0))

    # -- structural metrics (Figure 2/3 observables) -----------------------------

    def role_counts(self) -> dict[str, int]:
        """Operator count per role (keys are role values)."""
        counts: dict[str, int] = {}
        for operator in self.operators():
            counts[operator.role.value] = counts.get(operator.role.value, 0) + 1
        return counts

    def fan_in(self, op_id: str) -> int:
        """Number of producers of an operator."""
        self.operator(op_id)
        return len(self._pred[op_id])

    def fan_out(self, op_id: str) -> int:
        """Number of consumers of an operator."""
        self.operator(op_id)
        return len(self._succ[op_id])

    def depth(self) -> int:
        """Length (in edges) of the longest dataflow path (Kahn's order)."""
        waiting = {op_id: len(producers) for op_id, producers in self._pred.items()}
        longest = dict.fromkeys(self._operators, 0)
        ready = [op_id for op_id, count in waiting.items() if count == 0]
        for op_id in ready:
            for consumer in self._succ[op_id]:
                longest[consumer] = max(longest[consumer], longest[op_id] + 1)
                waiting[consumer] -= 1
                if waiting[consumer] == 0:
                    ready.append(consumer)
        return max(longest.values(), default=0)

    def assigned_devices(self) -> dict[str, str]:
        """Map op_id -> device for every assigned operator."""
        return {
            op.op_id: op.assigned_to
            for op in self.operators()
            if op.assigned_to is not None
        }

    def validate(self) -> None:
        """Check the structural invariants of an Edgelet QEP.

        * exactly one Querier, with no consumers;
        * at least one Data Contributor, each with no producers;
        * every non-Querier operator reaches the Querier;
        * Active Backups mirror a Computing Combiner's inputs.
        """
        queriers = self.operators(OperatorRole.QUERIER)
        if len(queriers) != 1:
            raise PlanStructureError(f"expected exactly 1 querier, found {len(queriers)}")
        querier = queriers[0]
        if self.fan_out(querier.op_id) != 0:
            raise PlanStructureError("the querier must be a sink")
        contributors = self.operators(OperatorRole.DATA_CONTRIBUTOR)
        if not contributors:
            raise PlanStructureError("a plan needs at least one data contributor")
        for contributor in contributors:
            if self.fan_in(contributor.op_id) != 0:
                raise PlanStructureError(
                    f"data contributor {contributor.op_id} must be a source"
                )
        reachable = self._closure(querier.op_id, self._pred)
        for operator in self.operators():
            if operator.op_id not in reachable:
                raise PlanStructureError(
                    f"operator {operator.op_id} cannot reach the querier"
                )
        for backup in self.operators(OperatorRole.ACTIVE_BACKUP):
            mirrored = backup.params.get("mirrors")
            if mirrored is None:
                raise PlanStructureError(
                    f"active backup {backup.op_id} lacks a 'mirrors' parameter"
                )
            combiner_inputs = {op.op_id for op in self.producers_of(mirrored)}
            backup_inputs = {op.op_id for op in self.producers_of(backup.op_id)}
            if combiner_inputs != backup_inputs:
                raise PlanStructureError(
                    f"active backup {backup.op_id} does not mirror the inputs "
                    f"of {mirrored}"
                )

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation (for traces and the web UI)."""
        return {
            "query_id": self.query_id,
            "metadata": dict(self.metadata),
            "operators": [
                {
                    "op_id": op.op_id,
                    "role": op.role.value,
                    "params": dict(op.params),
                    "assigned_to": op.assigned_to,
                }
                for op in self.operators()
            ],
            "edges": [list(edge) for edge in self.edges()],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QueryExecutionPlan":
        """Inverse of :meth:`to_dict`."""
        plan = cls(query_id=data["query_id"], metadata=data.get("metadata"))
        for op_data in data["operators"]:
            operator = Operator(
                op_id=op_data["op_id"],
                role=OperatorRole(op_data["role"]),
                params=dict(op_data["params"]),
                assigned_to=op_data.get("assigned_to"),
            )
            plan.add_operator(operator)
        for producer_id, consumer_id in data["edges"]:
            plan.connect(producer_id, consumer_id)
        return plan
