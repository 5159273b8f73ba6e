"""GROUP BY and GROUPING SETS evaluation over partial aggregate states.

The first demonstration query is a *Grouping Sets* query: several
GROUP BY clauses evaluated in one pass over the same snapshot.  Like the
plain aggregates, grouped aggregation is distributive: each Computer
produces a map ``(grouping set, group key) -> partial states`` over its
partition, and the Combiner merges those maps.

A :class:`GroupByQuery` bundles everything a Computer needs (filter,
grouping sets, aggregate specs) and serializes to JSON for plan
shipping.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.query.aggregates import (
    AggregateSpec,
    AggregateState,
    finalize_state,
    fold_value,
    merge_states,
    new_state,
)
from repro.query.expressions import Expression, expression_from_dict

__all__ = [
    "GroupByQuery",
    "GroupingSetsResult",
    "PartialGroups",
    "evaluate_group_by",
    "merge_partials",
    "finalize_partials",
]

Row = dict[str, Any]

# JSON object keys must be strings; group keys are tuples of values, so
# we encode them canonically.

#: Value types whose equal values always encode to the same group key.
#: Floats are left out (``0.0 == -0.0`` encode differently), and so is
#: ``bool`` (``True == 1`` encode differently).
_MEMO_TYPES = frozenset((str, int, type(None)))

#: ``json.dumps(..., separators=(",", ":"))``, without building a new
#: encoder on every call
_KEY_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _encode_group_key(values: tuple[Any, ...]) -> str:
    return _KEY_ENCODER.encode(list(values))


def _decode_group_key(key: str) -> tuple[Any, ...]:
    return tuple(json.loads(key))


@dataclass(frozen=True)
class GroupByQuery:
    """A grouped aggregation query.

    Attributes:
        grouping_sets: each inner tuple is one grouping set (a tuple of
            column names); the classic single GROUP BY is a single set;
            ``()`` is the grand-total set.
        aggregates: the aggregate specs of the SELECT list.
        where: optional filter predicate applied before grouping.
        having: optional predicate over *result* rows (grouping columns
            and aggregate output names); applied after finalization —
            at the Computing Combiner in a distributed execution, so
            partial states stay distributive.
    """

    grouping_sets: tuple[tuple[str, ...], ...]
    aggregates: tuple[AggregateSpec, ...]
    where: Expression | None = None
    having: Expression | None = None

    def __post_init__(self) -> None:
        if not self.grouping_sets:
            raise ValueError("at least one grouping set is required")
        if not self.aggregates:
            raise ValueError("at least one aggregate is required")

    @classmethod
    def single(
        cls,
        group_by: Iterable[str],
        aggregates: Iterable[AggregateSpec],
        where: Expression | None = None,
    ) -> "GroupByQuery":
        """Build a plain single-GROUP-BY query."""
        return cls((tuple(group_by),), tuple(aggregates), where)

    def input_columns(self) -> list[str]:
        """Every column the query reads (grouping + aggregated + filter)."""
        needed: set[str] = set()
        for grouping_set in self.grouping_sets:
            needed.update(grouping_set)
        for spec in self.aggregates:
            if spec.column is not None:
                needed.add(spec.column)
        if self.where is not None:
            needed.update(self.where.columns())
        return sorted(needed)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation."""
        return {
            "grouping_sets": [list(gs) for gs in self.grouping_sets],
            "aggregates": [spec.to_dict() for spec in self.aggregates],
            "where": self.where.to_dict() if self.where is not None else None,
            "having": self.having.to_dict() if self.having is not None else None,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "GroupByQuery":
        """Inverse of :meth:`to_dict`."""
        where = data.get("where")
        having = data.get("having")
        return cls(
            grouping_sets=tuple(tuple(gs) for gs in data["grouping_sets"]),
            aggregates=tuple(AggregateSpec.from_dict(a) for a in data["aggregates"]),
            where=expression_from_dict(where) if where is not None else None,
            having=expression_from_dict(having) if having is not None else None,
        )


@dataclass
class PartialGroups:
    """Partial grouped states produced by one Computer.

    ``groups[set_index][group_key][agg_index]`` is an
    :class:`AggregateState`.  Serializes to JSON for transport.
    """

    n_sets: int
    n_aggs: int
    groups: list[dict[str, list[AggregateState]]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.groups:
            self.groups = [{} for _ in range(self.n_sets)]

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation."""
        return {
            "n_sets": self.n_sets,
            "n_aggs": self.n_aggs,
            "groups": [
                {key: [s.to_dict() for s in states] for key, states in per_set.items()}
                for per_set in self.groups
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PartialGroups":
        """Inverse of :meth:`to_dict`."""
        groups = [
            {
                key: [AggregateState.from_dict(s) for s in states]
                for key, states in per_set.items()
            }
            for per_set in data["groups"]
        ]
        return cls(n_sets=data["n_sets"], n_aggs=data["n_aggs"], groups=groups)


@dataclass(frozen=True)
class GroupingSetsResult:
    """Final result: one row list per grouping set.

    Each row maps grouping columns to their values (absent columns of
    the set are omitted, SQL would show NULL) plus aggregate outputs.
    """

    query: GroupByQuery
    per_set_rows: tuple[tuple[Row, ...], ...]

    def rows_for(self, grouping_set: tuple[str, ...]) -> list[Row]:
        """Result rows of one grouping set."""
        for gs, rows in zip(self.query.grouping_sets, self.per_set_rows):
            if gs == grouping_set:
                return [dict(row) for row in rows]
        raise KeyError(f"grouping set {grouping_set!r} not in query")

    def all_rows(self) -> list[Row]:
        """Concatenation of every set's rows (grouping-sets semantics)."""
        result: list[Row] = []
        for rows in self.per_set_rows:
            result.extend(dict(row) for row in rows)
        return result

    def rows_sorted(
        self,
        grouping_set: tuple[str, ...],
        by: str,
        descending: bool = False,
        limit: int | None = None,
    ) -> list[Row]:
        """Presentation helper: one set's rows ordered by a column.

        ``None`` values sort last regardless of direction.
        """
        rows = self.rows_for(grouping_set)
        present = [row for row in rows if row.get(by) is not None]
        absent = [row for row in rows if row.get(by) is None]
        present.sort(key=lambda row: row[by], reverse=descending)
        ordered = present + absent
        if limit is not None:
            if limit < 0:
                raise ValueError("limit must be non-negative")
            ordered = ordered[:limit]
        return ordered

    def scaled_counts(self, factor: float) -> "GroupingSetsResult":
        """Scale count/sum outputs by ``factor``.

        Used when partitions were lost: surviving partitions form a
        representative sample, so extrapolating counts by
        ``(n + m) / received`` restores unbiased totals.
        """
        scaled_sets = []
        for rows in self.per_set_rows:
            scaled_rows = []
            for row in rows:
                scaled = dict(row)
                for spec in self.query.aggregates:
                    name = spec.output_name
                    if spec.function in ("count", "sum"):
                        if scaled.get(name) is not None:
                            scaled[name] = scaled[name] * factor
                    elif spec.function == "hist" and scaled.get(name) is not None:
                        scaled[name] = [count * factor for count in scaled[name]]
                scaled_rows.append(scaled)
            scaled_sets.append(tuple(scaled_rows))
        return GroupingSetsResult(self.query, tuple(scaled_sets))


def evaluate_group_by(query: GroupByQuery, rows: Iterable[Row]) -> PartialGroups:
    """Run the Computer side: filter rows, fold into partial states.

    Group keys are memoised for the call, by value tuple, but only for
    tuples of exact :data:`_MEMO_TYPES` values; any other tuple is
    encoded afresh for every row.
    """
    partial = PartialGroups(n_sets=len(query.grouping_sets), n_aggs=len(query.aggregates))
    where = query.where.evaluator if query.where is not None else None
    aggregates = query.aggregates
    per_set = list(zip(query.grouping_sets, partial.groups))
    keys: dict[tuple[Any, ...], str] = {}
    for row in rows:
        if where is not None and not where(row):
            continue
        for grouping_set, groups in per_set:
            values = tuple(map(row.get, grouping_set))
            if _MEMO_TYPES.issuperset(map(type, values)):
                key = keys.get(values)
                if key is None:
                    key = keys[values] = _encode_group_key(values)
            else:
                key = _encode_group_key(values)
            bucket = groups.get(key)
            if bucket is None:
                bucket = groups[key] = [new_state(spec) for spec in aggregates]
            for spec, state in zip(aggregates, bucket):
                fold_value(spec, state, row)
    return partial


def merge_partials(query: GroupByQuery, partials: Iterable[PartialGroups]) -> PartialGroups:
    """Run the Combiner side: merge partial group maps."""
    merged = PartialGroups(n_sets=len(query.grouping_sets), n_aggs=len(query.aggregates))
    for partial in partials:
        for set_index in range(merged.n_sets):
            for key, states in partial.groups[set_index].items():
                bucket = merged.groups[set_index].get(key)
                if bucket is None:
                    # a shallow copy: registers / buckets stay shared, as
                    # they were through to_dict / from_dict
                    merged.groups[set_index][key] = [s.copy() for s in states]
                else:
                    merged.groups[set_index][key] = [
                        merge_states([a, b]) for a, b in zip(bucket, states)
                    ]
    return merged


def finalize_partials(query: GroupByQuery, merged: PartialGroups) -> GroupingSetsResult:
    """Turn merged partial states into final result rows.

    The HAVING predicate (if any) is applied here, on the finalized
    rows — exactly what the Computing Combiner does in a distributed
    execution.
    """
    having = query.having.evaluator if query.having is not None else None
    per_set_rows: list[tuple[Row, ...]] = []
    for set_index, grouping_set in enumerate(query.grouping_sets):
        rows: list[Row] = []
        for key in sorted(merged.groups[set_index]):
            values = _decode_group_key(key)
            row: Row = dict(zip(grouping_set, values))
            states = merged.groups[set_index][key]
            for spec, state in zip(query.aggregates, states):
                row[spec.output_name] = finalize_state(spec, state)
            if having is None or having(row):
                rows.append(row)
        per_set_rows.append(tuple(rows))
    return GroupingSetsResult(query, tuple(per_set_rows))
