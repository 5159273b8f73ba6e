"""Centralized reference engine.

The demonstration lets attendees "take the same dataset used with the
distributed edgelets and run the processing centrally" to verify the
Validity property.  :class:`CentralizedEngine` is that oracle: it holds
named relations and evaluates the same logical queries in one process,
with no partitioning and no failures.
"""

from __future__ import annotations

from repro.query.groupby import (
    GroupByQuery,
    GroupingSetsResult,
    evaluate_group_by,
    finalize_partials,
)
from repro.query.relation import Relation
from repro.query.sql import parse_query

__all__ = ["CentralizedEngine"]


class CentralizedEngine:
    """In-process evaluation of the supported query dialect."""

    def __init__(self) -> None:
        self._tables: dict[str, Relation] = {}

    def register(self, name: str, relation: Relation) -> None:
        """Register (or replace) a named table."""
        self._tables[name] = relation

    def table(self, name: str) -> Relation:
        """Look up a registered table."""
        try:
            return self._tables[name]
        except KeyError:
            known = ", ".join(sorted(self._tables)) or "<none>"
            raise KeyError(f"unknown table {name!r}; known: {known}") from None

    def tables(self) -> list[str]:
        """Registered table names (sorted)."""
        return sorted(self._tables)

    def execute_logical(self, table: str, query: GroupByQuery) -> GroupingSetsResult:
        """Evaluate a logical :class:`GroupByQuery` against a table."""
        relation = self.table(table)
        partial = evaluate_group_by(query, iter(relation))
        return finalize_partials(query, partial)

    def execute_sql(self, sql: str) -> GroupingSetsResult:
        """Parse and evaluate a SQL string."""
        parsed = parse_query(sql)
        return self.execute_logical(parsed.table, parsed.query)
