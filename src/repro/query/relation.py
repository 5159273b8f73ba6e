"""In-memory relations (bags of rows) with partitioning operators.

A :class:`Relation` is the unit the Edgelet operators manipulate: the
snapshot a Snapshot Builder assembles, the partition a Computer
processes.  Besides the classic select/project it provides the two
partitionings at the heart of the paper's privacy story:

* :meth:`Relation.partition_by_hash` — horizontal partitioning (rows
  split by a hash of a key, Figure 2/3);
* :meth:`Relation.split_columns` — vertical partitioning (column groups
  separated so quasi-identifier combinations never co-reside).
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.query.schema import Schema, SchemaError

__all__ = ["Relation"]

Row = dict[str, Any]


def _stable_hash(value: Any, salt: str = "") -> int:
    """Deterministic, platform-independent hash for partitioning."""
    payload = f"{salt}|{value!r}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


class Relation:
    """A schema-checked bag of rows."""

    def __init__(self, schema: Schema, rows: Iterable[Row] = ()):
        self.schema = schema
        self._rows: list[Row] = [schema.conform(row) for row in rows]

    @classmethod
    def of_valid(cls, schema: Schema, rows: Iterable[Row]) -> "Relation":
        """A relation over rows that already passed ``schema.validate_row``:
        normalised to every schema column as :meth:`Schema.conform` does,
        without checking them again."""
        relation = cls(schema)
        names = schema.column_names
        relation._rows = [{name: row.get(name) for name in names} for row in rows]
        return relation

    # -- dunder -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.schema == other.schema and sorted(
            map(_row_key, self._rows)
        ) == sorted(map(_row_key, other._rows))

    def __repr__(self) -> str:
        return f"Relation({len(self._rows)} rows, columns={self.schema.column_names})"

    # -- basic operators -----------------------------------------------------

    @property
    def rows(self) -> list[Row]:
        """A defensive copy of all rows."""
        return [dict(row) for row in self._rows]

    def append(self, row: Row) -> None:
        """Add a row (validated against the schema)."""
        self._rows.append(self.schema.conform(row))

    def extend(self, rows: Iterable[Row]) -> None:
        """Add many rows."""
        for row in rows:
            self.append(row)

    def select(self, predicate: Callable[[Row], bool]) -> "Relation":
        """Rows satisfying ``predicate``."""
        return Relation(self.schema, (row for row in self._rows if predicate(row)))

    def project(self, columns: Sequence[str]) -> "Relation":
        """Projection onto ``columns`` (duplicates kept: bag semantics)."""
        sub_schema = self.schema.project(columns)
        return Relation(
            sub_schema,
            ({name: row.get(name) for name in columns} for row in self._rows),
        )

    def union(self, other: "Relation") -> "Relation":
        """Bag union with an identically-typed relation."""
        if other.schema != self.schema:
            raise SchemaError("cannot union relations with different schemas")
        return Relation(self.schema, self._rows + other._rows)

    def sample(self, count: int, seed: int = 0) -> "Relation":
        """Deterministic pseudo-random sample without replacement."""
        if count >= len(self._rows):
            return Relation(self.schema, self._rows)
        indexed = sorted(
            range(len(self._rows)),
            key=lambda i: _stable_hash(i, salt=f"sample-{seed}"),
        )
        chosen = sorted(indexed[:count])
        return Relation(self.schema, (self._rows[i] for i in chosen))

    def column_values(self, name: str) -> list[Any]:
        """All values of one column (including ``None``)."""
        self.schema.column(name)
        return [row.get(name) for row in self._rows]

    def join(self, other: "Relation", on: Sequence[str]) -> "Relation":
        """Inner equi-join on the ``on`` columns (hash join).

        Matching follows Python equality; rows with a ``None`` key
        value never join (SQL NULL semantics).  Output order is this
        relation's row order, matches in ``other``'s row order; the
        joined schema is this relation's columns followed by the
        other's non-key, non-duplicate columns.
        """
        on = list(on)
        if not on:
            raise SchemaError("join requires at least one key column")
        for name in on:
            self.schema.column(name)
            other.schema.column(name)
        own_names = set(self.schema.column_names)
        extra = [
            column
            for column in other.schema.columns
            if column.name not in on and column.name not in own_names
        ]
        joined_schema = Schema(tuple(self.schema.columns) + tuple(extra))
        extra_names = [column.name for column in extra]
        table: dict[tuple, list[Row]] = {}
        for row in other._rows:
            key = tuple(row.get(name) for name in on)
            if any(value is None for value in key):
                continue
            table.setdefault(key, []).append(row)
        joined: list[Row] = []
        for row in self._rows:
            key = tuple(row.get(name) for name in on)
            if any(value is None for value in key):
                continue
            for match in table.get(key, ()):
                merged = dict(row)
                for name in extra_names:
                    merged[name] = match.get(name)
                joined.append(merged)
        return Relation(joined_schema, joined)

    # -- partitionings ---------------------------------------------------------

    def partition_by_hash(
        self, n_partitions: int, key: Callable[[Row], Any] | str | None = None,
        salt: str = "",
    ) -> list["Relation"]:
        """Horizontal partitioning into ``n_partitions`` hash buckets.

        ``key`` may be a column name, a callable, or ``None`` (hash the
        whole row).  With a well-mixing hash every bucket is a
        *representative* sample of the relation, which is the property
        Overcollection validity relies on.
        """
        if n_partitions <= 0:
            raise ValueError("n_partitions must be positive")
        if isinstance(key, str):
            column = key
            key_fn: Callable[[Row], Any] = lambda row: row.get(column)
        elif key is None:
            key_fn = lambda row: tuple(sorted(row.items()))
        else:
            key_fn = key
        buckets: list[list[Row]] = [[] for _ in range(n_partitions)]
        for row in self._rows:
            index = _stable_hash(key_fn(row), salt=salt) % n_partitions
            buckets[index].append(row)
        return [Relation(self.schema, bucket) for bucket in buckets]

    def partition_round_robin(self, n_partitions: int) -> list["Relation"]:
        """Horizontal partitioning with perfectly balanced cardinalities."""
        if n_partitions <= 0:
            raise ValueError("n_partitions must be positive")
        buckets: list[list[Row]] = [[] for _ in range(n_partitions)]
        for i, row in enumerate(self._rows):
            buckets[i % n_partitions].append(row)
        return [Relation(self.schema, bucket) for bucket in buckets]

    def split_columns(self, groups: Sequence[Sequence[str]]) -> list["Relation"]:
        """Vertical partitioning into disjoint column groups.

        Every column group becomes its own relation; no row identifier
        links them (the paper's counter-measure against quasi-identifier
        co-exposure — re-linking is exactly what we refuse to enable).
        """
        seen: set[str] = set()
        for group in groups:
            for name in group:
                if name in seen:
                    raise SchemaError(
                        f"column {name!r} appears in more than one group"
                    )
                seen.add(name)
        return [self.project(list(group)) for group in groups]


def _row_key(row: Row) -> tuple:
    """Canonical sort key for bag comparison."""
    return tuple(sorted((k, repr(v)) for k, v in row.items()))
