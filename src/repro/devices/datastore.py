"""The owner's local personal datastore.

On a DomYcile home box this is the µ-SD card holding the medical record;
on a phone or PC it is the owner's personal database.  Rows are plain
dictionaries conforming to the scenario's common schema (Edgelet
computing treats the swarm as a horizontally partitioned shared
database).  Data at rest is sealed by the device's TEE.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.errors import ReproError

__all__ = ["LocalDatastore", "DatastoreFullError"]

Row = dict[str, Any]


class DatastoreFullError(ReproError):
    """Raised when inserting beyond the device's storage capacity."""


class LocalDatastore:
    """A capacity-bounded row store with predicate selection.

    The store is intentionally simple — personal datastores hold one
    owner's records, typically a handful to a few thousand rows.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._rows: list[Row] = []

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    @property
    def capacity(self) -> int:
        """Maximum number of rows this device can hold."""
        return self._capacity

    def insert(self, row: Row) -> None:
        """Insert one row; raises :class:`DatastoreFullError` if full."""
        if len(self._rows) >= self._capacity:
            raise DatastoreFullError(
                f"datastore is full ({self._capacity} rows)"
            )
        self._rows.append(dict(row))

    def insert_many(self, rows: Iterable[Row]) -> int:
        """Insert rows until done or full; returns how many were stored."""
        inserted = 0
        for row in rows:
            if len(self._rows) >= self._capacity:
                break
            self._rows.append(dict(row))
            inserted += 1
        return inserted

    def select(
        self,
        predicate: Callable[[Row], bool] | None = None,
        columns: list[str] | None = None,
    ) -> list[Row]:
        """Return matching rows, optionally projected to ``columns``.

        Missing columns are projected as ``None`` so that heterogeneous
        owner records still conform to the common schema.  One pass:
        each row is tested, then copied or projected, as it is read.
        """
        matched = self._rows if predicate is None else filter(predicate, self._rows)
        if columns is None:
            return [dict(row) for row in matched]
        return [{column: row.get(column) for column in columns} for row in matched]

    def clear(self) -> None:
        """Delete all rows (owner wipes the device)."""
        self._rows.clear()
