"""Schema declarations for the shared horizontal database.

Every edgelet's datastore conforms to a common :class:`Schema`; queries
are planned against it.  Schemas also carry the privacy annotations the
planner needs: which columns are quasi-identifiers and which are
sensitive, so vertical partitioning can separate dangerous combinations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable

from repro.errors import ReproError

__all__ = ["ColumnType", "Column", "Schema", "SchemaError"]


class SchemaError(ReproError):
    """Raised when a row or query does not fit the schema."""


class ColumnType(enum.Enum):
    """Supported column types."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    BOOL = "bool"

    def validates(self, value: Any) -> bool:
        """Whether a Python value is acceptable for this type."""
        if value is None:
            return True  # columns are nullable
        if self is ColumnType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is ColumnType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is ColumnType.TEXT:
            return isinstance(value, str)
        return isinstance(value, bool)


#: one value of each type a row's cells hold
_TYPE_SAMPLES = (None, 0, 0.0, "", False)


@dataclass(frozen=True)
class Column:
    """One schema column with privacy annotations.

    Attributes:
        name: column name.
        ctype: value type.
        quasi_identifier: ``True`` for columns that, combined, can
            re-identify an individual (age, zipcode, ...).  The vertical
            partitioner never co-locates two quasi-identifiers that the
            scenario asks to separate.
        sensitive: ``True`` for columns whose values are themselves
            sensitive (diagnosis, dependency level, ...).
    """

    name: str
    ctype: ColumnType
    quasi_identifier: bool = False
    sensitive: bool = False

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation."""
        return {
            "name": self.name,
            "ctype": self.ctype.value,
            "quasi_identifier": self.quasi_identifier,
            "sensitive": self.sensitive,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Column":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=data["name"],
            ctype=ColumnType(data["ctype"]),
            quasi_identifier=data.get("quasi_identifier", False),
            sensitive=data.get("sensitive", False),
        )


@dataclass(frozen=True)
class Schema:
    """An ordered set of columns."""

    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(names) != len(set(names)):
            raise SchemaError("duplicate column names in schema")

    @classmethod
    def of(cls, *columns: Column) -> "Schema":
        """Convenience constructor."""
        return cls(tuple(columns))

    @property
    def column_names(self) -> list[str]:
        """Names in declaration order."""
        return [column.name for column in self.columns]

    @cached_property
    def _by_name(self) -> dict[str, Column]:
        # derived from ``columns`` on first lookup; not a field, so
        # equality, hashing and ``to_dict`` never see it
        return {column.name: column for column in self.columns}

    @cached_property
    def _accepted_types(self) -> tuple[frozenset[type], ...]:
        # per column, the exact value types ``validates`` accepts: it
        # judges by type alone, so one sample per type decides it, and
        # a valid row costs one set lookup per column
        return tuple(
            frozenset(
                type(sample) for sample in _TYPE_SAMPLES
                if column.ctype.validates(sample)
            )
            for column in self.columns
        )

    def __getstate__(self) -> dict[str, Any]:
        # pickle the field only, whatever lookups have cached
        return {"columns": self.columns}

    def column(self, name: str) -> Column:
        """Look up a column by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no column named {name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def quasi_identifiers(self) -> list[str]:
        """Names of all quasi-identifier columns."""
        return [c.name for c in self.columns if c.quasi_identifier]

    def sensitive_columns(self) -> list[str]:
        """Names of all sensitive columns."""
        return [c.name for c in self.columns if c.sensitive]

    def validate_row(self, row: dict[str, Any]) -> None:
        """Raise :class:`SchemaError` if the row violates the schema.

        Extra keys are rejected; missing keys are treated as NULL.
        """
        by_name = self._by_name
        for key in row:
            if key not in by_name:
                raise SchemaError(f"row has unknown column {key!r}")
        for column, accepted in zip(self.columns, self._accepted_types):
            value = row.get(column.name)
            if type(value) not in accepted and not column.ctype.validates(value):
                raise SchemaError(
                    f"column {column.name!r} expects {column.ctype.value}, "
                    f"got {type(value).__name__}"
                )

    def conform(self, row: dict[str, Any]) -> dict[str, Any]:
        """Validate and normalize a row to all schema columns."""
        self.validate_row(row)
        return {column.name: row.get(column.name) for column in self.columns}

    def project(self, names: Iterable[str]) -> "Schema":
        """Sub-schema restricted to ``names`` (order of ``names``)."""
        return Schema(tuple(self.column(name) for name in names))

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation."""
        return {"columns": [column.to_dict() for column in self.columns]}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Schema":
        """Inverse of :meth:`to_dict`."""
        return cls(tuple(Column.from_dict(c) for c in data["columns"]))
