"""Tests for schema declarations and row validation."""

from __future__ import annotations

import pickle

import pytest

from repro.query.schema import Column, ColumnType, Schema, SchemaError


def _schema() -> Schema:
    return Schema.of(
        Column("age", ColumnType.INT, quasi_identifier=True),
        Column("name", ColumnType.TEXT),
        Column("bmi", ColumnType.FLOAT, sensitive=True),
        Column("active", ColumnType.BOOL),
    )


class TestColumnType:
    def test_int_excludes_bool(self):
        assert ColumnType.INT.validates(5)
        assert not ColumnType.INT.validates(True)
        assert not ColumnType.INT.validates(1.5)

    def test_float_accepts_int(self):
        assert ColumnType.FLOAT.validates(1)
        assert ColumnType.FLOAT.validates(1.5)
        assert not ColumnType.FLOAT.validates(True)

    def test_text(self):
        assert ColumnType.TEXT.validates("x")
        assert not ColumnType.TEXT.validates(1)

    def test_bool(self):
        assert ColumnType.BOOL.validates(False)
        assert not ColumnType.BOOL.validates(0)

    def test_null_always_valid(self):
        for ctype in ColumnType:
            assert ctype.validates(None)


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Schema.of(Column("a", ColumnType.INT), Column("a", ColumnType.TEXT))

    def test_column_lookup(self):
        schema = _schema()
        assert schema.column("age").ctype == ColumnType.INT
        with pytest.raises(SchemaError):
            schema.column("missing")

    def test_column_names_ordered(self):
        assert _schema().column_names == ["age", "name", "bmi", "active"]

    def test_validate_row_accepts_valid(self):
        _schema().validate_row({"age": 30, "name": "x", "bmi": 21.5, "active": True})

    def test_validate_row_rejects_unknown_column(self):
        with pytest.raises(SchemaError):
            _schema().validate_row({"height": 180})

    def test_validate_row_rejects_bad_type(self):
        with pytest.raises(SchemaError):
            _schema().validate_row({"age": "thirty"})

    def test_missing_columns_treated_as_null(self):
        _schema().validate_row({"age": 30})

    def test_conform_normalizes(self):
        row = _schema().conform({"age": 30})
        assert row == {"age": 30, "name": None, "bmi": None, "active": None}

    def test_project(self):
        projected = _schema().project(["bmi", "age"])
        assert projected.column_names == ["bmi", "age"]

    def test_serialization_round_trip(self):
        schema = _schema()
        assert Schema.from_dict(schema.to_dict()) == schema

    def test_error_messages_are_pinned(self):
        schema = _schema()
        with pytest.raises(SchemaError) as unknown:
            schema.validate_row({"age": 30, "height": 180})
        assert str(unknown.value) == "row has unknown column 'height'"
        with pytest.raises(SchemaError) as wrong_type:
            schema.validate_row({"age": "thirty"})
        assert str(wrong_type.value) == "column 'age' expects int, got str"
        with pytest.raises(SchemaError) as missing:
            schema.column("height")
        assert str(missing.value) == "no column named 'height'"

    def test_validate_row_agrees_with_column_types(self):
        class Count(int):
            pass

        class Label(str):
            pass

        values = [None, 0, -3, 2**70, True, False, 1.5, -0.0, float("nan"),
                  "", "x", Count(4), Label("y"), b"x", (1,), [1], {}]
        schema = _schema()
        for column in schema.columns:
            for value in values:
                accepted = column.ctype.validates(value)
                try:
                    schema.validate_row({column.name: value})
                except SchemaError:
                    assert not accepted, (column.name, value)
                else:
                    assert accepted, (column.name, value)

    def test_name_index_is_invisible(self):
        used, fresh = _schema(), _schema()
        used.validate_row({"age": 30})
        assert used.has_column("bmi") and not used.has_column("height")
        assert used.column("bmi") is used.columns[2]
        assert "_by_name" in vars(used) and "_by_name" not in vars(fresh)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert used.to_dict() == fresh.to_dict()
        assert Schema.from_dict(used.to_dict()) == fresh
        assert pickle.dumps(used) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(used))
        assert restored == fresh and restored.column("age").ctype is ColumnType.INT
