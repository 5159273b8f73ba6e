"""Tests (incl. property-based) for relations and partitionings."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.relation import Relation
from repro.query.schema import Column, ColumnType, Schema, SchemaError

SCHEMA = Schema.of(
    Column("id", ColumnType.INT),
    Column("region", ColumnType.TEXT),
    Column("value", ColumnType.FLOAT),
)


def _rows(count: int):
    regions = ["idf", "paca", "bretagne"]
    return [
        {"id": i, "region": regions[i % 3], "value": float(i)} for i in range(count)
    ]


rows_strategy = st.integers(min_value=0, max_value=120).map(_rows)


class TestBasics:
    def test_len_and_iter(self):
        relation = Relation(SCHEMA, _rows(5))
        assert len(relation) == 5
        assert sum(1 for _ in relation) == 5

    def test_schema_enforced(self):
        with pytest.raises(SchemaError):
            Relation(SCHEMA, [{"id": "not-an-int"}])

    def test_of_valid_normalises_like_conform(self):
        rows = _rows(4) + [{"region": "idf"}, {"value": 2.5, "id": 9}]
        trusted = Relation.of_valid(SCHEMA, rows)
        assert trusted.rows == Relation(SCHEMA, rows).rows
        assert all(list(row) == SCHEMA.column_names for row in trusted)
        rows[0]["id"] = 99
        assert trusted.rows[0]["id"] == 0

    def test_append_extend(self):
        relation = Relation(SCHEMA)
        relation.append({"id": 1, "region": "idf", "value": 1.0})
        relation.extend(_rows(2))
        assert len(relation) == 3

    def test_select(self):
        relation = Relation(SCHEMA, _rows(10))
        idf = relation.select(lambda row: row["region"] == "idf")
        assert all(row["region"] == "idf" for row in idf)
        assert len(idf) == 4

    def test_project(self):
        relation = Relation(SCHEMA, _rows(3))
        projected = relation.project(["region"])
        assert projected.schema.column_names == ["region"]
        assert all(set(row) == {"region"} for row in projected)

    def test_union(self):
        a = Relation(SCHEMA, _rows(2))
        b = Relation(SCHEMA, _rows(3))
        assert len(a.union(b)) == 5

    def test_union_schema_mismatch(self):
        other = Schema.of(Column("x", ColumnType.INT))
        with pytest.raises(SchemaError):
            Relation(SCHEMA).union(Relation(other))

    def test_equality_is_bag_equality(self):
        a = Relation(SCHEMA, _rows(4))
        b = Relation(SCHEMA, list(reversed(_rows(4))))
        assert a == b

    def test_rows_defensive_copy(self):
        relation = Relation(SCHEMA, _rows(1))
        relation.rows[0]["id"] = 999
        assert relation.rows[0]["id"] == 0

    def test_column_values(self):
        relation = Relation(SCHEMA, _rows(3))
        assert relation.column_values("id") == [0, 1, 2]
        with pytest.raises(SchemaError):
            relation.column_values("missing")

    def test_sample_deterministic_and_bounded(self):
        relation = Relation(SCHEMA, _rows(50))
        sample_a = relation.sample(10, seed=4)
        sample_b = relation.sample(10, seed=4)
        assert sample_a == sample_b
        assert len(sample_a) == 10
        assert len(relation.sample(100)) == 50


class TestHorizontalPartitioning:
    def test_hash_partition_covers_all_rows(self):
        relation = Relation(SCHEMA, _rows(60))
        parts = relation.partition_by_hash(5, key="id")
        assert sum(len(p) for p in parts) == 60

    def test_hash_partition_disjoint(self):
        relation = Relation(SCHEMA, _rows(60))
        parts = relation.partition_by_hash(4, key="id")
        ids = [row["id"] for part in parts for row in part]
        assert sorted(ids) == list(range(60))

    def test_hash_partition_deterministic(self):
        relation = Relation(SCHEMA, _rows(30))
        a = relation.partition_by_hash(3, key="id")
        b = relation.partition_by_hash(3, key="id")
        assert all(x == y for x, y in zip(a, b))

    def test_salt_changes_assignment(self):
        relation = Relation(SCHEMA, _rows(64))
        a = relation.partition_by_hash(4, key="id", salt="query-1")
        b = relation.partition_by_hash(4, key="id", salt="query-2")
        assert any(x != y for x, y in zip(a, b))

    def test_partition_balance_is_reasonable(self):
        relation = Relation(SCHEMA, _rows(1000))
        parts = relation.partition_by_hash(4, key="id")
        sizes = [len(p) for p in parts]
        assert min(sizes) > 150  # expectation 250 each

    def test_round_robin_exact_balance(self):
        relation = Relation(SCHEMA, _rows(10))
        parts = relation.partition_round_robin(3)
        assert sorted(len(p) for p in parts) == [3, 3, 4]

    def test_invalid_partition_count(self):
        relation = Relation(SCHEMA, _rows(3))
        with pytest.raises(ValueError):
            relation.partition_by_hash(0)
        with pytest.raises(ValueError):
            relation.partition_round_robin(-1)

    @given(rows_strategy, st.integers(min_value=1, max_value=8))
    @settings(max_examples=30, deadline=None)
    def test_partition_is_a_partition_property(self, rows, n):
        relation = Relation(SCHEMA, rows)
        parts = relation.partition_by_hash(n, key="id")
        assert len(parts) == n
        collected = sorted(row["id"] for part in parts for row in part)
        assert collected == sorted(row["id"] for row in rows)


class TestVerticalPartitioning:
    def test_split_columns(self):
        relation = Relation(SCHEMA, _rows(5))
        left, right = relation.split_columns([["id", "region"], ["value"]])
        assert left.schema.column_names == ["id", "region"]
        assert right.schema.column_names == ["value"]
        assert len(left) == len(right) == 5

    def test_overlapping_groups_rejected(self):
        relation = Relation(SCHEMA, _rows(2))
        with pytest.raises(SchemaError):
            relation.split_columns([["id", "region"], ["region"]])

    def test_split_keeps_no_linkage(self):
        relation = Relation(SCHEMA, _rows(3))
        (values,) = relation.split_columns([["value"]])
        assert all(set(row) == {"value"} for row in values)


class TestJoin:
    RIGHT = Schema.of(
        Column("id", ColumnType.INT),
        Column("label", ColumnType.TEXT),
    )

    def test_inner_join_keeps_left_order_and_appends_extra_columns(self):
        left = Relation(SCHEMA, _rows(4))
        right = Relation(
            self.RIGHT,
            [
                {"id": 2, "label": "b"},
                {"id": 0, "label": "a"},
                {"id": 2, "label": "c"},
                {"id": 9, "label": "z"},
            ],
        )
        joined = left.join(right, on=["id"])
        assert joined.schema.column_names == ["id", "region", "value", "label"]
        assert [(row["id"], row["label"]) for row in joined] == [
            (0, "a"), (2, "b"), (2, "c"),
        ]

    def test_none_keys_never_join(self):
        left = Relation(SCHEMA, [{"id": None, "region": "idf", "value": 1.0}])
        right = Relation(self.RIGHT, [{"id": None, "label": "u"}])
        assert len(left.join(right, on=["id"])) == 0

    def test_join_needs_a_key(self):
        relation = Relation(SCHEMA, _rows(1))
        with pytest.raises(SchemaError):
            relation.join(relation, on=[])
