"""Tests for the centralized reference engine."""

from __future__ import annotations

import pytest

from repro.data.health import HEALTH_SCHEMA
from repro.query.engine import CentralizedEngine
from repro.query.relation import Relation


def _engine(health_rows) -> CentralizedEngine:
    engine = CentralizedEngine()
    engine.register("health", Relation(HEALTH_SCHEMA, health_rows))
    return engine


class TestEngine:
    def test_register_and_lookup(self, health_rows):
        engine = _engine(health_rows)
        assert engine.tables() == ["health"]
        assert len(engine.table("health")) == len(health_rows)

    def test_unknown_table(self, health_rows):
        engine = _engine(health_rows)
        with pytest.raises(KeyError):
            engine.table("missing")
        with pytest.raises(KeyError):
            engine.execute_sql("SELECT count(*) FROM missing")

    def test_sql_count(self, health_rows):
        engine = _engine(health_rows)
        result = engine.execute_sql("SELECT count(*) FROM health")
        assert result.rows_for(())[0]["count"] == len(health_rows)

    def test_sql_filter_matches_python(self, health_rows):
        engine = _engine(health_rows)
        result = engine.execute_sql("SELECT count(*) FROM health WHERE age > 65")
        expected = sum(1 for row in health_rows if row["age"] > 65)
        assert result.rows_for(())[0]["count"] == expected

    def test_sql_group_by_matches_python(self, health_rows):
        engine = _engine(health_rows)
        result = engine.execute_sql("SELECT count(*) FROM health GROUP BY region")
        counts = {row["region"]: row["count"] for row in result.rows_for(("region",))}
        expected: dict[str, int] = {}
        for row in health_rows:
            expected[row["region"]] = expected.get(row["region"], 0) + 1
        assert counts == expected

    def test_grouping_sets_row_counts(self, health_rows):
        engine = _engine(health_rows)
        result = engine.execute_sql(
            "SELECT count(*), avg(age) FROM health "
            "GROUP BY GROUPING SETS ((region), (sex), ())"
        )
        regions = {row["region"] for row in health_rows}
        sexes = {row["sex"] for row in health_rows}
        assert len(result.rows_for(("region",))) == len(regions)
        assert len(result.rows_for(("sex",))) == len(sexes)
        assert len(result.rows_for(())) == 1

    def test_avg_consistency(self, health_rows):
        engine = _engine(health_rows)
        result = engine.execute_sql("SELECT avg(bmi) FROM health")
        expected = sum(r["bmi"] for r in health_rows) / len(health_rows)
        assert result.rows_for(())[0]["avg_bmi"] == pytest.approx(expected)

    def test_logical_query_execution(self, health_rows, simple_group_by):
        engine = _engine(health_rows)
        result = engine.execute_logical("health", simple_group_by)
        assert result.query is simple_group_by
