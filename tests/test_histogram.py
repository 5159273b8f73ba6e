"""Tests for the distributive histogram aggregate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.aggregates import (
    AggregateSpec,
    finalize_state,
    make_state,
    merge_states,
)
from repro.query.sql import parse_query

HIST = AggregateSpec("hist", "age", params=(0, 100, 10))


class TestHistSpec:
    def test_params_required(self):
        with pytest.raises(ValueError):
            AggregateSpec("hist", "age")
        with pytest.raises(ValueError):
            AggregateSpec("hist", "age", params=(0, 100))
        with pytest.raises(ValueError):
            AggregateSpec("hist", "age", params=(100, 0, 10))
        with pytest.raises(ValueError):
            AggregateSpec("hist", "age", params=(0, 100, 0))

    def test_other_functions_reject_params(self):
        with pytest.raises(ValueError):
            AggregateSpec("avg", "age", params=(1,))

    def test_serialization_round_trip(self):
        assert AggregateSpec.from_dict(HIST.to_dict()) == HIST


class TestHistState:
    def test_bucketing(self):
        rows = [{"age": a} for a in (5, 15, 15, 95)]
        counts = finalize_state(HIST, make_state(HIST, rows))
        assert counts[0] == 1
        assert counts[1] == 2
        assert counts[9] == 1
        assert sum(counts) == 4

    def test_out_of_range_clamps(self):
        rows = [{"age": -10}, {"age": 500}]
        counts = finalize_state(HIST, make_state(HIST, rows))
        assert counts[0] == 1
        assert counts[9] == 1

    def test_nulls_skipped(self):
        counts = finalize_state(HIST, make_state(HIST, [{"age": None}]))
        assert sum(counts) == 0

    def test_empty_histogram(self):
        counts = finalize_state(HIST, make_state(HIST, []))
        assert counts == [0] * 10

    def test_merge_adds_buckets(self):
        left = make_state(HIST, [{"age": 5}, {"age": 15}])
        right = make_state(HIST, [{"age": 15}, {"age": 95}])
        merged = finalize_state(HIST, merge_states([left, right]))
        assert merged[0] == 1 and merged[1] == 2 and merged[9] == 1

    def test_mismatched_grids_rejected(self):
        other = AggregateSpec("hist", "age", params=(0, 100, 5))
        left = make_state(HIST, [{"age": 5}])
        right = make_state(other, [{"age": 5}])
        with pytest.raises(ValueError):
            merge_states([left, right])

    @given(
        values=st.lists(st.floats(min_value=-50, max_value=150,
                                  allow_nan=False), max_size=100),
        n_parts=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_merge_equals_single_pass(self, values, n_parts):
        rows = [{"age": value} for value in values]
        whole = finalize_state(HIST, make_state(HIST, rows))
        parts = [rows[i::n_parts] for i in range(n_parts)]
        merged = finalize_state(
            HIST, merge_states(make_state(HIST, part) for part in parts)
        )
        assert merged == whole


class TestHistInSQL:
    def test_parse_hist(self):
        parsed = parse_query("SELECT hist(age, 0, 110, 11) FROM health")
        spec = parsed.query.aggregates[0]
        assert spec.function == "hist"
        assert spec.params == (0, 110, 11)

    def test_hist_end_to_end_with_engine(self):
        from repro.data.health import HEALTH_SCHEMA, generate_health_rows
        from repro.query.engine import CentralizedEngine
        from repro.query.relation import Relation

        rows = generate_health_rows(300, seed=9)
        engine = CentralizedEngine()
        engine.register("health", Relation(HEALTH_SCHEMA, rows))
        result = engine.execute_sql(
            "SELECT hist(age, 0, 110, 11) AS ages FROM health"
        )
        counts = result.rows_for(())[0]["ages"]
        assert sum(counts) == 300
        expected = [0] * 11
        for row in rows:
            expected[min(int(row["age"] / 10), 10)] += 1
        assert counts == expected
