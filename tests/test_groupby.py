"""Tests for GROUP BY / GROUPING SETS evaluation and partial merging."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.aggregates import AggregateSpec
from repro.query.expressions import ColumnRef, CompareExpr, Literal
from repro.query.groupby import (
    GroupByQuery,
    PartialGroups,
    evaluate_group_by,
    finalize_partials,
    merge_partials,
)

ROWS = [
    {"region": "idf", "sex": "F", "age": 70},
    {"region": "idf", "sex": "M", "age": 80},
    {"region": "paca", "sex": "F", "age": 66},
    {"region": "paca", "sex": "F", "age": 90},
    {"region": "idf", "sex": "F", "age": 75},
]

QUERY = GroupByQuery(
    grouping_sets=(("region",), ("region", "sex"), ()),
    aggregates=(AggregateSpec("count"), AggregateSpec("avg", "age")),
)


def _evaluate(query, rows):
    return finalize_partials(query, evaluate_group_by(query, rows))


class TestEvaluation:
    def test_single_group_by(self):
        query = GroupByQuery.single(["region"], [AggregateSpec("count")])
        result = _evaluate(query, ROWS)
        rows = result.rows_for(("region",))
        assert {row["region"]: row["count"] for row in rows} == {"idf": 3, "paca": 2}

    def test_grand_total_set(self):
        result = _evaluate(QUERY, ROWS)
        total_rows = result.rows_for(())
        assert len(total_rows) == 1
        assert total_rows[0]["count"] == 5
        assert total_rows[0]["avg_age"] == pytest.approx(76.2)

    def test_multi_column_set(self):
        result = _evaluate(QUERY, ROWS)
        rows = result.rows_for(("region", "sex"))
        index = {(row["region"], row["sex"]): row["count"] for row in rows}
        assert index == {("idf", "F"): 2, ("idf", "M"): 1, ("paca", "F"): 2}

    def test_all_rows_concatenates_sets(self):
        result = _evaluate(QUERY, ROWS)
        assert len(result.all_rows()) == 2 + 3 + 1

    def test_where_filter(self):
        query = GroupByQuery(
            grouping_sets=(("region",),),
            aggregates=(AggregateSpec("count"),),
            where=CompareExpr(">", ColumnRef("age"), Literal(70)),
        )
        result = _evaluate(query, ROWS)
        index = {row["region"]: row["count"] for row in result.rows_for(("region",))}
        assert index == {"idf": 2, "paca": 1}

    def test_null_group_keys_form_their_own_group(self):
        query = GroupByQuery.single(["region"], [AggregateSpec("count")])
        rows = ROWS + [{"region": None, "sex": "F", "age": 50}]
        result = _evaluate(query, rows)
        index = {row["region"]: row["count"] for row in result.rows_for(("region",))}
        assert index[None] == 1

    def test_unknown_grouping_set_lookup(self):
        result = _evaluate(QUERY, ROWS)
        with pytest.raises(KeyError):
            result.rows_for(("sex",))

    def test_validation(self):
        with pytest.raises(ValueError):
            GroupByQuery(grouping_sets=(), aggregates=(AggregateSpec("count"),))
        with pytest.raises(ValueError):
            GroupByQuery(grouping_sets=((),), aggregates=())

    def test_input_columns(self):
        assert QUERY.input_columns() == ["age", "region", "sex"]

    def test_query_serialization_round_trip(self):
        rebuilt = GroupByQuery.from_dict(QUERY.to_dict())
        assert rebuilt == QUERY


class TestPartialMerging:
    def test_merge_matches_single_pass(self):
        parts = [ROWS[:2], ROWS[2:4], ROWS[4:]]
        partials = [evaluate_group_by(QUERY, part) for part in parts]
        merged = merge_partials(QUERY, partials)
        distributed = finalize_partials(QUERY, merged)
        centralized = _evaluate(QUERY, ROWS)
        assert distributed.all_rows() == centralized.all_rows()

    def test_merged_copy_does_not_alias_the_partial(self):
        # the first partial to reach a group is copied, not adopted:
        # folding into the merged state leaves the partial as it was
        partial = evaluate_group_by(QUERY, ROWS)
        before = partial.to_dict()
        merged = merge_partials(QUERY, [partial])
        for set_index, groups in enumerate(merged.groups):
            for key, states in groups.items():
                originals = partial.groups[set_index][key]
                for state, original in zip(states, originals):
                    assert state == original and state is not original
                    state.update(1000.0)
        assert partial.to_dict() == before

    def test_partial_serialization_round_trip(self):
        partial = evaluate_group_by(QUERY, ROWS)
        rebuilt = PartialGroups.from_dict(partial.to_dict())
        a = finalize_partials(QUERY, rebuilt).all_rows()
        b = finalize_partials(QUERY, partial).all_rows()
        assert a == b

    def test_empty_partials_merge(self):
        merged = merge_partials(QUERY, [])
        result = finalize_partials(QUERY, merged)
        assert result.all_rows() == []

    def test_scaled_counts(self):
        result = _evaluate(QUERY, ROWS)
        scaled = result.scaled_counts(2.0)
        total = scaled.rows_for(())[0]
        assert total["count"] == 10
        assert total["avg_age"] == pytest.approx(76.2)  # means unscaled


region_strategy = st.sampled_from(["idf", "paca", "bretagne", None])
row_strategy = st.fixed_dictionaries(
    {
        "region": region_strategy,
        "sex": st.sampled_from(["F", "M"]),
        "age": st.one_of(st.none(), st.integers(min_value=0, max_value=110)),
    }
)


class TestDistributivityProperty:
    @given(
        rows=st.lists(row_strategy, max_size=50),
        n_parts=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_partitioning_merges_to_centralized(self, rows, n_parts):
        parts = [rows[i::n_parts] for i in range(n_parts)]
        partials = [evaluate_group_by(QUERY, part) for part in parts]
        distributed = finalize_partials(QUERY, merge_partials(QUERY, partials))
        centralized = _evaluate(QUERY, rows)
        assert len(distributed.all_rows()) == len(centralized.all_rows())
        for d_row, c_row in zip(distributed.all_rows(), centralized.all_rows()):
            assert d_row.keys() == c_row.keys()
            for key in d_row:
                if isinstance(d_row[key], float) and d_row[key] is not None:
                    assert d_row[key] == pytest.approx(c_row[key], rel=1e-9, abs=1e-9)
                else:
                    assert d_row[key] == c_row[key]
