"""Tests for the validity comparison (distributed vs centralized)."""

from __future__ import annotations

import pytest

from repro.core.validity import compare_results
from repro.query.aggregates import AggregateSpec
from repro.query.groupby import (
    GroupByQuery,
    evaluate_group_by,
    finalize_partials,
)

QUERY = GroupByQuery(
    grouping_sets=(("region",), ()),
    aggregates=(AggregateSpec("count"), AggregateSpec("avg", "age")),
)

ROWS = [
    {"region": "idf", "age": 70},
    {"region": "idf", "age": 80},
    {"region": "paca", "age": 66},
]


def _result(rows, query=QUERY):
    return finalize_partials(query, evaluate_group_by(query, rows))


class TestCompareResults:
    def test_identical_results_exact(self):
        report = compare_results(_result(ROWS), _result(ROWS))
        assert report.exact_match
        assert report.is_valid()
        assert report.max_relative_error == 0.0

    def test_missing_group_detected(self):
        partial = _result([row for row in ROWS if row["region"] == "idf"])
        report = compare_results(_result(ROWS), partial)
        assert report.missing_groups == 1
        assert not report.is_valid()

    def test_extra_group_detected(self):
        extra = _result(ROWS + [{"region": "ghost", "age": 1}])
        report = compare_results(_result(ROWS), extra)
        assert report.extra_groups == 1

    def test_value_error_measured(self):
        shifted = _result(
            [dict(row, age=row["age"] + 1) for row in ROWS]
        )
        report = compare_results(_result(ROWS), shifted)
        assert not report.exact_match
        assert 0.0 < report.max_relative_error < 0.05
        assert report.is_valid(tolerance=0.05)
        assert not report.is_valid(tolerance=0.001)

    def test_mean_error_le_max_error(self):
        shifted = _result([dict(row, age=row["age"] * 2) for row in ROWS])
        report = compare_results(_result(ROWS), shifted)
        assert report.mean_relative_error <= report.max_relative_error

    def test_compared_cells_counted(self):
        report = compare_results(_result(ROWS), _result(ROWS))
        # 2 region groups + 1 total group, 2 aggregates each
        assert report.compared_cells == 6

    def test_null_vs_value_is_infinite_error(self):
        query = GroupByQuery(
            grouping_sets=((),), aggregates=(AggregateSpec("avg", "age"),)
        )
        with_values = _result(ROWS, query)
        with_nulls = _result([{"region": "idf", "age": None}], query)
        report = compare_results(with_values, with_nulls)
        assert report.max_relative_error == float("inf")

    @pytest.mark.parametrize("nan_group", [1, 2])
    def test_a_nan_result_compared_with_itself_is_exact(self, nan_group):
        # the NaN cell is compared first for one of the two groups,
        # whatever order hashing gives the keys; neither may change the
        # verdict
        query = GroupByQuery(
            grouping_sets=(("g",),), aggregates=(AggregateSpec("avg", "x"),)
        )
        rows = [
            {"g": g, "x": float("nan") if g == nan_group else 1.0} for g in (1, 2)
        ]
        report = compare_results(_result(rows, query), _result(rows, query))
        assert report.exact_match
        assert report.is_valid()
        assert report.max_relative_error == report.mean_relative_error == 0.0

    @pytest.mark.parametrize("odd", [float("nan"), float("inf"), float("-inf")])
    def test_nan_or_infinity_against_a_number_is_invalid(self, odd):
        query = GroupByQuery(
            grouping_sets=((),), aggregates=(AggregateSpec("avg", "x"),)
        )
        with_odd = _result([{"x": odd}], query)
        with_one = _result([{"x": 1.0}], query)
        for expected, actual in ((with_odd, with_one), (with_one, with_odd)):
            report = compare_results(expected, actual)
            assert report.max_relative_error == float("inf")
            assert not report.exact_match
            assert not report.is_valid(tolerance=1.0)

    def test_mismatched_queries_rejected(self):
        other_query = GroupByQuery(
            grouping_sets=(("region",),), aggregates=(AggregateSpec("count"),)
        )
        with pytest.raises(ValueError):
            compare_results(_result(ROWS), _result(ROWS, other_query))

    def test_summary_keys(self):
        summary = compare_results(_result(ROWS), _result(ROWS)).summary()
        assert summary["exact_match"] is True
        assert set(summary) == {
            "exact_match", "missing_groups", "extra_groups",
            "max_relative_error", "mean_relative_error",
        }
