"""Tests for the centralized verification helper."""

from __future__ import annotations

import pytest

from repro.core.runtime import ExecutionReport
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.manager.verification import verify_against_centralized
from repro.query.aggregates import AggregateSpec
from repro.query.groupby import (
    GroupByQuery,
    evaluate_group_by,
    finalize_partials,
)
from repro.query.relation import Relation

QUERY = GroupByQuery(
    grouping_sets=(("region",), ()),
    aggregates=(AggregateSpec("count"), AggregateSpec("avg", "age")),
)


def _report(rows, success=True) -> ExecutionReport:
    report = ExecutionReport(query_id="verif")
    report.success = success
    if success:
        report.result = finalize_partials(QUERY, evaluate_group_by(QUERY, rows))
    return report


class TestVerification:
    def test_exact_match(self):
        rows = generate_health_rows(60, seed=1)
        outcome = verify_against_centralized(
            _report(rows), QUERY, Relation(HEALTH_SCHEMA, rows)
        )
        assert outcome.exact
        assert outcome.centralized_rows == outcome.distributed_rows

    def test_partial_dataset_detected(self):
        rows = generate_health_rows(60, seed=1)
        outcome = verify_against_centralized(
            _report(rows[:30]), QUERY, Relation(HEALTH_SCHEMA, rows)
        )
        assert not outcome.exact
        assert outcome.validity.max_relative_error > 0.0

    def test_failed_execution_rejected(self):
        rows = generate_health_rows(10, seed=1)
        with pytest.raises(ValueError):
            verify_against_centralized(
                _report(rows, success=False), QUERY, Relation(HEALTH_SCHEMA, rows)
            )
