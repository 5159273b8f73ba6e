"""Tests for the partition representativeness checker."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.representativeness import (
    ColumnCheck,
    RepresentativenessReport,
    check_representative,
)
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.query.relation import Relation


@pytest.fixture(scope="module")
def snapshot():
    return generate_health_rows(1200, seed=31)


class TestHashPartitionsPass:
    def test_hash_partitions_are_representative(self, snapshot):
        relation = Relation(HEALTH_SCHEMA, snapshot)
        partitions = relation.partition_by_hash(4, key="patient_id")
        for partition in partitions:
            report = check_representative(
                partition.rows, snapshot, HEALTH_SCHEMA,
                columns=["age", "bmi", "region", "sex"],
            )
            assert report.representative, report.rejected_columns()

    def test_small_random_sample_passes(self, snapshot):
        relation = Relation(HEALTH_SCHEMA, snapshot)
        sample = relation.sample(150, seed=5)
        report = check_representative(
            sample.rows, snapshot, HEALTH_SCHEMA,
            columns=["age", "bmi", "region"],
        )
        assert report.representative


class TestSkewedPartitionsFail:
    def test_age_filtered_partition_rejected(self, snapshot):
        skewed = [row for row in snapshot if row["age"] > 85][:200]
        report = check_representative(
            skewed, snapshot, HEALTH_SCHEMA, columns=["age", "bmi"]
        )
        assert not report.representative
        assert "age" in report.rejected_columns()

    def test_region_poisoned_partition_rejected(self, snapshot):
        poisoned = [row for row in snapshot if row["region"] == "idf"][:150]
        report = check_representative(
            poisoned, snapshot, HEALTH_SCHEMA, columns=["region"]
        )
        assert not report.representative
        assert report.rejected_columns() == ["region"]

    def test_clinical_shift_detected(self, snapshot):
        shifted = [dict(row, bmi=row["bmi"] + 8.0) for row in snapshot[:200]]
        report = check_representative(
            shifted, snapshot, HEALTH_SCHEMA, columns=["bmi"]
        )
        assert not report.representative


class TestEdgeCases:
    def test_tiny_partitions_skipped(self, snapshot):
        report = check_representative(
            snapshot[:3], snapshot, HEALTH_SCHEMA, columns=["age", "region"]
        )
        assert report.representative
        assert all(check.test == "skipped" for check in report.checks)

    def test_alpha_validation(self, snapshot):
        with pytest.raises(ValueError):
            check_representative(snapshot[:10], snapshot, HEALTH_SCHEMA, alpha=0.0)

    def test_no_columns_rejected(self, snapshot):
        with pytest.raises(ValueError):
            check_representative(
                snapshot[:10], snapshot, HEALTH_SCHEMA, columns=["ghost"]
            )

    def test_bonferroni_correction_applied(self, snapshot):
        # testing many columns must not inflate false rejections: the
        # same fair sample stays representative with all columns tested
        relation = Relation(HEALTH_SCHEMA, snapshot)
        partition = relation.partition_by_hash(4, key="patient_id")[0]
        report = check_representative(partition.rows, snapshot, HEALTH_SCHEMA)
        assert report.representative

    def test_report_lists_every_tested_column(self, snapshot):
        report = check_representative(
            snapshot[:100], snapshot, HEALTH_SCHEMA, columns=["age", "sex"]
        )
        assert [check.column for check in report.checks] == ["age", "sex"]


class TestSerialisation:
    def test_report_round_trips_through_json(self, snapshot):
        skewed = [row for row in snapshot if row["age"] > 85][:200]
        report = check_representative(
            skewed, snapshot, HEALTH_SCHEMA, columns=["age", "bmi", "region"]
        )
        assert {check.test for check in report.checks} == {"ks", "chi2"}
        assert any(check.rejected for check in report.checks)
        for check in report.checks:
            assert type(check.rejected) is bool
            assert type(check.p_value) is float
        data = json.loads(json.dumps(dataclasses.asdict(report)))
        rebuilt = RepresentativenessReport(
            checks=tuple(ColumnCheck(**check) for check in data["checks"]),
            alpha=data["alpha"],
        )
        assert rebuilt == report
