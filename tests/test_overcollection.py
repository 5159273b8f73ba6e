"""Tests for overcollection configuration and partition tallies."""

from __future__ import annotations

import pytest

from repro.core.overcollection import OvercollectionConfig, PartitionTally


class TestConfig:
    def test_totals(self):
        config = OvercollectionConfig(n=4, m=2, snapshot_cardinality=2000)
        assert config.total_partitions == 6
        assert config.partition_cardinality == 500

    def test_partition_cardinality_rounds_up(self):
        config = OvercollectionConfig(n=3, m=0, snapshot_cardinality=100)
        assert config.partition_cardinality == 34

    def test_validation(self):
        with pytest.raises(ValueError):
            OvercollectionConfig(n=0, m=1, snapshot_cardinality=10)
        with pytest.raises(ValueError):
            OvercollectionConfig(n=1, m=-1, snapshot_cardinality=10)
        with pytest.raises(ValueError):
            OvercollectionConfig(n=1, m=1, snapshot_cardinality=0)

    def test_serialization_round_trip(self):
        config = OvercollectionConfig(n=4, m=2, snapshot_cardinality=2000)
        assert OvercollectionConfig.from_dict(config.to_dict()) == config


class TestTally:
    def _tally(self) -> PartitionTally:
        return PartitionTally(OvercollectionConfig(n=3, m=2, snapshot_cardinality=300))

    def test_initially_incomplete(self):
        tally = self._tally()
        assert not tally.is_complete()
        assert tally.lost_count == 5

    def test_completion_at_n(self):
        tally = self._tally()
        for i in range(3):
            tally.record(i)
        assert tally.is_complete()
        assert tally.is_valid()

    def test_record_idempotent(self):
        tally = self._tally()
        tally.record(0)
        tally.record(0)
        assert tally.received_count == 1

    def test_out_of_range_rejected(self):
        tally = self._tally()
        with pytest.raises(ValueError):
            tally.record(5)
        with pytest.raises(ValueError):
            tally.record(-1)

    def test_validity_boundary(self):
        tally = self._tally()
        # exactly n received -> m lost -> still valid
        for i in range(3):
            tally.record(i)
        assert tally.is_valid()
        # fewer than n received -> more than m lost -> invalid
        fresh = self._tally()
        fresh.record(0)
        fresh.record(1)
        assert not fresh.is_valid()

    def test_scaling_factor(self):
        tally = self._tally()
        for i in range(4):
            tally.record(i)
        assert tally.scaling_factor() == pytest.approx(5 / 4)

    def test_scaling_with_nothing_received(self):
        with pytest.raises(ValueError):
            self._tally().scaling_factor()

    def test_summary_fields(self):
        tally = self._tally()
        tally.record(0)
        summary = tally.summary()
        assert summary == {
            "n": 3, "m": 2, "received": 1, "lost": 4,
            "complete": False, "valid": False,
        }
