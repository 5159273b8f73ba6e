"""Tests for the strategy advisor (companion-paper taxonomy)."""

from __future__ import annotations

import pytest

from repro.core.advisor import QueryProperties, recommend_strategy
from repro.core.resiliency import minimum_overcollection, worst_case_delay


class TestRecommendations:
    def test_distributive_statistics_get_overcollection(self):
        properties = QueryProperties(distributive=True)
        rec = recommend_strategy(properties, n=10, fault_rate=0.1)
        assert rec.strategy == "overcollection"
        assert not rec.heartbeat_execution
        assert rec.worst_extra_latency == 0.0
        assert rec.extra_devices == minimum_overcollection(10, 0.1, 0.99)

    def test_iterative_ml_gets_heartbeats(self):
        properties = QueryProperties(distributive=True, iterative=True)
        rec = recommend_strategy(properties, n=6, fault_rate=0.2)
        assert rec.strategy == "overcollection"
        assert rec.heartbeat_execution
        assert any("heartbeat" in reason for reason in rec.reasons)

    def test_non_distributive_gets_backup(self):
        properties = QueryProperties(distributive=False)
        rec = recommend_strategy(
            properties, n=4, fault_rate=0.1, replicas=2,
        )
        assert rec.strategy == "backup"
        assert rec.extra_devices == 2
        assert rec.worst_extra_latency == worst_case_delay(2) == 10.0
        assert not rec.heartbeat_execution

    def test_exact_requirement_gets_backup(self):
        properties = QueryProperties(distributive=True, exact_result_required=True)
        rec = recommend_strategy(properties, n=4, fault_rate=0.1)
        assert rec.strategy == "backup"
        assert any("exact" in reason for reason in rec.reasons)

    def test_exact_iterative_still_overcollection(self):
        # iterative algorithms cannot be exact anyway (resampling), so
        # the exactness requirement does not force Backup
        properties = QueryProperties(
            distributive=True, iterative=True, exact_result_required=True
        )
        rec = recommend_strategy(properties, n=4, fault_rate=0.1)
        assert rec.strategy == "overcollection"

    def test_margin_tracks_fault_rate(self):
        properties = QueryProperties(distributive=True)
        gentle = recommend_strategy(properties, n=10, fault_rate=0.05)
        harsh = recommend_strategy(properties, n=10, fault_rate=0.4)
        assert harsh.extra_devices > gentle.extra_devices

    def test_reasons_always_present(self):
        for distributive in (True, False):
            rec = recommend_strategy(
                QueryProperties(distributive=distributive), n=4, fault_rate=0.1
            )
            assert rec.reasons
