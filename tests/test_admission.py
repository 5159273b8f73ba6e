"""Tests for device leasing and workload admission control."""

from __future__ import annotations

import pytest

from repro.manager.admission import (
    ADMITTED,
    QUEUED,
    SHED,
    AdmissionController,
    DeviceLeaseRegistry,
    LeaseError,
)


class TestLeaseRegistry:
    def test_lease_and_release_cycle(self):
        registry = DeviceLeaseRegistry()
        pool = ["d1", "d2", "d3", "d4"]
        registry.lease("q1", ["d1", "d2"])
        assert registry.free(pool) == ["d3", "d4"]
        assert registry.holder("d1") == "q1"
        assert registry.held_by("q1") == ["d1", "d2"]
        assert registry.leased_count == 2
        released = registry.release("q1")
        assert released == ["d1", "d2"]
        assert registry.free(pool) == pool
        assert registry.holder("d1") is None

    def test_double_lease_raises(self):
        registry = DeviceLeaseRegistry()
        registry.lease("q1", ["d1"])
        with pytest.raises(LeaseError):
            registry.lease("q2", ["d1"])
        # and the failed lease left nothing behind
        assert registry.held_by("q2") == []

    def test_lease_is_all_or_nothing(self):
        registry = DeviceLeaseRegistry()
        registry.lease("q1", ["d2"])
        with pytest.raises(LeaseError):
            registry.lease("q2", ["d1", "d2"])
        # d1 must not be half-leased by the failed call
        assert registry.holder("d1") is None
        assert registry.free(["d1", "d2"]) == ["d1"]

    def test_lease_plan_covers_roles_then_caps_standbys(self):
        from types import SimpleNamespace as NS

        plan = NS(operators=lambda: [
            NS(role=NS(is_data_processor=True)),
            NS(role=NS(is_data_processor=False)),  # contributor / querier
            NS(role=NS(is_data_processor=True)),
        ])
        registry = DeviceLeaseRegistry()
        pool = ["d1", "d2", "d3", "d4", "d5"]
        registry.lease("other", ["d2"])
        roles, standbys = registry.lease_plan("q1", plan, pool, standby_count=1)
        assert (roles, standbys) == (["d1", "d3"], ["d4"])
        assert registry.held_by("q1") == ["d1", "d3", "d4"]
        # one free device left: not enough for two roles, nothing leased
        assert registry.lease_plan("q2", plan, pool, standby_count=1) is None
        assert registry.held_by("q2") == []
        registry.release("other")
        # two free devices cover the roles; the standby ask is capped at 0
        assert registry.lease_plan("q2", plan, pool, standby_count=3) == (
            ["d2", "d5"], [],
        )

    def test_release_unknown_query_is_noop(self):
        registry = DeviceLeaseRegistry()
        assert registry.release("ghost") == []

    def test_busy_time_accumulates_on_the_clock(self):
        clock = {"now": 0.0}
        registry = DeviceLeaseRegistry(clock=lambda: clock["now"])
        registry.lease("q1", ["d1"])
        clock["now"] = 10.0
        assert registry.busy_time("d1") == 10.0  # still held
        registry.release("q1")
        clock["now"] = 50.0
        assert registry.busy_time("d1") == 10.0  # released at t=10
        registry.lease("q2", ["d1"])
        clock["now"] = 60.0
        assert registry.busy_time("d1") == 20.0

    def test_utilization(self):
        clock = {"now": 0.0}
        registry = DeviceLeaseRegistry(clock=lambda: clock["now"])
        registry.lease("q1", ["d1", "d2"])
        clock["now"] = 10.0
        registry.release("q1")
        clock["now"] = 20.0
        # two of four devices busy for 10 of 20 seconds
        assert registry.utilization(["d1", "d2", "d3", "d4"], 20.0) == 0.25
        assert registry.utilization([], 20.0) == 0.0


class TestAdmissionController:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_concurrent=0)
        with pytest.raises(ValueError):
            AdmissionController(max_concurrent=1, queue_capacity=-1)

    def test_admit_up_to_cap_then_queue_then_shed(self):
        controller = AdmissionController(max_concurrent=2, queue_capacity=1)
        assert controller.offer("q1") == ADMITTED
        assert controller.offer("q2") == ADMITTED
        assert controller.offer("q3") == QUEUED
        assert controller.offer("q4") == SHED
        assert controller.in_flight == 2
        assert controller.queue_depth == 1
        assert controller.arrivals == 4
        assert controller.shed == 1

    def test_completion_drains_the_queue_fifo(self):
        controller = AdmissionController(max_concurrent=1, queue_capacity=2)
        controller.offer("q1")
        controller.offer("q2")
        controller.offer("q3")
        assert controller.complete("q1") == "q2"
        assert controller.is_in_flight("q2")
        assert controller.complete("q2") == "q3"
        assert controller.complete("q3") is None
        assert controller.completed == 3
        assert controller.admitted == 3

    def test_zero_queue_sheds_at_the_cap(self):
        controller = AdmissionController(max_concurrent=1)
        assert controller.offer("q1") == ADMITTED
        assert controller.offer("q2") == SHED
        assert controller.complete("q1") is None
        assert controller.offer("q3") == ADMITTED

    def test_conservation_counter_identity(self):
        controller = AdmissionController(max_concurrent=2, queue_capacity=2)
        outcomes = [controller.offer(f"q{i}") for i in range(8)]
        drained = 0
        for i, outcome in enumerate(outcomes):
            if outcome == ADMITTED:
                controller.complete(f"q{i}")
                drained += 1
        # drain whatever moved from the queue into flight
        while controller.in_flight:
            for i in range(8):
                if controller.is_in_flight(f"q{i}"):
                    controller.complete(f"q{i}")
                    drained += 1
        assert controller.shed + controller.completed == controller.arrivals

    def test_telemetry_counters(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        controller = AdmissionController(
            max_concurrent=1, queue_capacity=1, telemetry=telemetry
        )
        controller.offer("q1")
        controller.offer("q2")
        controller.offer("q3")
        controller.complete("q1")
        metrics = telemetry.metrics
        assert metrics.value("workload.arrivals") == 3
        assert metrics.value("workload.admitted") == 2  # q1, then q2 drained
        assert metrics.value("workload.queued") == 1
        assert metrics.value("workload.shed") == 1
        assert metrics.value("workload.completed") == 1
