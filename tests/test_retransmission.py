"""Tests for contribution retransmission + Bloom deduplication."""

from __future__ import annotations

import pytest

from repro.core.assignment import assign_operators
from repro.core.planner import EdgeletPlanner, PrivacyParameters, QuerySpec
from repro.core.qep import OperatorRole
from repro.core.runtime import (
    ExecutionCoordinator,
    ExecutionError,
)
from repro.data.health import generate_health_rows
from repro.devices.edgelet import Edgelet
from repro.devices.profiles import PC_SGX
from repro.network.opnet import NetworkConfig, OpportunisticNetwork
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph, LinkQuality
from repro.query.aggregates import AggregateSpec
from repro.query.groupby import GroupByQuery


def _run(loss: float, copies: int, seed: int = 5):
    simulator = Simulator()
    quality = LinkQuality(base_latency=0.05, latency_jitter=0.0, loss_probability=loss)
    topology = ContactGraph(default_quality=quality)
    network = OpportunisticNetwork(
        simulator, topology,
        NetworkConfig(allow_relay=False, buffer_timeout=200.0, default_quality=quality),
        seed=seed,
    )
    rows = generate_health_rows(60, seed=2)
    contributors = []
    for i in range(30):
        device = Edgelet(PC_SGX, device_id=f"rt{seed}-c{i:03d}", seed=f"rt{seed}c{i}".encode())
        device.datastore.insert_many(rows[2 * i: 2 * i + 2])
        contributors.append(device)
    processors = [
        Edgelet(PC_SGX, device_id=f"rt{seed}-p{i:03d}", seed=f"rt{seed}p{i}".encode())
        for i in range(10)
    ]
    querier = Edgelet(PC_SGX, device_id=f"rt{seed}-q", seed=f"rt{seed}q".encode())
    devices = {d.device_id: d for d in [*contributors, *processors, querier]}
    for device_id in devices:
        topology.add_device(device_id)

    query = GroupByQuery(
        grouping_sets=((),),
        aggregates=(AggregateSpec("count"), AggregateSpec("avg", "age")),
    )
    spec = QuerySpec(
        query_id=f"retrans-{loss}-{copies}-{seed}", kind="aggregate",
        snapshot_cardinality=2 * len(rows), group_by=query,
    )
    planner = EdgeletPlanner(
        privacy=PrivacyParameters(max_raw_per_edgelet=len(rows) + 1),
    )
    plan = planner.plan(spec, contributor_ids=[d.device_id for d in contributors])
    assign_operators(plan, [d.device_id for d in processors], exclusive=False)
    plan.operators(OperatorRole.QUERIER)[0].assigned_to = querier.device_id

    executor = ExecutionCoordinator(
        simulator, network, devices, plan,
        collection_window=15.0, deadline=50.0, secure_channels=False,
        contribution_copies=copies, seed=seed,
    )
    report = executor.run()
    return report, len(rows)


class TestRetransmission:
    def test_lossless_copies_do_not_double_count(self):
        report, n_rows = _run(loss=0.0, copies=3)
        assert report.success
        assert report.result.rows_for(())[0]["count"] == n_rows

    def test_single_copy_unchanged_semantics(self):
        report, n_rows = _run(loss=0.0, copies=1)
        assert report.success
        assert report.result.rows_for(())[0]["count"] == n_rows

    def test_copies_improve_collection_under_loss(self):
        collected_single = []
        collected_triple = []
        for seed in range(6):
            report_1, n_rows = _run(loss=0.3, copies=1, seed=seed)
            report_3, _ = _run(loss=0.3, copies=3, seed=seed)
            if report_1.success:
                collected_single.append(report_1.result.rows_for(())[0]["count"])
            if report_3.success:
                collected_triple.append(report_3.result.rows_for(())[0]["count"])
        assert collected_triple, "triple-copy runs should succeed"
        mean_single = sum(collected_single) / max(len(collected_single), 1)
        mean_triple = sum(collected_triple) / len(collected_triple)
        assert mean_triple > mean_single

    def test_triple_copy_near_complete_at_moderate_loss(self):
        report, n_rows = _run(loss=0.2, copies=3)
        assert report.success
        count = report.result.rows_for(())[0]["count"]
        # per-copy survival 0.8 -> per-contribution 1 - 0.2^3 = 0.992
        assert count >= 0.9 * n_rows

    def test_copies_validation(self):
        with pytest.raises(ExecutionError):
            _run(loss=0.0, copies=0)
