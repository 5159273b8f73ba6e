"""Tests for demo query (ii): K-Means followed by Group By on clusters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assignment import assign_operators
from repro.core.planner import (
    EdgeletPlanner,
    PrivacyParameters,
    QuerySpec,
)
from repro.core.qep import OperatorRole
from repro.core.runtime import ExecutionCoordinator
from repro.data.health import generate_health_rows
from repro.devices.edgelet import Edgelet
from repro.devices.profiles import PC_SGX
from repro.network.opnet import NetworkConfig, OpportunisticNetwork
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph, LinkQuality
from repro.query.aggregates import AggregateSpec
from repro.query.groupby import GroupByQuery

FEATURES = ("bmi", "systolic_bp", "glucose")


def _run(with_stats: bool, n_contributors=50, seed=2):
    simulator = Simulator()
    quality = LinkQuality(base_latency=0.05, latency_jitter=0.05, loss_probability=0.0)
    topology = ContactGraph(default_quality=quality)
    network = OpportunisticNetwork(
        simulator, topology,
        NetworkConfig(allow_relay=False, buffer_timeout=200.0, default_quality=quality),
        seed=seed,
    )
    rows = generate_health_rows(2 * n_contributors, seed=seed)
    contributors = []
    for i in range(n_contributors):
        device = Edgelet(PC_SGX, device_id=f"cs{seed}-c{i:03d}",
                         seed=f"cs{seed}c{i}".encode())
        device.datastore.insert_many(rows[2 * i: 2 * i + 2])
        contributors.append(device)
    processors = [
        Edgelet(PC_SGX, device_id=f"cs{seed}-p{i:02d}", seed=f"cs{seed}p{i}".encode())
        for i in range(15)
    ]
    querier = Edgelet(PC_SGX, device_id=f"cs{seed}-q", seed=f"cs{seed}q".encode())
    devices = {d.device_id: d for d in [*contributors, *processors, querier]}
    for device_id in devices:
        topology.add_device(device_id)

    group_by = None
    if with_stats:
        group_by = GroupByQuery(
            grouping_sets=((),),  # placeholder; stats round groups by cluster
            aggregates=(
                AggregateSpec("count"),
                AggregateSpec("avg", "dependency_level"),
                AggregateSpec("avg", "age"),
            ),
        )
    spec = QuerySpec(
        query_id=f"cluster-stats-{with_stats}-{seed}", kind="kmeans",
        snapshot_cardinality=2 * len(rows), kmeans_k=3,
        feature_columns=FEATURES, heartbeats=4, group_by=group_by,
    )
    planner = EdgeletPlanner(
        privacy=PrivacyParameters(max_raw_per_edgelet=len(rows) + 1)
    )
    plan = planner.plan(spec, contributor_ids=[d.device_id for d in contributors])
    assign_operators(plan, [p.device_id for p in processors], exclusive=False)
    plan.operators(OperatorRole.QUERIER)[0].assigned_to = querier.device_id
    executor = ExecutionCoordinator(
        simulator, network, devices, plan,
        collection_window=15.0, deadline=60.0, secure_channels=False,
    )
    return executor.run(), rows, plan


class TestClusterStatsRound:
    def test_stats_attached_to_outcome(self):
        report, rows, _ = _run(with_stats=True)
        assert report.success
        assert report.kmeans is not None
        stats = report.kmeans.cluster_stats
        assert stats is not None
        cluster_rows = stats.rows_for(("cluster",))
        assert 1 <= len(cluster_rows) <= 3
        total = sum(row["count"] for row in cluster_rows)
        assert total == len(rows)  # every snapshot row labeled exactly once

    def test_without_group_by_no_stats(self):
        report, _, _ = _run(with_stats=False)
        assert report.success
        assert report.kmeans.cluster_stats is None

    def test_stats_reflect_cluster_structure(self):
        """Mean dependency level must differ across discovered clusters
        (the synthetic mixture correlates dependency with the latent
        health profile)."""
        report, _, _ = _run(with_stats=True, n_contributors=120, seed=5)
        stats = report.kmeans.cluster_stats
        means = [
            row["avg_dependency_level"]
            for row in stats.rows_for(("cluster",))
            if row["count"] and row["count"] > 5
        ]
        assert len(means) >= 2
        assert max(means) - min(means) > 0.3

    def test_planner_ships_stats_columns_to_computers(self):
        _, _, plan = _run(with_stats=True)
        computer = plan.operators(OperatorRole.COMPUTER)[0]
        group = set(computer.params["column_group"])
        assert {"dependency_level", "age"} <= group
        assert set(FEATURES) <= group

    def test_stats_match_central_labeling(self):
        """The distributed per-cluster counts equal labeling the same
        snapshot centrally with the delivered centroids."""
        report, rows, _ = _run(with_stats=True, seed=7)
        centroids = report.kmeans.centroids
        central_counts: dict[int, int] = {}
        for row in rows:
            point = np.asarray([row[c] for c in FEATURES], dtype=float)
            label = int(np.argmin(np.sum((centroids - point) ** 2, axis=1)))
            central_counts[label] = central_counts.get(label, 0) + 1
        stats_counts = {
            row["cluster"]: row["count"]
            for row in report.kmeans.cluster_stats.rows_for(("cluster",))
        }
        assert stats_counts == central_counts
