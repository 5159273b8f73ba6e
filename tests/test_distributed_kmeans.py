"""Tests for the heartbeat-cadenced distributed K-Means state machine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.distributed_kmeans import (
    CentroidKnowledge,
    KMeansComputerState,
    merge_knowledge,
)
from repro.ml.kmeans import kmeans
from repro.ml.metrics import relative_inertia_gap


def _blobs(n_per_cluster=60, seed=0):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [12.0, 0.0], [0.0, 12.0]])
    return np.vstack(
        [center + rng.standard_normal((n_per_cluster, 2)) for center in centers]
    )


class TestCentroidKnowledge:
    def test_payload_round_trip(self):
        knowledge = CentroidKnowledge(
            centroids=np.array([[1.0, 2.0], [3.0, 4.0]]), weights=np.array([5.0, 7.0])
        )
        rebuilt = CentroidKnowledge.from_payload(knowledge.to_payload())
        assert np.allclose(rebuilt.centroids, knowledge.centroids)
        assert np.allclose(rebuilt.weights, knowledge.weights)

    def test_validation(self):
        with pytest.raises(ValueError):
            CentroidKnowledge(np.array([1.0, 2.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            CentroidKnowledge(np.array([[1.0]]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            CentroidKnowledge(np.array([[1.0]]), np.array([-1.0]))


class TestMergeKnowledge:
    def test_merge_is_weighted_barycenter(self):
        a = CentroidKnowledge(np.array([[0.0, 0.0]]), np.array([1.0]))
        b = CentroidKnowledge(np.array([[3.0, 0.0]]), np.array([2.0]))
        merged = merge_knowledge(a, [b])
        assert np.allclose(merged.centroids, [[2.0, 0.0]])
        assert np.allclose(merged.weights, [3.0])

    def test_merge_with_no_peers_identity(self):
        a = CentroidKnowledge(np.array([[1.0, 1.0]]), np.array([4.0]))
        merged = merge_knowledge(a, [])
        assert np.allclose(merged.centroids, a.centroids)

    def test_merge_matches_permuted_centroids(self):
        a = CentroidKnowledge(
            np.array([[0.0, 0.0], [10.0, 10.0]]), np.array([1.0, 1.0])
        )
        b = CentroidKnowledge(
            np.array([[10.1, 10.1], [0.1, 0.1]]), np.array([1.0, 1.0])
        )
        merged = merge_knowledge(a, [b])
        # matched pairs stay near their own cluster, no cross-pollution
        distances = np.linalg.norm(merged.centroids - a.centroids, axis=1)
        assert distances.max() < 0.2

    def test_mismatched_k_rejected(self):
        a = CentroidKnowledge(np.array([[0.0]]), np.array([1.0]))
        b = CentroidKnowledge(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            merge_knowledge(a, [b])

    def test_zero_weight_peer_ignored_in_position(self):
        a = CentroidKnowledge(np.array([[1.0, 0.0]]), np.array([2.0]))
        b = CentroidKnowledge(np.array([[9.0, 9.0]]), np.array([0.0]))
        merged = merge_knowledge(a, [b])
        assert np.allclose(merged.centroids, a.centroids)


class TestComputerState:
    def test_heartbeat_never_blocks(self):
        state = KMeansComputerState(partition=_blobs(20), k=3, seed=1)
        knowledge = state.heartbeat()  # no messages received at all
        assert knowledge.k == 3
        assert state.heartbeat_count == 1

    def test_received_knowledge_integrated_then_cleared(self):
        state = KMeansComputerState(partition=_blobs(20), k=3, seed=1)
        state.heartbeat()
        peer = CentroidKnowledge(
            np.array([[0.0, 0.0], [12.0, 0.0], [0.0, 12.0]]),
            np.array([10.0, 10.0, 10.0]),
        )
        state.receive(peer)
        assert len(state.received) == 1
        state.heartbeat()
        assert state.received == []

    def test_weights_track_partition_size(self):
        partition = _blobs(40)  # 120 points
        state = KMeansComputerState(partition=partition, k=3, seed=1)
        knowledge = state.heartbeat()
        assert knowledge.weights.sum() == pytest.approx(120.0)

    def test_small_partition_caps_k(self):
        state = KMeansComputerState(partition=_blobs(1)[:2], k=5, seed=1)
        knowledge = state.heartbeat()
        assert knowledge.k == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            KMeansComputerState(partition=np.empty((0, 2)), k=3)
        with pytest.raises(ValueError):
            KMeansComputerState(partition=_blobs(5), k=0)


class TestConvergenceTowardCentralized:
    def test_gossip_rounds_approach_central_kmeans(self):
        """The paper's claim: heartbeat gossip over partitions converges
        toward the centralized clustering quality."""
        points = _blobs(80, seed=3)
        rng = np.random.default_rng(5)
        permutation = rng.permutation(points.shape[0])
        partitions = np.array_split(points[permutation], 4)
        states = [
            KMeansComputerState(partition=part, k=3, seed=i)
            for i, part in enumerate(partitions)
        ]
        reference = kmeans(points, 3, seed=9)

        for _ in range(6):  # heartbeats with full knowledge exchange
            broadcasts = [state.heartbeat() for state in states]
            for i, state in enumerate(states):
                for j, knowledge in enumerate(broadcasts):
                    if i != j:
                        state.receive(knowledge)
        final = merge_knowledge(
            states[0].heartbeat(), [s.heartbeat() for s in states[1:]]
        )
        gap = relative_inertia_gap(points, final.centroids, reference.centroids)
        assert gap < 0.15

    def test_isolated_computer_is_worse_than_gossip(self):
        points = _blobs(80, seed=3)
        rng = np.random.default_rng(5)
        permutation = rng.permutation(points.shape[0])
        partitions = np.array_split(points[permutation], 4)
        reference = kmeans(points, 3, seed=9)

        lonely = KMeansComputerState(partition=partitions[0], k=3, seed=0)
        for _ in range(7):
            lonely_knowledge = lonely.heartbeat()
        lonely_gap = relative_inertia_gap(
            points, lonely_knowledge.centroids, reference.centroids
        )
        # a single partition still clusters decently on blobs, but the
        # merged swarm must not be worse than the isolated node
        states = [
            KMeansComputerState(partition=part, k=3, seed=i)
            for i, part in enumerate(partitions)
        ]
        for _ in range(7):
            broadcasts = [state.heartbeat() for state in states]
            for i, state in enumerate(states):
                for j, knowledge in enumerate(broadcasts):
                    if i != j:
                        state.receive(knowledge)
        merged = merge_knowledge(
            states[0].heartbeat(), [s.heartbeat() for s in states[1:]]
        )
        swarm_gap = relative_inertia_gap(points, merged.centroids, reference.centroids)
        assert swarm_gap <= lonely_gap + 0.05


class TestConvergenceTrace:
    def test_trace_recorded_and_decreasing(self):
        from repro.core.planner import PrivacyParameters, QuerySpec
        from repro.data.health import HEALTH_SCHEMA, generate_health_rows
        from repro.manager.scenario import Scenario, ScenarioConfig

        rows = generate_health_rows(160, seed=17)
        config = ScenarioConfig(
            n_contributors=80, n_processors=25, rows=rows,
            schema=HEALTH_SCHEMA, device_mix=(1.0, 0.0, 0.0),
            collection_window=15.0, deadline=70.0, seed=17,
        )
        scenario = Scenario(config)
        spec = QuerySpec(
            query_id="conv", kind="kmeans", snapshot_cardinality=140,
            kmeans_k=3, feature_columns=("bmi", "systolic_bp", "glucose"),
            heartbeats=6,
        )
        result = scenario.run_query(
            spec, privacy=PrivacyParameters(max_raw_per_edgelet=40)
        )
        assert result.report.success
        trace = result.report.convergence_trace
        assert len(trace) >= 3
        beats = [beat for beat, _ in trace]
        assert beats == sorted(beats)
        # gossip settles: the late shifts are smaller than the early ones
        early = trace[0][1]
        late = trace[-1][1]
        assert late <= early + 1e-9
