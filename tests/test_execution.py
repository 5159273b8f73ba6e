"""Integration tests for the distributed executor.

These build a controlled swarm directly (no Scenario sugar) so tests
can manipulate the network precisely: kill specific processors, force
loss rates, disable crypto, and so on.
"""

from __future__ import annotations

import pytest

from repro.core.assignment import assign_operators
from repro.core.planner import (
    EdgeletPlanner,
    PrivacyParameters,
    QuerySpec,
    ResiliencyParameters,
)
from repro.core.qep import OperatorRole
from repro.core.runtime import (
    ExecutionCoordinator,
    ExecutionError,
)
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.devices.edgelet import Edgelet
from repro.devices.profiles import PC_SGX
from repro.network.opnet import NetworkConfig, OpportunisticNetwork
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph, LinkQuality
from repro.query.aggregates import AggregateSpec
from repro.query.engine import CentralizedEngine
from repro.query.groupby import GroupByQuery
from repro.query.relation import Relation


def _build_swarm(n_contributors=30, n_processors=20, rows=None, loss=0.0):
    """A PC-only, loss-controlled swarm: deterministic up to `loss`."""
    simulator = Simulator()
    quality = LinkQuality(base_latency=0.05, latency_jitter=0.1, loss_probability=loss)
    topology = ContactGraph(default_quality=quality)
    network = OpportunisticNetwork(
        simulator,
        topology,
        NetworkConfig(allow_relay=False, buffer_timeout=200.0, default_quality=quality),
        seed=5,
    )
    rows = rows if rows is not None else generate_health_rows(n_contributors * 2, seed=3)
    contributors = []
    for i in range(n_contributors):
        device = Edgelet(PC_SGX, device_id=f"x-contrib-{i:04d}", seed=f"xc{i}".encode())
        contributors.append(device)
    for device, start in zip(contributors, range(0, len(rows), 2)):
        device.datastore.insert_many(rows[start:start + 2])
    processors = [
        Edgelet(PC_SGX, device_id=f"x-proc-{i:04d}", seed=f"xp{i}".encode())
        for i in range(n_processors)
    ]
    querier = Edgelet(PC_SGX, device_id="x-querier", seed=b"xq")
    devices = {d.device_id: d for d in [*contributors, *processors, querier]}
    for device_id in devices:
        topology.add_device(device_id)
    return simulator, network, devices, contributors, processors, querier, rows


def _aggregate_query() -> GroupByQuery:
    return GroupByQuery(
        grouping_sets=(("region",), ()),
        aggregates=(AggregateSpec("count"), AggregateSpec("avg", "age")),
    )


def _plan_and_assign(contributors, processors, querier, spec, privacy=None, resiliency=None):
    planner = EdgeletPlanner(privacy=privacy, resiliency=resiliency)
    plan = planner.plan(spec, contributor_ids=[d.device_id for d in contributors])
    assign_operators(plan, [d.device_id for d in processors], exclusive=False)
    plan.operators(OperatorRole.QUERIER)[0].assigned_to = querier.device_id
    return plan


class TestAggregateExecution:
    def test_lossless_execution_is_exact(self):
        sim, net, devices, contribs, procs, querier, rows = _build_swarm()
        spec = QuerySpec(
            query_id="exact", kind="aggregate",
            snapshot_cardinality=len(rows), group_by=_aggregate_query(),
        )
        plan = _plan_and_assign(
            contribs, procs, querier, spec,
            privacy=PrivacyParameters(max_raw_per_edgelet=25),
            resiliency=ResiliencyParameters(fault_rate=0.01),
        )
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=20.0, deadline=60.0, secure_channels=False,
        )
        report = executor.run()
        assert report.success
        assert report.tally["lost"] == 0

        engine = CentralizedEngine()
        engine.register("data", Relation(HEALTH_SCHEMA, rows))
        central = engine.execute_logical("data", spec.group_by)
        from repro.core.validity import compare_results

        validity = compare_results(central, report.result)
        assert validity.exact_match

    def test_secure_channels_same_result(self):
        sim, net, devices, contribs, procs, querier, rows = _build_swarm(
            n_contributors=10, n_processors=10,
        )
        spec = QuerySpec(
            query_id="secure", kind="aggregate",
            snapshot_cardinality=len(rows), group_by=_aggregate_query(),
        )
        plan = _plan_and_assign(contribs, procs, querier, spec)
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=20.0, deadline=60.0, secure_channels=True,
        )
        report = executor.run()
        assert report.success
        total = report.result.rows_for(())[0]
        assert total["count"] == len(rows)

    def test_killed_computer_loses_only_its_partition(self):
        sim, net, devices, contribs, procs, querier, rows = _build_swarm()
        spec = QuerySpec(
            query_id="kill-one", kind="aggregate",
            snapshot_cardinality=len(rows), group_by=_aggregate_query(),
        )
        plan = _plan_and_assign(
            contribs, procs, querier, spec,
            privacy=PrivacyParameters(max_raw_per_edgelet=15),
            resiliency=ResiliencyParameters(fault_rate=0.2),
        )
        victim = plan.operator("computer[0,g0]").assigned_to
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=20.0, deadline=60.0, secure_channels=False,
        )
        sim.schedule(1.0, lambda: net.kill(victim))
        report = executor.run()
        assert report.success
        assert report.tally["lost"] >= 1
        assert report.tally["valid"]

    def test_dead_combiner_covered_by_active_backup(self):
        sim, net, devices, contribs, procs, querier, rows = _build_swarm()
        spec = QuerySpec(
            query_id="combiner-dies", kind="aggregate",
            snapshot_cardinality=len(rows), group_by=_aggregate_query(),
        )
        plan = _plan_and_assign(contribs, procs, querier, spec)
        combiner_device = plan.operator("combiner").assigned_to
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=20.0, deadline=60.0, secure_channels=False,
        )
        sim.schedule(1.0, lambda: net.kill(combiner_device))
        report = executor.run()
        assert report.success
        assert report.delivered_by == "combiner-backup"

    def test_both_combiners_dead_query_fails(self):
        sim, net, devices, contribs, procs, querier, rows = _build_swarm()
        spec = QuerySpec(
            query_id="all-combiners-die", kind="aggregate",
            snapshot_cardinality=len(rows), group_by=_aggregate_query(),
        )
        plan = _plan_and_assign(contribs, procs, querier, spec)
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=20.0, deadline=60.0, secure_channels=False,
        )
        for name in ("combiner", "combiner-backup"):
            device = plan.operator(name).assigned_to
            sim.schedule(1.0, lambda d=device: net.kill(d))
        report = executor.run()
        assert not report.success

    def test_extrapolation_restores_totals(self):
        sim, net, devices, contribs, procs, querier, rows = _build_swarm()
        spec = QuerySpec(
            query_id="extrapolate", kind="aggregate",
            snapshot_cardinality=len(rows), group_by=_aggregate_query(),
        )
        plan = _plan_and_assign(
            contribs, procs, querier, spec,
            privacy=PrivacyParameters(max_raw_per_edgelet=10),
            resiliency=ResiliencyParameters(fault_rate=0.2),
        )
        victim = plan.operator("computer[0,g0]").assigned_to
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=20.0, deadline=60.0, secure_channels=False,
        )
        sim.schedule(1.0, lambda: net.kill(victim))
        report = executor.run()
        assert report.success
        total = report.result.rows_for(())[0]["count"]
        # extrapolated count should be near the true total despite loss
        assert total == pytest.approx(len(rows), rel=0.35)

    def test_network_stats_populated(self):
        sim, net, devices, contribs, procs, querier, rows = _build_swarm(
            n_contributors=5, n_processors=8,
        )
        spec = QuerySpec(
            query_id="stats", kind="aggregate",
            snapshot_cardinality=10, group_by=_aggregate_query(),
        )
        plan = _plan_and_assign(contribs, procs, querier, spec)
        report = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=10.0, deadline=30.0, secure_channels=False,
        ).run()
        assert report.network_stats["sent"] > 0
        assert report.network_stats["delivered"] > 0
        assert report.tuples_per_device  # builders handled raw tuples

    def test_deadline_must_exceed_collection(self):
        sim, net, devices, contribs, procs, querier, rows = _build_swarm(
            n_contributors=3, n_processors=6,
        )
        spec = QuerySpec(
            query_id="bad-deadline", kind="aggregate",
            snapshot_cardinality=5, group_by=_aggregate_query(),
        )
        plan = _plan_and_assign(contribs, procs, querier, spec)
        with pytest.raises(ExecutionError):
            ExecutionCoordinator(
                sim, net, devices, plan, collection_window=50.0, deadline=40.0,
            )


class TestKMeansExecution:
    def _spec(self, rows, heartbeats=4):
        return QuerySpec(
            query_id="kmeans-exec", kind="kmeans",
            snapshot_cardinality=len(rows), kmeans_k=3,
            feature_columns=("bmi", "systolic_bp", "glucose"),
            heartbeats=heartbeats,
        )

    def test_clustering_completes_and_is_sane(self):
        sim, net, devices, contribs, procs, querier, rows = _build_swarm(
            n_contributors=40, n_processors=15,
        )
        spec = self._spec(rows)
        plan = _plan_and_assign(
            contribs, procs, querier, spec,
            privacy=PrivacyParameters(max_raw_per_edgelet=30),
        )
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=20.0, deadline=80.0, secure_channels=False,
        )
        report = executor.run()
        assert report.success
        assert report.heartbeats_run == 4
        assert report.kmeans.centroids.shape == (3, 3)
        from repro.data.health import health_feature_matrix
        from repro.ml.kmeans import kmeans
        from repro.ml.metrics import relative_inertia_gap

        points = health_feature_matrix(rows)
        reference = kmeans(points, 3, seed=1)
        gap = relative_inertia_gap(points, report.kmeans.centroids, reference.centroids)
        assert gap < 0.6

    def test_kmeans_with_dead_computer_still_completes(self):
        sim, net, devices, contribs, procs, querier, rows = _build_swarm(
            n_contributors=40, n_processors=15,
        )
        spec = self._spec(rows)
        plan = _plan_and_assign(
            contribs, procs, querier, spec,
            privacy=PrivacyParameters(max_raw_per_edgelet=30),
            resiliency=ResiliencyParameters(fault_rate=0.2),
        )
        victim = plan.operator("computer[0,g0]").assigned_to
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=20.0, deadline=80.0, secure_channels=False,
        )
        sim.schedule(25.0, lambda: net.kill(victim))
        report = executor.run()
        assert report.success
        assert report.kmeans.knowledges_merged >= 1


class TestSketchAggregatesDistributed:
    """distinct() and hist() flow end-to-end through the executor."""

    def test_distinct_and_hist_over_the_swarm(self):
        sim, net, devices, contribs, procs, querier, rows = _build_swarm()
        query = GroupByQuery(
            grouping_sets=((),),
            aggregates=(
                AggregateSpec("distinct", "patient_id", alias="patients"),
                AggregateSpec("hist", "age", alias="ages", params=(0, 110, 11)),
            ),
        )
        spec = QuerySpec(
            query_id="sketches", kind="aggregate",
            snapshot_cardinality=len(rows), group_by=query,
        )
        plan = _plan_and_assign(contribs, procs, querier, spec)
        report = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=20.0, deadline=60.0, secure_channels=False,
        ).run()
        assert report.success
        total = report.result.rows_for(())[0]
        n_patients = len({row["patient_id"] for row in rows})
        assert total["patients"] == pytest.approx(n_patients, rel=0.15)
        assert sum(total["ages"]) == pytest.approx(len(rows), rel=0.05)

    def test_hist_median_matches_centralized(self):
        sim, net, devices, contribs, procs, querier, rows = _build_swarm()
        query = GroupByQuery(
            grouping_sets=((),),
            aggregates=(AggregateSpec("hist", "age", alias="ages",
                                      params=(0, 110, 22)),),
        )
        spec = QuerySpec(
            query_id="hist-median", kind="aggregate",
            snapshot_cardinality=len(rows), group_by=query,
        )
        plan = _plan_and_assign(contribs, procs, querier, spec)
        report = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=20.0, deadline=60.0, secure_channels=False,
        ).run()
        assert report.success
        counts = report.result.rows_for(())[0]["ages"]
        # lossless: every 5-year bucket holds exactly the centralized
        # count, so the median falls in the same bucket as the exact one
        expected = [0] * 22
        for row in rows:
            expected[min(int(row["age"] / 5), 21)] += 1
        assert counts == expected
        exact = sorted(row["age"] for row in rows)[len(rows) // 2]
        below = sum(counts[: int(exact / 5)])
        assert below <= len(rows) // 2 < below + counts[int(exact / 5)]
