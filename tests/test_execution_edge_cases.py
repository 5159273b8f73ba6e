"""Edge-case and failure-injection tests for the executor."""

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
from repro.core.runtime import ExecutionCoordinator
from repro.data.health import generate_health_rows
from repro.devices.edgelet import Edgelet
from repro.devices.profiles import PC_SGX
from repro.network.opnet import NetworkConfig, OpportunisticNetwork
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph, LinkQuality
from repro.query.aggregates import AggregateSpec
from repro.query.expressions import ColumnRef, CompareExpr, Literal
from repro.query.groupby import GroupByQuery


def _swarm(n_contributors=15, n_processors=12, rows_per_contrib=2, seed=1):
    simulator = Simulator()
    quality = LinkQuality(base_latency=0.05, latency_jitter=0.0, loss_probability=0.0)
    topology = ContactGraph(default_quality=quality)
    network = OpportunisticNetwork(
        simulator, topology,
        NetworkConfig(allow_relay=False, buffer_timeout=100.0, default_quality=quality),
        seed=seed,
    )
    rows = generate_health_rows(n_contributors * rows_per_contrib, seed=seed)
    contributors = []
    for i in range(n_contributors):
        device = Edgelet(PC_SGX, device_id=f"ec{seed}-c{i:03d}", seed=f"ec{seed}c{i}".encode())
        device.datastore.insert_many(
            rows[rows_per_contrib * i: rows_per_contrib * (i + 1)]
        )
        contributors.append(device)
    processors = [
        Edgelet(PC_SGX, device_id=f"ec{seed}-p{i:02d}", seed=f"ec{seed}p{i}".encode())
        for i in range(n_processors)
    ]
    querier = Edgelet(PC_SGX, device_id=f"ec{seed}-q", seed=f"ec{seed}q".encode())
    devices = {d.device_id: d for d in [*contributors, *processors, querier]}
    for device_id in devices:
        topology.add_device(device_id)
    return simulator, network, devices, contributors, processors, querier, rows


def _query(where=None):
    return GroupByQuery(
        grouping_sets=((),),
        aggregates=(AggregateSpec("count"), AggregateSpec("avg", "age")),
        where=where,
    )


def _plan(contribs, procs, querier, spec, **planner_kwargs):
    planner = EdgeletPlanner(**planner_kwargs)
    plan = planner.plan(spec, contributor_ids=[d.device_id for d in contribs])
    assign_operators(plan, [p.device_id for p in procs], exclusive=False)
    plan.operators(OperatorRole.QUERIER)[0].assigned_to = querier.device_id
    return plan


class TestCollectionEdgeCases:
    def test_empty_datastores_yield_failure(self):
        sim, net, devices, contribs, procs, querier, rows = _swarm()
        for device in contribs:
            device.datastore.clear()
        spec = QuerySpec(
            query_id="empty-stores", kind="aggregate",
            snapshot_cardinality=10, group_by=_query(),
        )
        plan = _plan(contribs, procs, querier, spec)
        report = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=10.0, deadline=30.0, secure_channels=False,
        ).run()
        # no rows collected anywhere -> combiner has nothing -> failure
        assert not report.success

    def test_filter_excludes_everything(self):
        sim, net, devices, contribs, procs, querier, rows = _swarm()
        impossible = CompareExpr(">", ColumnRef("age"), Literal(1000))
        spec = QuerySpec(
            query_id="impossible-filter", kind="aggregate",
            snapshot_cardinality=10, group_by=_query(where=impossible),
        )
        plan = _plan(contribs, procs, querier, spec)
        report = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=10.0, deadline=30.0, secure_channels=False,
        ).run()
        assert not report.success

    def test_partition_cap_enforced(self):
        sim, net, devices, contribs, procs, querier, rows = _swarm(
            n_contributors=20, rows_per_contrib=4,
        )
        # C much smaller than the available data: snapshots must cap
        spec = QuerySpec(
            query_id="capped", kind="aggregate",
            snapshot_cardinality=20, group_by=_query(),
        )
        plan = _plan(
            contribs, procs, querier, spec,
            privacy=PrivacyParameters(max_raw_per_edgelet=10),
        )
        report = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=10.0, deadline=40.0, secure_channels=False,
        ).run()
        assert report.success
        cap = plan.metadata["overcollection"]
        per_partition = -(-cap["snapshot_cardinality"] // cap["n"])
        count = report.result.rows_for(())[0]["count"]
        assert count <= (cap["n"] + cap["m"]) * per_partition

    def test_late_contributions_rejected(self):
        sim, net, devices, contribs, procs, querier, rows = _swarm()
        spec = QuerySpec(
            query_id="late", kind="aggregate",
            snapshot_cardinality=100, group_by=_query(),
        )
        plan = _plan(contribs, procs, querier, spec)
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=10.0, deadline=40.0, secure_channels=False,
        )
        # keep one contributor offline until after the collection window;
        # its buffered contribution must not enter the frozen snapshot
        victim = contribs[0].device_id
        executor.attach_handlers()
        net.set_online(victim, False)
        sim.schedule(15.0, lambda: net.set_online(victim, True))
        executor.contributor.schedule_contributions()
        sim.schedule_at(executor.collect_end, executor.end_collection)
        sim.schedule_at(executor.deadline_at, executor.finalize)
        sim.run_until(executor.deadline_at + 10.0)
        assert executor.report.success or True  # snapshot semantics below
        collected = sum(len(b) for b in executor.builder_rows.values())
        assert collected <= len(rows) - 2  # the late rows are absent


class TestDeliveryEdgeCases:
    def test_offline_querier_fails_query(self):
        sim, net, devices, contribs, procs, querier, rows = _swarm()
        spec = QuerySpec(
            query_id="querier-away", kind="aggregate",
            snapshot_cardinality=100, group_by=_query(),
        )
        plan = _plan(contribs, procs, querier, spec)
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=10.0, deadline=40.0, secure_channels=False,
        )
        sim.schedule(1.0, lambda: net.kill(querier.device_id))
        report = executor.run()
        assert not report.success

    def test_querier_briefly_offline_gets_buffered_result(self):
        sim, net, devices, contribs, procs, querier, rows = _swarm()
        spec = QuerySpec(
            query_id="querier-late", kind="aggregate",
            snapshot_cardinality=100, group_by=_query(),
        )
        plan = _plan(contribs, procs, querier, spec)
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=10.0, deadline=40.0, secure_channels=False,
        )
        sim.schedule(35.0, lambda: net.set_online(querier.device_id, False))
        sim.schedule(42.0, lambda: net.set_online(querier.device_id, True))
        report = executor.run()
        assert report.success  # store-and-forward bridged the gap

    def test_duplicate_final_results_deduplicated(self):
        sim, net, devices, contribs, procs, querier, rows = _swarm()
        spec = QuerySpec(
            query_id="dupes", kind="aggregate",
            snapshot_cardinality=100, group_by=_query(),
        )
        plan = _plan(contribs, procs, querier, spec)
        report = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=10.0, deadline=40.0, secure_channels=False,
        ).run()
        assert report.success
        # both combiner and backup fired, but exactly one delivery won
        deliveries = [m for _, m in report.trace if "querier received" in m]
        assert len(deliveries) == 1


class TestVerticalPartitionExecution:
    def test_three_column_groups_stitch_correctly(self):
        sim, net, devices, contribs, procs, querier, rows = _swarm(
            n_processors=30,
        )
        query = GroupByQuery(
            grouping_sets=(("region",), ()),
            aggregates=(
                AggregateSpec("count"),
                AggregateSpec("avg", "age"),
                AggregateSpec("avg", "bmi"),
                AggregateSpec("avg", "glucose"),
            ),
        )
        spec = QuerySpec(
            query_id="three-groups", kind="aggregate",
            snapshot_cardinality=2 * len(rows), group_by=query,
        )
        plan = _plan(
            contribs, procs, querier, spec,
            privacy=PrivacyParameters(
                max_raw_per_edgelet=len(rows) + 1,
                separated_pairs=(("age", "bmi"), ("age", "glucose"),
                                 ("bmi", "glucose")),
            ),
        )
        assert len(plan.metadata["column_groups"]) == 3
        report = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=10.0, deadline=40.0, secure_channels=False,
        ).run()
        assert report.success
        total = report.result.rows_for(())[0]
        # every aggregate present despite living in different groups
        assert total["count"] == len(rows)
        for name in ("avg_age", "avg_bmi", "avg_glucose"):
            assert total[name] is not None

    def test_vertical_groups_match_centralized(self):
        from repro.core.validity import compare_results
        from repro.data.health import HEALTH_SCHEMA
        from repro.query.engine import CentralizedEngine
        from repro.query.relation import Relation

        sim, net, devices, contribs, procs, querier, rows = _swarm(
            n_processors=30, seed=8,
        )
        query = GroupByQuery(
            grouping_sets=(("region",),),
            aggregates=(
                AggregateSpec("count"),
                AggregateSpec("avg", "age"),
                AggregateSpec("avg", "bmi"),
            ),
        )
        spec = QuerySpec(
            query_id="vgroups-central", kind="aggregate",
            snapshot_cardinality=2 * len(rows), group_by=query,
        )
        plan = _plan(
            contribs, procs, querier, spec,
            privacy=PrivacyParameters(
                max_raw_per_edgelet=len(rows) + 1,
                separated_pairs=(("age", "bmi"),),
            ),
        )
        report = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=10.0, deadline=40.0, secure_channels=False,
        ).run()
        assert report.success
        engine = CentralizedEngine()
        engine.register("data", Relation(HEALTH_SCHEMA, rows))
        central = engine.execute_logical("data", query)
        assert compare_results(central, report.result).exact_match
