"""Integration tests for the Backup strategy executor (live takeovers)."""

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
from repro.core.resiliency import TAKEOVER_TIMEOUT
from repro.core.runtime import (
    ExecutionCoordinator,
    ExecutionError,
)
from repro.core.runtime.events import EventKind, of_kind
from repro.core.validity import compare_results
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
from tests.evidence_logs import takeovers


def _swarm(n_contributors=20, n_processors=25):
    simulator = Simulator()
    quality = LinkQuality(base_latency=0.05, latency_jitter=0.0, loss_probability=0.0)
    topology = ContactGraph(default_quality=quality)
    network = OpportunisticNetwork(
        simulator, topology,
        NetworkConfig(allow_relay=False, buffer_timeout=300.0, default_quality=quality),
        seed=7,
    )
    rows = generate_health_rows(n_contributors * 2, seed=13)
    contributors = []
    for i in range(n_contributors):
        device = Edgelet(PC_SGX, device_id=f"bk-contrib-{i:03d}", seed=f"bkc{i}".encode())
        device.datastore.insert_many(rows[2 * i: 2 * i + 2])
        contributors.append(device)
    processors = [
        Edgelet(PC_SGX, device_id=f"bk-proc-{i:03d}", seed=f"bkp{i}".encode())
        for i in range(n_processors)
    ]
    querier = Edgelet(PC_SGX, device_id="bk-querier", seed=b"bkq")
    devices = {d.device_id: d for d in [*contributors, *processors, querier]}
    for device_id in devices:
        topology.add_device(device_id)
    return simulator, network, devices, contributors, processors, querier, rows


def _backup_plan(
    contributors, processors, querier, rows, replicas=1, resiliency=None
):
    """The test query planned under Backup, or under ``resiliency``."""
    query = GroupByQuery(
        grouping_sets=(("region",), ()),
        aggregates=(AggregateSpec("count"), AggregateSpec("avg", "age")),
    )
    # C is set to twice the data size so hash-imbalanced partitions
    # never hit the C/n cap — exactness against the full dataset holds.
    spec = QuerySpec(
        query_id="backup-exec", kind="aggregate",
        snapshot_cardinality=2 * len(rows), group_by=query,
    )
    planner = EdgeletPlanner(
        privacy=PrivacyParameters(max_raw_per_edgelet=len(rows) + 1),
        resiliency=resiliency
        or ResiliencyParameters(replicas=replicas),
    )
    plan = planner.plan(spec, contributor_ids=[d.device_id for d in contributors])
    assign_operators(plan, [d.device_id for d in processors], exclusive=False)
    plan.operators(OperatorRole.QUERIER)[0].assigned_to = querier.device_id
    return plan, spec


class TestBackupExecutor:
    def test_no_failures_primaries_only(self):
        sim, net, devices, contribs, procs, querier, rows = _swarm()
        plan, spec = _backup_plan(contribs, procs, querier, rows)
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=15.0, deadline=60.0, secure_channels=False,
        )
        report = executor.run()
        assert report.success
        assert takeovers(executor.evidence()) == []

        engine = CentralizedEngine()
        engine.register("data", Relation(HEALTH_SCHEMA, rows))
        central = engine.execute_logical("data", spec.group_by)
        assert compare_results(central, report.result).exact_match

    def test_dead_builder_replica_takes_over(self):
        sim, net, devices, contribs, procs, querier, rows = _swarm()
        plan, spec = _backup_plan(contribs, procs, querier, rows)
        victim = plan.operator("builder[0]").assigned_to
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=15.0, deadline=80.0, secure_channels=False,
        )
        sim.schedule(1.0, lambda: net.kill(victim))
        report = executor.run()
        assert report.success
        takeover_bases = {base for _, base, _ in takeovers(executor.evidence())}
        assert "builder[0]" in takeover_bases
        # the replica held the same contributions: result still exact
        engine = CentralizedEngine()
        engine.register("data", Relation(HEALTH_SCHEMA, rows))
        central = engine.execute_logical("data", spec.group_by)
        assert compare_results(central, report.result).exact_match

    def test_dead_computer_replica_takes_over(self):
        sim, net, devices, contribs, procs, querier, rows = _swarm()
        plan, spec = _backup_plan(contribs, procs, querier, rows)
        victim = plan.operator("computer[0,g0]").assigned_to
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=15.0, deadline=80.0, secure_channels=False,
        )
        sim.schedule(1.0, lambda: net.kill(victim))
        report = executor.run()
        assert report.success
        takeover_bases = {base for _, base, _ in takeovers(executor.evidence())}
        assert "computer[0,g0]" in takeover_bases

    def test_two_replicas_survive_double_failure(self):
        sim, net, devices, contribs, procs, querier, rows = _swarm(n_processors=30)
        plan, spec = _backup_plan(contribs, procs, querier, rows, replicas=2)
        primary = plan.operator("builder[0]").assigned_to
        first_replica = plan.operator("builder[0].b1").assigned_to
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=15.0, deadline=100.0, secure_channels=False,
        )
        sim.schedule(1.0, lambda: net.kill(primary))
        sim.schedule(1.0, lambda: net.kill(first_replica))
        report = executor.run()
        assert report.success
        ranks = {
            rank for _, base, rank in takeovers(executor.evidence())
            if base == "builder[0]"
        }
        assert 2 in ranks  # the second replica fired

    def test_takeover_adds_latency(self):
        sim1, net1, dev1, c1, p1, q1, rows = _swarm()
        plan1, _ = _backup_plan(c1, p1, q1, rows)
        fast = ExecutionCoordinator(
            sim1, net1, dev1, plan1,
            collection_window=15.0, deadline=80.0, secure_channels=False,
        ).run()

        sim2, net2, dev2, c2, p2, q2, rows2 = _swarm()
        plan2, _ = _backup_plan(c2, p2, q2, rows2)
        victim = plan2.operator("builder[0]").assigned_to
        executor = ExecutionCoordinator(
            sim2, net2, dev2, plan2,
            collection_window=15.0, deadline=80.0, secure_channels=False,
        )
        sim2.schedule(1.0, lambda: net2.kill(victim))
        slow = executor.run()
        assert fast.success and slow.success
        # the takeover happened one TAKEOVER_TIMEOUT after the primary's
        # slot; the final delivery is deadline-driven so completion times
        # match, but the replica's snapshot freeze appears that much
        # after collection end
        freeze_times = [
            event.time for event in of_kind(slow.events, EventKind.SNAPSHOT_FROZEN)
        ]
        assert max(freeze_times) >= min(freeze_times) + TAKEOVER_TIMEOUT

    def test_replica_answers_for_the_dead_primary_partition(self):
        """Who processed what, read from the events and the per-device
        tally of a run whose ``builder[0]`` dies."""
        sim, net, devices, contribs, procs, querier, rows = _swarm()
        plan, _ = _backup_plan(contribs, procs, querier, rows)
        victim = plan.operator("builder[0]").assigned_to
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=15.0, deadline=80.0, secure_channels=False,
        )
        sim.schedule(1.0, lambda: net.kill(victim))
        report = executor.run()
        assert report.success
        frozen = {
            event.op: event.fields["rows"]
            for event in of_kind(report.events, EventKind.SNAPSHOT_FROZEN)
        }
        # the replica that took over the dead primary's partition is the
        # one that answers for it; every row is accounted for exactly once
        assert set(frozen) == {"builder[0].b1", "builder[1]"}
        buckets = executor.builder.buckets
        assert frozen == {op_id: len(buckets[op_id]) for op_id in frozen}
        assert sum(frozen.values()) == len(rows)
        # each device is charged the contributions its builders took in
        # plus its computers' partition rows, and nothing else: a
        # combiner or the querier handles no raw tuple
        partition_rows = {0: frozen["builder[0].b1"], 1: frozen["builder[1]"]}
        charged: dict[str, int] = {}
        for builder in plan.operators(OperatorRole.SNAPSHOT_BUILDER):
            device = builder.assigned_to
            charged[device] = charged.get(device, 0) + len(buckets[builder.op_id])
        for computer in plan.operators(OperatorRole.COMPUTER):
            device = computer.assigned_to
            charged[device] = (
                charged.get(device, 0)
                + partition_rows[computer.params["partition_index"]]
            )
        tallies = report.tuples_per_device
        assert tallies == {device: n for device, n in charged.items() if n}
        assert querier.device_id not in tallies

    def test_kmeans_plan_with_replicas_is_refused(self):
        sim, net, devices, contribs, procs, querier, rows = _swarm(
            n_contributors=5, n_processors=10,
        )
        spec = QuerySpec(
            query_id="kmeans-replicas", kind="kmeans", snapshot_cardinality=10,
            kmeans_k=2, feature_columns=("bmi", "glucose"), heartbeats=2,
        )
        planner = EdgeletPlanner(
            resiliency=ResiliencyParameters(replicas=1)
        )
        plan = planner.plan(spec, contributor_ids=[d.device_id for d in contribs])
        assign_operators(plan, [d.device_id for d in procs], exclusive=False)
        plan.operators(OperatorRole.QUERIER)[0].assigned_to = querier.device_id
        with pytest.raises(ExecutionError, match="gossip history"):
            ExecutionCoordinator(
                sim, net, devices, plan,
                collection_window=10.0, deadline=30.0,
            )
