"""End-to-end test: the DomYcile caregiver-rounds connectivity regime.

Home boxes are offline except while a caregiver visits; contributions
only escape during visit windows, and messages to offline processors
wait in store-and-forward buffers.  The query must still complete —
this is the paper's founding use case.
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
from repro.core.runtime import ExecutionCoordinator
from repro.data.health import generate_health_rows
from repro.devices.edgelet import Edgelet
from repro.devices.profiles import HOME_BOX, PC_SGX
from repro.network.mobility import CaregiverRounds
from repro.network.opnet import NetworkConfig, OpportunisticNetwork
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph, LinkQuality
from repro.query.aggregates import AggregateSpec
from repro.query.groupby import GroupByQuery


def _build(duty_period=40.0, visit=20.0, horizon=200.0):
    simulator = Simulator()
    quality = LinkQuality(base_latency=0.2, latency_jitter=0.1, loss_probability=0.0)
    topology = ContactGraph(default_quality=quality)
    network = OpportunisticNetwork(
        simulator, topology,
        NetworkConfig(allow_relay=False, buffer_timeout=None, default_quality=quality),
        seed=3,
    )
    rows = generate_health_rows(80, seed=6)
    boxes = []
    for i in range(40):
        box = Edgelet(HOME_BOX, device_id=f"dom-box-{i:03d}", seed=f"dom{i}".encode())
        box.datastore.insert_many(rows[2 * i: 2 * i + 2])
        boxes.append(box)
    # processors are caregiver PCs / well-connected devices
    processors = [
        Edgelet(PC_SGX, device_id=f"dom-pc-{i:02d}", seed=f"dompc{i}".encode())
        for i in range(12)
    ]
    querier = Edgelet(PC_SGX, device_id="dom-querier", seed=b"domq")
    devices = {d.device_id: d for d in [*boxes, *processors, querier]}
    for device_id in devices:
        topology.add_device(device_id)

    rounds = CaregiverRounds(period=duty_period, visit_duration=visit, seed=4)
    schedule = rounds.schedule([b.device_id for b in boxes], horizon=horizon)
    return simulator, network, devices, boxes, processors, querier, rows, schedule


class TestDomYcileRounds:
    def test_query_completes_despite_intermittent_boxes(self):
        sim, net, devices, boxes, procs, querier, rows, schedule = _build()
        query = GroupByQuery(
            grouping_sets=((),),
            aggregates=(AggregateSpec("count"), AggregateSpec("avg", "age")),
        )
        spec = QuerySpec(
            query_id="domycile", kind="aggregate",
            snapshot_cardinality=2 * len(rows), group_by=query,
        )
        planner = EdgeletPlanner(
            privacy=PrivacyParameters(max_raw_per_edgelet=len(rows) + 1),
            resiliency=ResiliencyParameters(fault_rate=0.3),
        )
        plan = planner.plan(spec, contributor_ids=[b.device_id for b in boxes])
        assign_operators(plan, [p.device_id for p in procs], exclusive=False)
        plan.operators(OperatorRole.QUERIER)[0].assigned_to = querier.device_id

        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=120.0, deadline=180.0, secure_channels=False,
        )
        schedule.install(sim, net)
        report = executor.run()
        assert report.success
        count = report.result.rows_for(())[0]["count"]
        # boxes are online half the time; a decent fraction contributes
        assert count >= 0.25 * len(rows)

    def test_lower_duty_cycle_collects_less(self):
        counts = {}
        for label, visit in (("long", 30.0), ("short", 4.0)):
            sim, net, devices, boxes, procs, querier, rows, schedule = _build(
                duty_period=40.0, visit=visit
            )
            query = GroupByQuery(
                grouping_sets=((),), aggregates=(AggregateSpec("count"),),
            )
            spec = QuerySpec(
                query_id=f"dom-duty-{label}", kind="aggregate",
                snapshot_cardinality=2 * len(rows), group_by=query,
            )
            planner = EdgeletPlanner(
                privacy=PrivacyParameters(max_raw_per_edgelet=len(rows) + 1),
                resiliency=ResiliencyParameters(fault_rate=0.3),
            )
            plan = planner.plan(spec, contributor_ids=[b.device_id for b in boxes])
            assign_operators(plan, [p.device_id for p in procs], exclusive=False)
            plan.operators(OperatorRole.QUERIER)[0].assigned_to = querier.device_id
            executor = ExecutionCoordinator(
                sim, net, devices, plan,
                collection_window=120.0, deadline=180.0, secure_channels=False,
            )
            schedule.install(sim, net)
            report = executor.run()
            counts[label] = (
                report.result.rows_for(())[0]["count"] if report.success else 0
            )
        assert counts["long"] > counts["short"]

    def test_store_and_forward_bridges_offline_processors(self):
        """A processor offline at partial-send time still gets the data
        when its next contact window opens (infinite buffers)."""
        sim, net, devices, boxes, procs, querier, rows, schedule = _build()
        # put ONE processor on a sparse visit schedule too
        sparse = CaregiverRounds(period=60.0, visit_duration=15.0, seed=9)
        proc_schedule = sparse.schedule([procs[0].device_id], horizon=200.0)
        query = GroupByQuery(
            grouping_sets=((),), aggregates=(AggregateSpec("count"),),
        )
        spec = QuerySpec(
            query_id="dom-snf", kind="aggregate",
            snapshot_cardinality=2 * len(rows), group_by=query,
        )
        planner = EdgeletPlanner(
            privacy=PrivacyParameters(max_raw_per_edgelet=len(rows) + 1),
            resiliency=ResiliencyParameters(fault_rate=0.3),
        )
        plan = planner.plan(spec, contributor_ids=[b.device_id for b in boxes])
        assign_operators(plan, [p.device_id for p in procs], exclusive=False)
        plan.operators(OperatorRole.QUERIER)[0].assigned_to = querier.device_id
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=120.0, deadline=180.0, secure_channels=False,
        )
        schedule.install(sim, net)
        proc_schedule.install(sim, net)
        report = executor.run()
        assert report.success
