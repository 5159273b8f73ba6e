"""DomYcile caregiver rounds: the paper's founding deployment.

"8,000 elderly people receiving home care in the French Yvelines
district are equipped with a secure box where their medical records are
stored and processed; the boxes are not connected to the Internet, but
are connected opportunistically by caregivers during their visits."

This example scales that regime down to a simulated district: home
boxes that are online only during periodic caregiver visits, a crew of
well-connected caregiver devices acting as Data Processors, and a
health statistic query that completes despite 75%-offline contributors
thanks to store-and-forward delivery and the Overcollection margin.
It ends with the Crowd Liability report: how evenly the processing
and the raw tuples spread over the participating devices.

Run with:  python examples/domycile_rounds.py
"""

from repro.core.assignment import assign_operators
from repro.core.liability import measure_liability
from repro.core.planner import (
    EdgeletPlanner,
    PrivacyParameters,
    QuerySpec,
    ResiliencyParameters,
)
from repro.core.qep import OperatorRole
from repro.core.runtime import ExecutionCoordinator
from repro.data import HEALTH_SCHEMA, generate_health_rows
from repro.devices.edgelet import Edgelet
from repro.devices.profiles import HOME_BOX, PC_SGX
from repro.manager.dashboard import render_report
from repro.network.mobility import CaregiverRounds
from repro.network.opnet import NetworkConfig, OpportunisticNetwork
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph, LinkQuality
from repro.query import parse_query

N_BOXES = 120
SQL = (
    "SELECT count(*), avg(age), avg(dependency_level) FROM health "
    "WHERE age > 65 GROUP BY GROUPING SETS ((region), ())"
)


def main() -> None:
    simulator = Simulator()
    quality = LinkQuality(base_latency=0.5, latency_jitter=0.3, loss_probability=0.02)
    topology = ContactGraph(default_quality=quality)
    network = OpportunisticNetwork(
        simulator, topology,
        NetworkConfig(allow_relay=False, buffer_timeout=None, default_quality=quality),
        seed=11,
    )

    rows = generate_health_rows(2 * N_BOXES, seed=11)
    boxes = []
    for i in range(N_BOXES):
        box = Edgelet(HOME_BOX, device_id=f"box-{i:04d}", seed=f"dom-ex-{i}".encode())
        box.datastore.insert_many(rows[2 * i: 2 * i + 2])
        boxes.append(box)
    caregivers = [
        Edgelet(PC_SGX, device_id=f"caregiver-{i:02d}", seed=f"dom-cg-{i}".encode())
        for i in range(20)
    ]
    querier = Edgelet(PC_SGX, device_id="sante-publique-france", seed=b"dom-spf")
    devices = {d.device_id: d for d in [*boxes, *caregivers, querier]}
    for device_id in devices:
        topology.add_device(device_id)

    # each box is visited 30s out of every 120s (25% duty cycle)
    rounds = CaregiverRounds(period=120.0, visit_duration=30.0, seed=12)
    schedule = rounds.schedule([b.device_id for b in boxes], horizon=600.0)
    duty = sum(
        schedule.online_fraction(b.device_id, 600.0) for b in boxes
    ) / len(boxes)
    print(f"{N_BOXES} home boxes, mean online fraction {duty:.0%} "
          f"(caregiver rounds)")

    spec = QuerySpec(
        query_id="domycile-survey", kind="aggregate",
        snapshot_cardinality=2 * N_BOXES, group_by=parse_query(SQL).query,
    )
    planner = EdgeletPlanner(
        privacy=PrivacyParameters(max_raw_per_edgelet=100),
        resiliency=ResiliencyParameters(fault_rate=0.4, target_success=0.99),
    )
    plan = planner.plan(spec, contributor_ids=[b.device_id for b in boxes])
    assign_operators(plan, [c.device_id for c in caregivers], exclusive=False)
    plan.operators(OperatorRole.QUERIER)[0].assigned_to = querier.device_id
    meta = plan.metadata["overcollection"]
    print(f"Plan: n={meta['n']} m={meta['m']} "
          f"(presumed fault rate 0.40, target 99%)")

    executor = ExecutionCoordinator(
        simulator, network, devices, plan,
        collection_window=400.0, deadline=550.0, secure_channels=False,
        contribution_copies=2,
    )
    schedule.install(simulator, network)
    report = executor.run()

    print()
    print(render_report(report))
    liability = measure_liability(plan, tuples_per_device=report.tuples_per_device)
    print(f"\nCrowd liability: {len(liability.operators_per_device)} participants, "
          f"gini={liability.gini_operators:.3f}, "
          f"max share={liability.max_share:.2%}")
    heaviest = max(liability.tuples_per_device.values())
    print(f"Heaviest participant handled {heaviest} raw tuples "
          f"(plan bound {meta['snapshot_cardinality'] // meta['n']})")


if __name__ == "__main__":
    main()
