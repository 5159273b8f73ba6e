"""Q-GEN — §3.3 "Can any form of computation be handled?"

Demonstrates the generality claims:

* both demo query classes complete on the same substrate — a Grouping
  Sets SQL query and a K-Means clustering;
* Overcollection applies to distributive processing; for the rest the
  Backup strategy works "at the price of a higher complexity and lower
  performance" — measured here as plan size, messages, and worst-case
  latency of sequential takeovers.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _scenarios import aggregate_spec, fast_scenario_config
from _tables import print_table

from repro.core.planner import (
    EdgeletPlanner,
    PrivacyParameters,
    QuerySpec,
    ResiliencyParameters,
)
from repro.core.resiliency import TAKEOVER_TIMEOUT, worst_case_delay
from repro.core.runtime.events import EventKind, of_kind
from repro.core.runtime.strategy import base_op_id
from repro.manager.scenario import Scenario
from repro.query.sql import parse_query


def test_qgen_both_query_classes_complete(benchmark):
    """Grouping Sets and K-Means run on the same swarm."""
    config = fast_scenario_config(n_contributors=100, n_rows=200, seed=21,
                                  deadline=80.0)
    scenario = Scenario(config)
    sql_spec = aggregate_spec("qgen-sql", cardinality=150)
    sql_result = scenario.run_query(
        sql_spec, privacy=PrivacyParameters(max_raw_per_edgelet=50)
    )
    kmeans_spec = QuerySpec(
        query_id="qgen-kmeans", kind="kmeans", snapshot_cardinality=150,
        kmeans_k=3, feature_columns=("bmi", "systolic_bp", "glucose"),
        heartbeats=4,
    )
    kmeans_result = scenario.run_query(
        kmeans_spec, privacy=PrivacyParameters(max_raw_per_edgelet=50)
    )
    print_table(
        "Q-GEN: generality — both demo queries on one swarm",
        ["query", "success", "result size"],
        [
            ["Grouping Sets (SQL)", sql_result.report.success,
             len(sql_result.report.result.all_rows())],
            ["K-Means (k=3)", kmeans_result.report.success,
             kmeans_result.report.kmeans.centroids.shape if
             kmeans_result.report.kmeans is not None else "-"],
        ],
    )
    assert sql_result.report.success and kmeans_result.report.success

    def run():
        cfg = fast_scenario_config(n_contributors=40, n_rows=80, seed=22)
        sc = Scenario(cfg)
        return sc.run_query(aggregate_spec("qgen-bench", 60))

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_qgen_overcollection_vs_backup_cost(benchmark):
    """Strategy taxonomy: Backup costs more (operators, latency)."""
    spec_sql = (
        "SELECT count(*), avg(age) FROM health GROUP BY GROUPING SETS ((region), ())"
    )
    spec = QuerySpec(
        query_id="qgen-compare", kind="aggregate", snapshot_cardinality=400,
        group_by=parse_query(spec_sql).query,
    )
    over_planner = EdgeletPlanner(
        privacy=PrivacyParameters(max_raw_per_edgelet=100),
        resiliency=ResiliencyParameters(fault_rate=0.2),
    )
    backup_planner = EdgeletPlanner(
        privacy=PrivacyParameters(max_raw_per_edgelet=100),
        resiliency=ResiliencyParameters(fault_rate=0.2, replicas=2),
    )
    over_plan = over_planner.plan(spec, n_contributors=50)
    backup_plan = backup_planner.plan(spec, n_contributors=50)

    over_processors = sum(
        1 for op in over_plan.operators() if op.role.is_data_processor
    )
    backup_processors = sum(
        1 for op in backup_plan.operators() if op.role.is_data_processor
    )
    print_table(
        "Q-GEN: Overcollection vs Backup cost [n=4, p=0.2]",
        ["strategy", "data processors", "edges", "worst extra latency (s)",
         "applies to"],
        [
            ["overcollection", over_processors, len(over_plan.edges()), 0.0,
             "distributive ops"],
            ["backup (2 replicas)", backup_processors, len(backup_plan.edges()),
             worst_case_delay(2), "any op"],
        ],
    )
    # per-partition redundancy: backup replicates operators, edges blow up
    assert len(backup_plan.edges()) > len(over_plan.edges())

    benchmark(lambda: backup_planner.plan(spec, n_contributors=50))


def _run_backup_execution(kills: int, replicas: int = 1, seed: int = 3):
    """One Backup-strategy run with ``builder[0]``'s first ``kills`` ranks
    killed during collection; returns ``(report, executor)``."""
    from repro.core.assignment import assign_operators
    from repro.core.runtime import ExecutionCoordinator
    from repro.core.qep import OperatorRole
    from repro.data.health import generate_health_rows
    from repro.devices.edgelet import Edgelet
    from repro.devices.profiles import PC_SGX
    from repro.network.opnet import NetworkConfig, OpportunisticNetwork
    from repro.network.simulator import Simulator
    from repro.network.topology import ContactGraph, LinkQuality
    from repro.query.aggregates import AggregateSpec
    from repro.query.groupby import GroupByQuery

    tag = f"qg{seed}r{replicas}k{kills}"
    simulator = Simulator()
    quality = LinkQuality(base_latency=0.05, latency_jitter=0.0, loss_probability=0.0)
    topology = ContactGraph(default_quality=quality)
    network = OpportunisticNetwork(
        simulator, topology,
        NetworkConfig(allow_relay=False, buffer_timeout=300.0, default_quality=quality),
        seed=seed,
    )
    rows = generate_health_rows(40, seed=seed)
    contributors = []
    for i in range(20):
        device = Edgelet(PC_SGX, device_id=f"{tag}-c{i:02d}", seed=f"{tag}c{i}".encode())
        device.datastore.insert_many(rows[2 * i: 2 * i + 2])
        contributors.append(device)
    processors = [
        Edgelet(PC_SGX, device_id=f"{tag}-p{i:02d}", seed=f"{tag}p{i}".encode())
        for i in range(25)
    ]
    querier = Edgelet(PC_SGX, device_id=f"{tag}-q", seed=f"{tag}q".encode())
    devices = {d.device_id: d for d in [*contributors, *processors, querier]}
    for device_id in devices:
        topology.add_device(device_id)

    query = GroupByQuery(grouping_sets=((),), aggregates=(AggregateSpec("count"),))
    spec = QuerySpec(
        query_id=f"qgen-runtime-{tag}", kind="aggregate",
        snapshot_cardinality=2 * len(rows), group_by=query,
    )
    planner = EdgeletPlanner(
        privacy=PrivacyParameters(max_raw_per_edgelet=len(rows) + 1),
        resiliency=ResiliencyParameters(replicas=replicas),
    )
    plan = planner.plan(spec, contributor_ids=[d.device_id for d in contributors])
    assign_operators(plan, [p.device_id for p in processors], exclusive=False)
    plan.operators(OperatorRole.QUERIER)[0].assigned_to = querier.device_id
    executor = ExecutionCoordinator(
        simulator, network, devices, plan,
        collection_window=15.0, deadline=100.0, secure_channels=False,
    )
    for rank in range(kills):
        suffix = "" if rank == 0 else f".b{rank}"
        victim = plan.operator(f"builder[0]{suffix}").assigned_to
        simulator.schedule(1.0, lambda victim=victim: network.kill(victim))
    return executor.run(), executor


def _freezes(report, base: str | None = None) -> list[tuple[float, str]]:
    """(time, op id) of every snapshot freeze, optionally of one base."""
    return [
        (event.time, event.op)
        for event in of_kind(report.events, EventKind.SNAPSHOT_FROZEN)
        if base is None or base_op_id(event.op) == base
    ]


def _takeovers(executor) -> list[tuple[str, int]]:
    """(base op, rank) of every replica takeover."""
    return [
        (event.fields["base"], event.fields["rank"])
        for event in of_kind(executor.report.events, EventKind.TAKEOVER)
    ]


def test_qgen_backup_takeover_chain(benchmark):
    """The runtime chain recovers from cascading primary failures: each
    killed rank hands ``builder[0]`` to the next one, one timeout later."""
    rows = []
    for kills in (0, 1, 2):
        report, executor = _run_backup_execution(kills, replicas=2)
        [(freeze_at, shipped_by)] = _freezes(report, "builder[0]")
        promotions = [r for base, r in _takeovers(executor) if base == "builder[0]"]
        rows.append(
            [kills, report.success, shipped_by,
             ", ".join(map(str, promotions)) or "-",
             freeze_at - executor.collect_end]
        )
    print_table(
        f"Q-GEN: Backup takeover chain [2 replicas, "
        f"{TAKEOVER_TIMEOUT:.0f}s timeout, runtime]",
        ["ranks killed", "success", "builder[0] shipped by", "promotions",
         "added latency (s)"],
        rows,
    )
    assert [row[1] for row in rows] == [True, True, True]
    assert [row[2] for row in rows] == ["builder[0]", "builder[0].b1", "builder[0].b2"]
    assert [row[4] for row in rows] == [
        0.0, TAKEOVER_TIMEOUT, 2 * TAKEOVER_TIMEOUT,
    ]

    benchmark.pedantic(
        lambda: _run_backup_execution(2, replicas=2), rounds=2, iterations=1
    )


def test_qgen_backup_runtime_takeover_latency(benchmark):
    """Measured: a takeover delays the snapshot by the timeout, and the
    query still completes (the 'lower performance' of the taxonomy)."""
    measured = []
    for kills in (0, 1):
        report, executor = _run_backup_execution(kills)
        freeze = max((t for t, _ in _freezes(report)), default=0.0)
        measured.append((report.success, len(_takeovers(executor)), freeze))
    (ok_clean, takeovers_clean, freeze_clean), (ok_kill, takeovers_kill, freeze_kill) = measured
    print_table(
        "Q-GEN: Backup executor runtime takeover "
        f"[timeout {TAKEOVER_TIMEOUT:.0f}s]",
        ["scenario", "success", "takeovers", "last snapshot freeze (t)"],
        [
            ["no failure", ok_clean, takeovers_clean, f"{freeze_clean:.1f}"],
            ["primary killed", ok_kill, takeovers_kill, f"{freeze_kill:.1f}"],
        ],
    )
    assert ok_clean and ok_kill
    assert takeovers_clean == 0 and takeovers_kill >= 1
    assert freeze_kill >= freeze_clean + TAKEOVER_TIMEOUT - 1.0

    benchmark.pedantic(lambda: _run_backup_execution(1), rounds=2, iterations=1)
