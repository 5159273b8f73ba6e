"""Scale smoke: swarm bring-up must stay linear in the number of devices.

Asserted by count, not by clock.  With one stored link per device pair
this swarm needs 9.7 million of them (gigabytes, minutes), and a
whole-plan acyclicity check per dataflow edge is quadratic in plan size;
the test fails by construction if either comes back.  The timed ladder
up to the paper's 8,000-patient population is
``benchmarks/bench_scalability.py``.
"""

from __future__ import annotations

import networkx as nx

from repro.core.planner import PrivacyParameters, QuerySpec
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.manager.scenario import Scenario, ScenarioConfig
from repro.network.topology import ContactGraph
from repro.query.sql import parse_query

N_CONTRIBUTORS = 4_000
N_PROCESSORS = 400
N_SPAWNED = 50


def test_large_swarm_builds_grows_and_answers_without_pairwise_work(monkeypatch):
    pairwise_links = []
    monkeypatch.setattr(
        ContactGraph, "add_link",
        lambda self, a, b, quality=None: pairwise_links.append((a, b)),
    )
    whole_plan_checks = []
    monkeypatch.setattr(
        nx, "is_directed_acyclic_graph",
        lambda graph: whole_plan_checks.append(graph) or True,
    )

    scenario = Scenario(ScenarioConfig(
        n_contributors=N_CONTRIBUTORS,
        n_processors=N_PROCESSORS,
        rows=generate_health_rows(N_CONTRIBUTORS, seed=17),
        schema=HEALTH_SCHEMA,
        device_mix=(1.0, 0.0, 0.0),
        collection_window=20.0,
        deadline=80.0,
        secure_channels=False,
        seed=17,
    ))
    for offset in range(N_SPAWNED):
        scenario.spawn_contributor(N_CONTRIBUTORS + offset)
    topology = scenario.network.topology
    swarm = N_CONTRIBUTORS + N_PROCESSORS + N_SPAWNED + 1  # + querier

    assert len(topology.devices) == swarm
    assert sum(len(links) for links in topology._links.values()) == 0
    assert topology.degree_histogram() == {swarm - 1: swarm}
    newcomer = scenario.contributors[-1].device_id
    assert topology.quality(newcomer, scenario.querier_device.device_id) is not None

    sql = (
        "SELECT count(*), avg(age) FROM health "
        "GROUP BY GROUPING SETS ((region), ())"
    )
    spec = QuerySpec(
        query_id="scale-smoke", kind="aggregate",
        snapshot_cardinality=N_CONTRIBUTORS, group_by=parse_query(sql).query,
    )
    result = scenario.run_query(
        spec, privacy=PrivacyParameters(max_raw_per_edgelet=N_CONTRIBUTORS // 8)
    )

    assert result.report.success
    assert len(result.plan.edges()) > N_CONTRIBUTORS
    assert whole_plan_checks == []
    assert pairwise_links == []
