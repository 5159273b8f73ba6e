"""NRG — energy cost of Edgelet plans (the intro's motivation).

The paper motivates Edgelet computing partly by the energy cost of
server-centric data management and notes that operator decomposition
"can help minimizing the workload (e.g., when energy consumption
matters)".  This bench quantifies the model's energy surface:

* analytic plan-cost estimates across strategies and fault rates;
* measured per-device energy of a real execution, showing that no
  single participant pays a disproportionate bill (the energy side of
  crowd liability).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _scenarios import aggregate_spec, fast_scenario_config
from _tables import print_table

from repro.core.cost import EnergyModel, estimate_plan_cost, measure_execution_cost
from repro.core.planner import (
    EdgeletPlanner,
    PrivacyParameters,
    QuerySpec,
    ResiliencyParameters,
)
from repro.core.resiliency import replicas_for
from repro.manager.scenario import Scenario
from repro.query.sql import parse_query

SQL = "SELECT count(*), avg(age) FROM health GROUP BY GROUPING SETS ((region), ())"
MODEL = EnergyModel()


def _plan(strategy: str, fault_rate: float, kind: str = "aggregate", heartbeats: int = 4):
    kwargs = dict(query_id=f"nrg-{strategy}-{kind}-{fault_rate}", kind=kind,
                  snapshot_cardinality=2000)
    if kind == "aggregate":
        kwargs["group_by"] = parse_query(SQL).query
    else:
        kwargs.update(kmeans_k=3, feature_columns=("bmi", "systolic_bp"),
                      heartbeats=heartbeats)
    planner = EdgeletPlanner(
        privacy=PrivacyParameters(max_raw_per_edgelet=250),
        resiliency=ResiliencyParameters(
            fault_rate=fault_rate, replicas=replicas_for(strategy)
        ),
    )
    return planner.plan(QuerySpec(**kwargs), n_contributors=100)


def test_nrg_strategy_energy_comparison(benchmark):
    """Energy estimate: resiliency is not free, and strategies differ."""
    rows = []
    for strategy in ("overcollection", "backup"):
        for fault_rate in (0.05, 0.2, 0.4):
            estimate = estimate_plan_cost(_plan(strategy, fault_rate))
            rows.append([
                strategy, fault_rate, estimate.messages,
                f"{estimate.bytes / 1024:.0f} KiB",
                f"{estimate.energy_joules(MODEL) * 1000:.2f} mJ",
            ])
    print_table(
        "NRG: estimated plan energy vs strategy and fault rate [C=2000]",
        ["strategy", "fault rate", "messages", "bytes", "energy"],
        rows,
    )
    over = estimate_plan_cost(_plan("overcollection", 0.4))
    cheap = estimate_plan_cost(_plan("overcollection", 0.05))
    assert over.energy_joules(MODEL) > cheap.energy_joules(MODEL)

    benchmark(lambda: estimate_plan_cost(_plan("overcollection", 0.2)))


def test_nrg_heartbeats_cost_energy(benchmark):
    """Each K-Means heartbeat buys accuracy with gossip energy."""
    rows = []
    for heartbeats in (1, 2, 4, 8, 16):
        estimate = estimate_plan_cost(
            _plan("overcollection", 0.1, kind="kmeans", heartbeats=heartbeats)
        )
        rows.append([
            heartbeats, estimate.per_stage["knowledge"],
            f"{estimate.energy_joules(MODEL) * 1000:.2f} mJ",
        ])
    print_table(
        "NRG: K-Means heartbeats vs gossip energy",
        ["heartbeats", "knowledge messages", "estimated energy"],
        rows,
    )
    energies = [float(row[2].split()[0]) for row in rows]
    assert energies == sorted(energies)

    benchmark(lambda: estimate_plan_cost(
        _plan("overcollection", 0.1, kind="kmeans", heartbeats=8)
    ))


def test_nrg_measured_energy_is_crowd_fair(benchmark):
    """Measured execution: the worst participant's bill stays a small
    fraction of the total (energy-side crowd liability)."""
    config = fast_scenario_config(n_contributors=150, n_rows=300, seed=29)
    scenario = Scenario(config)
    spec = aggregate_spec("nrg-exec", cardinality=200)
    result = scenario.run_query(
        spec,
        privacy=PrivacyParameters(max_raw_per_edgelet=40),
        resiliency=ResiliencyParameters(fault_rate=0.2),
    )
    assert result.report.success
    cost = measure_execution_cost(
        scenario.network, result.report.tuples_per_device, MODEL
    )
    share = cost.max_device_joules / cost.total_joules
    print_table(
        "NRG: measured per-device energy [150 contributors]",
        ["metric", "value"],
        [
            ["total energy", f"{cost.total_joules * 1000:.2f} mJ"],
            ["devices billed", len(cost.per_device_joules)],
            ["worst single device", f"{cost.max_device_joules * 1000:.3f} mJ"],
            ["worst share of total", f"{share:.1%}"],
        ],
    )
    assert share < 0.35

    def run():
        cfg = fast_scenario_config(n_contributors=60, n_rows=120, seed=30)
        sc = Scenario(cfg)
        res = sc.run_query(aggregate_spec("nrg-bench", 80),
                           privacy=PrivacyParameters(max_raw_per_edgelet=30))
        return measure_execution_cost(sc.network, res.report.tuples_per_device)

    benchmark.pedantic(run, rounds=3, iterations=1)
