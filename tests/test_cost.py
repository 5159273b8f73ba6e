"""Tests for the energy/workload cost model."""

from __future__ import annotations

import pytest

from repro.core.cost import (
    EnergyModel,
    estimate_plan_cost,
    measure_execution_cost,
)
from repro.core.planner import (
    EdgeletPlanner,
    PrivacyParameters,
    QuerySpec,
    ResiliencyParameters,
)
from repro.core.resiliency import replicas_for
from repro.query.sql import parse_query

SQL = "SELECT count(*), avg(age) FROM health GROUP BY GROUPING SETS ((region), ())"


def _plan(fault_rate=0.1, strategy="overcollection", kind="aggregate",
          heartbeats=4, n_contributors=40):
    spec_kwargs = dict(
        query_id=f"cost-{strategy}-{kind}", kind=kind, snapshot_cardinality=1000,
    )
    if kind == "aggregate":
        spec_kwargs["group_by"] = parse_query(SQL).query
    else:
        spec_kwargs.update(
            kmeans_k=3, feature_columns=("bmi", "systolic_bp"),
            heartbeats=heartbeats,
        )
    planner = EdgeletPlanner(
        privacy=PrivacyParameters(max_raw_per_edgelet=250),
        resiliency=ResiliencyParameters(
            fault_rate=fault_rate, replicas=replicas_for(strategy)
        ),
    )
    return planner.plan(QuerySpec(**spec_kwargs), n_contributors=n_contributors)


class TestEnergyModel:
    def test_defaults_valid(self):
        model = EnergyModel()
        assert model.joules_per_byte_tx > 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            EnergyModel(joules_per_byte_tx=-1.0)


class TestPlanEstimate:
    def test_stages_present(self):
        estimate = estimate_plan_cost(_plan())
        assert set(estimate.per_stage) == {
            "contribution", "partition", "knowledge", "partial", "final",
        }
        assert estimate.messages == sum(estimate.per_stage.values())

    def test_contribution_count_matches_contributors(self):
        estimate = estimate_plan_cost(_plan(n_contributors=40))
        assert estimate.per_stage["contribution"] == 40

    def test_higher_fault_rate_costs_more(self):
        cheap = estimate_plan_cost(_plan(fault_rate=0.05))
        pricey = estimate_plan_cost(_plan(fault_rate=0.4))
        assert pricey.messages > cheap.messages
        assert pricey.bytes > cheap.bytes
        assert pricey.work_units > cheap.work_units

    def test_kmeans_gossip_counted(self):
        aggregate = estimate_plan_cost(_plan(kind="aggregate"))
        kmeans = estimate_plan_cost(_plan(kind="kmeans", heartbeats=6))
        assert aggregate.per_stage["knowledge"] == 0
        assert kmeans.per_stage["knowledge"] > 0

    def test_more_heartbeats_more_energy(self):
        few = estimate_plan_cost(_plan(kind="kmeans", heartbeats=2))
        many = estimate_plan_cost(_plan(kind="kmeans", heartbeats=8))
        model = EnergyModel()
        assert many.energy_joules(model) > few.energy_joules(model)

    def test_backup_contributions_fan_out_to_replicas(self):
        over = estimate_plan_cost(_plan(strategy="overcollection"))
        backup = estimate_plan_cost(_plan(strategy="backup"))
        assert backup.per_stage["contribution"] == 2 * over.per_stage["contribution"]

    def test_energy_positive(self):
        estimate = estimate_plan_cost(_plan())
        assert estimate.energy_joules(EnergyModel()) > 0


class TestMeasuredCost:
    def _executed(self):
        from repro.core.assignment import assign_operators
        from repro.core.runtime import ExecutionCoordinator
        from repro.core.qep import OperatorRole
        from repro.data.health import generate_health_rows
        from repro.devices.edgelet import Edgelet
        from repro.devices.profiles import PC_SGX
        from repro.network.opnet import NetworkConfig, OpportunisticNetwork
        from repro.network.simulator import Simulator
        from repro.network.topology import ContactGraph, LinkQuality

        simulator = Simulator()
        quality = LinkQuality(base_latency=0.05, latency_jitter=0.0)
        topology = ContactGraph(default_quality=quality)
        network = OpportunisticNetwork(
            simulator, topology,
            NetworkConfig(allow_relay=False, default_quality=quality), seed=2,
        )
        rows = generate_health_rows(40, seed=4)
        contributors = []
        for i in range(20):
            device = Edgelet(PC_SGX, device_id=f"cost-c{i:02d}", seed=f"costc{i}".encode())
            device.datastore.insert_many(rows[2 * i: 2 * i + 2])
            contributors.append(device)
        processors = [
            Edgelet(PC_SGX, device_id=f"cost-p{i:02d}", seed=f"costp{i}".encode())
            for i in range(10)
        ]
        querier = Edgelet(PC_SGX, device_id="cost-q", seed=b"costq")
        devices = {d.device_id: d for d in [*contributors, *processors, querier]}
        for device_id in devices:
            topology.add_device(device_id)
        spec = QuerySpec(
            query_id="cost-exec", kind="aggregate",
            snapshot_cardinality=80, group_by=parse_query(SQL).query,
        )
        planner = EdgeletPlanner(privacy=PrivacyParameters(max_raw_per_edgelet=50))
        plan = planner.plan(spec, contributor_ids=[d.device_id for d in contributors])
        assign_operators(plan, [p.device_id for p in processors], exclusive=False)
        plan.operators(OperatorRole.QUERIER)[0].assigned_to = querier.device_id
        report = ExecutionCoordinator(
            simulator, network, devices, plan,
            collection_window=10.0, deadline=40.0, secure_channels=False,
        ).run()
        return network, report

    def test_measured_cost_positive_and_consistent(self):
        network, report = self._executed()
        cost = measure_execution_cost(network, report.tuples_per_device)
        assert report.success
        assert cost.total_joules > 0
        assert cost.max_device_joules <= cost.total_joules
        assert cost.max_device_joules == max(cost.per_device_joules.values())

    def test_every_sender_billed(self):
        network, report = self._executed()
        cost = measure_execution_cost(network, report.tuples_per_device)
        for device_id in network.stats.bytes_by_sender:
            assert cost.per_device_joules.get(device_id, 0.0) > 0

    def test_custom_model_scales_cost(self):
        network, report = self._executed()
        base = measure_execution_cost(network, report.tuples_per_device)
        double = measure_execution_cost(
            network, report.tuples_per_device,
            EnergyModel(
                joules_per_byte_tx=2 * 8e-7,
                joules_per_byte_rx=2 * 6e-7,
                joules_per_work_unit=2e-6,
            ),
        )
        assert double.total_joules == pytest.approx(2 * base.total_joules)
