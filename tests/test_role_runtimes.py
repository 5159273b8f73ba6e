"""Per-role runtime isolation tests.

Each role runtime (:mod:`repro.core.runtime`) is driven directly with
scripted message payloads — no full scenario, no coordinator dispatch —
so a regression in one role's intake logic fails in that role's test
instead of surfacing as a flaky end-to-end mismatch.  Every class
covers the happy path plus at least one duplicate / out-of-order case,
the two message pathologies the opportunistic network actually
produces.
"""

from __future__ import annotations

import itertools

from repro.core.assignment import assign_operators
from repro.core.planner import (
    EdgeletPlanner,
    PrivacyParameters,
    QuerySpec,
    ResiliencyParameters,
)
from repro.core.qep import OperatorRole
from repro.core.runtime import (
    BuilderRuntime,
    CombinerRuntime,
    ComputerRuntime,
    ContributorRuntime,
    ExecutionContext,
    QuerierRuntime,
    StrategyRuntime,
    ship_partition,
)
from repro.core.runtime.events import EventKind, of_kind
from repro.data.health import generate_health_rows
from repro.devices.edgelet import Edgelet
from repro.devices.profiles import PC_SGX
from repro.network.messages import MessageKind
from repro.network.opnet import NetworkConfig, OpportunisticNetwork
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph, LinkQuality
from repro.query.aggregates import AggregateSpec
from repro.query.groupby import GroupByQuery, evaluate_group_by


# the metrics registry is process-global and keyed by (name, labels);
# a fresh query_id per harness keeps each test's counters at zero
_QUERY_IDS = itertools.count()


def _harness(n_contributors=8, n_processors=10):
    """A swarm + plan + bare ExecutionContext, and a message capture.

    Returns ``(ctx, captured)`` where ``captured`` accumulates every
    delivered ``(recipient_id, message)`` pair: the runtimes under test
    are fed payloads directly and their *outbound* traffic is observed
    through the capture instead of another runtime.
    """
    simulator = Simulator()
    quality = LinkQuality(base_latency=0.05, latency_jitter=0.0, loss_probability=0.0)
    topology = ContactGraph(default_quality=quality)
    network = OpportunisticNetwork(
        simulator, topology,
        NetworkConfig(allow_relay=False, buffer_timeout=300.0, default_quality=quality),
        seed=5,
    )
    rows = generate_health_rows(n_contributors * 2, seed=13)
    contributors = []
    for i in range(n_contributors):
        device = Edgelet(PC_SGX, device_id=f"rr-contrib-{i:03d}", seed=f"rrc{i}".encode())
        device.datastore.insert_many(rows[2 * i: 2 * i + 2])
        contributors.append(device)
    processors = [
        Edgelet(PC_SGX, device_id=f"rr-proc-{i:03d}", seed=f"rrp{i}".encode())
        for i in range(n_processors)
    ]
    querier = Edgelet(PC_SGX, device_id="rr-querier", seed=b"rrq")
    devices = {d.device_id: d for d in [*contributors, *processors, querier]}
    for device_id in devices:
        topology.add_device(device_id)

    query = GroupByQuery(
        grouping_sets=((), ),
        aggregates=(AggregateSpec("count"), AggregateSpec("avg", "age")),
    )
    spec = QuerySpec(
        query_id=f"role-runtime-{next(_QUERY_IDS)}", kind="aggregate",
        snapshot_cardinality=2 * len(rows), group_by=query,
    )
    planner = EdgeletPlanner(
        privacy=PrivacyParameters(max_raw_per_edgelet=len(rows) + 1),
        resiliency=ResiliencyParameters(fault_rate=0.1),
    )
    plan = planner.plan(spec, contributor_ids=[d.device_id for d in contributors])
    assign_operators(plan, [d.device_id for d in processors], exclusive=False)
    plan.operators(OperatorRole.QUERIER)[0].assigned_to = querier.device_id

    ctx = ExecutionContext(
        simulator, network, devices, plan,
        collection_window=15.0, deadline=60.0, secure_channels=False,
    )
    captured: list[tuple[str, object]] = []
    for device_id in devices:
        network.attach(
            device_id,
            (lambda did: lambda message: captured.append((did, message)))(device_id),
        )
    return ctx, captured


def _sample_rows():
    return [
        {"age": 30.0, "region": "north"},
        {"age": 50.0, "region": "south"},
    ]


class TestContributorRuntime:
    def test_happy_path_schedules_and_delivers_every_contribution(self):
        ctx, captured = _harness()
        runtime = ContributorRuntime(ctx)
        runtime.schedule_contributions()
        # one jittered send armed per contributor (contribution_copies=1)
        n = len(ctx.plan.operators(OperatorRole.DATA_CONTRIBUTOR))
        assert ctx.simulator.pending == n
        ctx.simulator.run()
        contributions = [
            message for _, message in captured
            if message.kind is MessageKind.CONTRIBUTION
        ]
        assert len(contributions) == n
        # every send lands inside the jitter window and carries a
        # replay-stable dedup id plus the receiver's partition index
        for message in contributions:
            payload = message.payload
            assert payload["contribution_id"].endswith(payload["op_id"])
            assert "partition_index" in payload
            assert payload["rows"]

    def test_offline_contributor_stays_silent(self):
        ctx, captured = _harness()
        runtime = ContributorRuntime(ctx)
        silenced = ctx.plan.operators(OperatorRole.DATA_CONTRIBUTOR)[0]
        ctx.network.set_online(silenced.params["device"], False)
        runtime.schedule_contributions()
        ctx.simulator.run()
        contributions = [
            message for _, message in captured
            if message.kind is MessageKind.CONTRIBUTION
        ]
        n = len(ctx.plan.operators(OperatorRole.DATA_CONTRIBUTOR))
        assert len(contributions) == n - 1
        senders = {message.sender for message in contributions}
        assert silenced.params["device"] not in senders


class TestBuilderRuntime:
    def _contribution(self, ctx, partition_index, rows, contribution_id="c-1"):
        return {
            "op_id": f"builder[{partition_index}]",
            "partition_index": partition_index,
            "contribution_id": contribution_id,
            "rows": rows,
        }

    def test_happy_path_accepts_and_freezes(self):
        ctx, captured = _harness()
        runtime = BuilderRuntime(ctx)
        runtime.index()
        partition_index = min(runtime.builder_by_partition)
        builder = runtime.builder_by_partition[partition_index]
        device = ctx.device_of(builder)
        runtime.on_contribution(
            device, self._contribution(ctx, partition_index, _sample_rows())
        )
        assert runtime.rows_by_partition[partition_index] == _sample_rows()
        assert ctx.report.tuples_per_device[device.device_id] == 2

        runtime.run(builder, device, on_sent=lambda: None)
        assert [
            event.op
            for event in of_kind(ctx.report.events, EventKind.SNAPSHOT_FROZEN)
        ] == [builder.op_id]
        ctx.simulator.run()
        partitions = [
            message for _, message in captured
            if message.kind is MessageKind.PARTITION
        ]
        # the frozen partition ships one projection per Computer group
        assert partitions
        assert all(
            message.payload["partition_index"] == partition_index
            for message in partitions
        )

    def test_partition_payload_is_routing_and_rows_only(self):
        ctx, captured = _harness()
        runtime = BuilderRuntime(ctx)
        runtime.index()
        partition_index = min(runtime.builder_by_partition)
        builder = runtime.builder_by_partition[partition_index]
        device = ctx.device_of(builder)
        runtime.on_contribution(
            device, self._contribution(ctx, partition_index, _sample_rows())
        )

        def shipped():
            ctx.simulator.run()
            payloads = [
                message.payload for _, message in captured
                if message.kind is MessageKind.PARTITION
            ]
            captured.clear()
            return payloads

        keys = {"op_id", "partition_index", "group_index", "rows"}
        runtime.run(builder, device, on_sent=lambda: None)
        frozen = shipped()
        assert frozen
        assert all(set(payload) == keys for payload in frozen)
        # a reprovisioning re-ship also carries its fencing token
        consumer = ctx.plan.consumers_of(builder.op_id)[0]
        ship_partition(
            ctx, device, partition_index, _sample_rows(), [consumer], generation=3
        )
        (reshipped,) = shipped()
        assert set(reshipped) == keys | {"generation"}
        assert reshipped["generation"] == 3

    def test_duplicate_contribution_dropped_by_bloom(self):
        ctx, _ = _harness()
        runtime = BuilderRuntime(ctx)
        runtime.index()
        partition_index = min(runtime.builder_by_partition)
        device = ctx.device_of(runtime.builder_by_partition[partition_index])
        payload = self._contribution(ctx, partition_index, _sample_rows(), "dup-1")
        runtime.on_contribution(device, payload)
        runtime.on_contribution(device, payload)  # retransmission
        assert len(runtime.rows_by_partition[partition_index]) == 2
        assert ctx.m_contributions.value == 1.0

    def test_distinct_contribution_is_never_taken_for_a_retransmission(self):
        # after these 64 ids, a Bloom filter sized for them at a 0.1%
        # error rate reported contribution-x1282 as seen and dropped it
        ctx, _ = _harness()
        seen = [{"contribution_id": f"contribution-{i}"} for i in range(64)]
        assert not any(
            ctx.is_duplicate_contribution("builder[0]", payload) for payload in seen
        )
        assert not ctx.is_duplicate_contribution(
            "builder[0]", {"contribution_id": "contribution-x1282"}
        )
        assert all(
            ctx.is_duplicate_contribution("builder[0]", payload) for payload in seen
        )

    def test_late_contribution_after_freeze_is_ignored(self):
        ctx, _ = _harness()
        runtime = BuilderRuntime(ctx)
        runtime.index()
        partition_index = min(runtime.builder_by_partition)
        device = ctx.device_of(runtime.builder_by_partition[partition_index])
        late = self._contribution(ctx, partition_index, _sample_rows(), "late-1")
        ctx.simulator.schedule_at(
            ctx.collect_end + 1.0,
            lambda: runtime.on_contribution(device, late),
            "late contribution",
        )
        ctx.simulator.run()
        assert runtime.rows_by_partition[partition_index] == []
        assert ctx.m_contributions.value == 0.0

    def test_partition_cap_truncates_overflow(self):
        ctx, _ = _harness()
        runtime = BuilderRuntime(ctx)
        runtime.index()
        partition_index = min(runtime.builder_by_partition)
        device = ctx.device_of(runtime.builder_by_partition[partition_index])
        cap = ctx.config.partition_cardinality
        flood = [{"age": float(i), "region": "north"} for i in range(cap + 5)]
        runtime.on_contribution(
            device, self._contribution(ctx, partition_index, flood, "flood-1")
        )
        assert len(runtime.rows_by_partition[partition_index]) == cap


def _on_partition(ctx, runtime, device, payload):
    """Deliver one partition through the rank rule (rank 0: fold now)."""
    StrategyRuntime(ctx, BuilderRuntime(ctx), runtime).on_partition(device, payload)


class TestComputerRuntime:
    def _partition(self, partition_index, rows):
        return {
            "op_id": f"computer[{partition_index},g0]",
            "partition_index": partition_index,
            "group_index": 0,
            "rows": rows,
        }

    def test_happy_path_ships_partial_to_both_combiners(self):
        ctx, captured = _harness()
        runtime = ComputerRuntime(ctx)
        runtime.index()
        computer = runtime.computers[0]
        partition_index = computer.params["partition_index"]
        device = ctx.device_of(computer)
        payload = self._partition(partition_index, _sample_rows())
        _on_partition(ctx, runtime, device, payload)
        ctx.simulator.run()
        partials = [
            message for _, message in captured
            if message.kind is MessageKind.PARTIAL_RESULT
        ]
        assert {m.payload["op_id"] for m in partials} == {"combiner", "combiner-backup"}
        assert all(
            m.payload["partition_index"] == partition_index for m in partials
        )

    def test_duplicate_partition_runs_exactly_once(self):
        ctx, captured = _harness()
        runtime = ComputerRuntime(ctx)
        runtime.index()
        computer = runtime.computers[0]
        partition_index = computer.params["partition_index"]
        device = ctx.device_of(computer)
        payload = self._partition(partition_index, _sample_rows())
        _on_partition(ctx, runtime, device, payload)
        _on_partition(ctx, runtime, device, payload)  # duplicated in transit
        ctx.simulator.run()
        partials = [
            message for _, message in captured
            if message.kind is MessageKind.PARTIAL_RESULT
        ]
        assert len(partials) == 2  # one per combiner, not four
        # tuples attributed once, not double-counted
        assert ctx.report.tuples_per_device[device.device_id] == 2

    def test_unknown_partition_is_ignored(self):
        ctx, captured = _harness()
        runtime = ComputerRuntime(ctx)
        runtime.index()
        device = ctx.device_of(runtime.computers[0])
        payload = self._partition(10_000, _sample_rows())
        _on_partition(ctx, runtime, device, payload)
        ctx.simulator.run()
        assert not [
            message for _, message in captured
            if message.kind is MessageKind.PARTIAL_RESULT
        ]


class TestCombinerRuntime:
    def _partial_payload(self, ctx, partition_index, op_id="combiner"):
        partial = evaluate_group_by(ctx.query, _sample_rows())
        return {
            "op_id": op_id,
            "partition_index": partition_index,
            "group_index": 0,
            "partial": partial.to_dict(),
        }

    def _runtime(self, ctx):
        computer = ComputerRuntime(ctx)
        computer.index()
        return CombinerRuntime(ctx, computer)

    def test_happy_path_records_and_finalizes(self):
        ctx, captured = _harness()
        runtime = self._runtime(ctx)
        device = ctx.device_of(ctx.plan.operator("combiner"))
        for partition_index in range(ctx.config.total_partitions):
            runtime.on_partial_result(
                device, self._partial_payload(ctx, partition_index)
            )
        state = runtime.states["combiner"]
        assert len(state.partials) == ctx.config.total_partitions
        assert state.tally_summary()["received"] == ctx.config.total_partitions

        runtime.finalize()
        ctx.simulator.run()
        finals = [
            message for _, message in captured
            if message.kind is MessageKind.FINAL_RESULT
        ]
        # only the primary combiner heard partials; the backup had
        # nothing to finalize
        assert len(finals) == 1
        payload = finals[0].payload
        assert payload["combiner"] == "combiner"
        (rows,) = payload["rows"]
        assert rows[0]["count"] == 2 * ctx.config.total_partitions

    def test_duplicate_partial_is_idempotent(self):
        ctx, _ = _harness()
        runtime = self._runtime(ctx)
        device = ctx.device_of(ctx.plan.operator("combiner"))
        payload = self._partial_payload(ctx, 0)
        runtime.on_partial_result(device, payload)
        runtime.on_partial_result(device, payload)  # network duplicate
        state = runtime.states["combiner"]
        assert len(state.partials) == 1
        assert state.group_tallies[0].received_count == 1

    def test_partial_for_unknown_combiner_is_ignored(self):
        ctx, _ = _harness()
        runtime = self._runtime(ctx)
        device = ctx.device_of(ctx.plan.operator("combiner"))
        runtime.on_partial_result(
            device, self._partial_payload(ctx, 0, op_id="combiner-impostor")
        )
        assert not runtime.states["combiner"].partials
        assert not runtime.states["combiner-backup"].partials


class TestQuerierRuntime:
    def _final_payload(self, ctx, combiner="combiner"):
        result = evaluate_group_by(ctx.query, _sample_rows())
        from repro.query.groupby import finalize_partials

        finalized = finalize_partials(ctx.query, result)
        return {
            "combiner": combiner,
            "tally": {"received": 3, "valid": True, "n": 2, "m": 1},
            "rows": [list(rows) for rows in finalized.per_set_rows],
        }

    def test_happy_path_fills_the_report(self):
        ctx, _ = _harness()
        runtime = QuerierRuntime(ctx)
        runtime.on_final_result(self._final_payload(ctx))
        assert ctx.report.success
        assert ctx.report.delivered_by == "combiner"
        assert ctx.report.completion_time == ctx.simulator.now
        assert ctx.report.received_partitions == 3
        assert ctx.report.result is not None
        assert ctx.report.result.all_rows()[0]["count"] == 2

    def test_out_of_order_backup_duplicate_is_deduped(self):
        ctx, _ = _harness()
        runtime = QuerierRuntime(ctx)
        # the backup's result overtook the primary's in transit
        runtime.on_final_result(self._final_payload(ctx, combiner="combiner-backup"))
        runtime.on_final_result(self._final_payload(ctx))
        assert ctx.report.delivered_by == "combiner-backup"  # first wins
        # one delivery recorded: the exec.final_results count it publishes
        assert len(of_kind(ctx.report.events, EventKind.DELIVERED)) == 1

    def test_stats_before_kmeans_outcome_is_ignored(self):
        ctx, _ = _harness()
        runtime = QuerierRuntime(ctx)
        # an aggregate run has no kmeans outcome to attach stats to
        runtime.on_final_result({"combiner": "combiner", "stats_rows": [[]]})
        assert not runtime.stats_delivered
        assert not ctx.report.success
