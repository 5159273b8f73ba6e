"""Tests for message-level fault injection (repro.network.faults)."""

from __future__ import annotations

import random

import pytest

from repro.core.runtime.events import EventKind, of_kind
from repro.network.faults import (
    FaultSpec,
    MessageFaultInjector,
    corrupt_payload,
    parse_fault_mix,
)
from repro.network.messages import Message, MessageKind
from repro.network.opnet import NetworkConfig, OpportunisticNetwork
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph, LinkQuality


def _message(kind=MessageKind.PARTITION, payload=None):
    return Message(
        sender="a", recipient="b", kind=kind,
        payload=payload if payload is not None else {"rows": [1]},
    )


class TestFaultSpec:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(drop_probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(corrupt_probability=-0.1)
        with pytest.raises(ValueError):
            FaultSpec(delay_probability=0.1, delay_range=(5.0, 1.0))

    def test_kind_matching(self):
        spec = FaultSpec(kinds=("partition",), drop_probability=1.0)
        assert spec.matches("partition")
        assert not spec.matches("control")
        assert FaultSpec(drop_probability=1.0).matches("anything")

    def test_noop_detection(self):
        assert FaultSpec().is_noop()
        assert not FaultSpec(duplicate_probability=0.1).is_noop()

    def test_serialization_round_trip(self):
        spec = FaultSpec(
            kinds=("partition", "control"),
            drop_probability=0.1,
            duplicate_probability=0.2,
            delay_probability=0.3,
            delay_range=(2.0, 4.0),
            corrupt_probability=0.05,
            corrupt_scale=8.0,
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec


class TestParseFaultMix:
    def test_single_spec_with_kinds(self):
        (spec,) = parse_fault_mix("partition:drop=0.1,duplicate=0.2")
        assert spec.kinds == ("partition",)
        assert spec.drop_probability == 0.1
        assert spec.duplicate_probability == 0.2

    def test_multiple_specs_and_delay_range(self):
        specs = parse_fault_mix(
            "drop=0.05;control+partial_result:delay=0.3,delay_min=2,delay_max=9"
        )
        assert len(specs) == 2
        assert specs[0].kinds is None
        assert specs[1].kinds == ("control", "partial_result")
        assert specs[1].delay_range == (2.0, 9.0)

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError):
            parse_fault_mix("explode=1.0")

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError):
            parse_fault_mix("")


class TestMessageFaultInjector:
    def test_certain_drop(self):
        injector = MessageFaultInjector((FaultSpec(drop_probability=1.0),))
        decision = injector.on_send(_message())
        assert decision.drop

    def test_kind_scoping(self):
        injector = MessageFaultInjector(
            (FaultSpec(kinds=("control",), drop_probability=1.0),)
        )
        assert not injector.on_send(_message(MessageKind.PARTITION)).drop
        assert injector.on_send(_message(MessageKind.CONTROL)).drop

    def test_duplicate_adds_copies(self):
        injector = MessageFaultInjector((FaultSpec(duplicate_probability=1.0),))
        decision = injector.on_send(_message())
        assert decision.copies == 2
        assert not decision.drop

    def test_delay_within_range(self):
        injector = MessageFaultInjector(
            (FaultSpec(delay_probability=1.0, delay_range=(2.0, 3.0)),)
        )
        for _ in range(20):
            decision = injector.on_send(_message())
            assert 2.0 <= decision.extra_delay <= 3.0

    def test_clean_decisions_not_logged(self):
        injector = MessageFaultInjector((FaultSpec(drop_probability=0.0),))
        for _ in range(10):
            injector.on_send(_message())
        assert injector.decisions == []

    def test_same_seed_same_decisions(self):
        def roll(seed):
            injector = MessageFaultInjector(
                parse_fault_mix("drop=0.3,duplicate=0.3,delay=0.3"), seed=seed
            )
            return [
                (d.drop, d.copies, d.extra_delay)
                for d in (injector.on_send(_message()) for _ in range(50))
            ]

        assert roll(5) == roll(5)
        assert roll(5) != roll(6)

    def test_windowed_rules_roll_only_while_active(self):
        from repro.network.failures import MessageFault

        now = [0.0]
        injector = MessageFaultInjector(
            [
                MessageFault(FaultSpec(drop_probability=1.0), start=2.0, end=4.0),
                MessageFault(FaultSpec(corrupt_probability=1.0, corrupt_scale=3.0)),
            ],
            clock=lambda: now[0],
        )
        fates = []
        for now[0] in (1.0, 2.0, 3.9, 4.0):
            decision = injector.on_send(_message())
            fates.append((decision.drop, decision.corrupt))
        assert fates == [(False, True), (True, True), (True, True), (False, True)]
        assert injector.corrupt_payload({"v": 2}) == {"v": 6}

    def test_whole_run_atoms_draw_like_plain_specs(self):
        from repro.network.failures import MessageFault

        specs = parse_fault_mix("drop=0.3,duplicate=0.3;partition:delay=0.5")

        def roll(rules, clock):
            injector = MessageFaultInjector(rules, seed=9, clock=clock)
            return [
                injector.on_send(_message(kind))
                for kind in [MessageKind.PARTITION, MessageKind.CONTROL] * 25
            ]

        assert roll([MessageFault(spec) for spec in specs], lambda: 17.5) == roll(
            specs, None
        )


class TestCorruption:
    def test_dict_corruption_scales_data_not_structure(self):
        payload = {
            "op_id": "combiner",
            "partition_index": 3,
            "rows": [{"age": 40.0, "region": "north"}],
            "partial": {"count": 7, "total": 10.0},
        }
        corrupted = corrupt_payload(payload, scale=4.0)
        assert corrupted["op_id"] == "combiner"
        assert corrupted["partition_index"] == 3
        assert corrupted["rows"][0]["age"] == 160.0
        assert corrupted["rows"][0]["region"] == "north"
        assert corrupted["partial"]["total"] == 40.0
        # the original payload is untouched
        assert payload["rows"][0]["age"] == 40.0

    def test_envelope_corruption_breaks_authentication(self):
        from repro.crypto.envelope import open_envelope, seal_envelope
        from repro.crypto.keys import KeyRing
        from repro.crypto.primitives import AuthenticationError

        alice = KeyRing(seed=b"chaos-alice")
        bob = KeyRing(seed=b"chaos-bob")
        alice.learn_public(bob.fingerprint, bob.keypair.public)
        bob.learn_public(alice.fingerprint, alice.keypair.public)
        session = alice.session_key(bob.fingerprint)
        envelope = seal_envelope(
            alice.keypair, bob.fingerprint, session, "q1", "partition", {"x": 1}
        )
        corrupted = corrupt_payload(envelope, scale=4.0)
        assert corrupted.ciphertext != envelope.ciphertext
        with pytest.raises(AuthenticationError):
            open_envelope(corrupted, bob.session_key(alice.fingerprint))

    def test_bool_values_survive(self):
        corrupted = corrupt_payload({"__aggregate__": True, "v": 2}, scale=3.0)
        assert corrupted["__aggregate__"] is True
        assert corrupted["v"] == 6


class TestNetworkIntegration:
    def _net(self, specs, seed=0):
        sim = Simulator()
        quality = LinkQuality(
            base_latency=0.1, latency_jitter=0.0, loss_probability=0.0
        )
        topology = ContactGraph(default_quality=quality)
        net = OpportunisticNetwork(
            sim, topology,
            NetworkConfig(allow_relay=False, default_quality=quality),
            seed=seed,
        )
        delivered = []
        topology.add_device("a")
        topology.add_device("b")
        net.attach("a", lambda m: None)
        net.attach("b", delivered.append)
        net.install_faults(MessageFaultInjector(specs, seed=1))
        return sim, net, delivered

    def test_dropped_messages_never_arrive(self):
        sim, net, delivered = self._net((FaultSpec(drop_probability=1.0),))
        for _ in range(5):
            net.send(_message())
        sim.run()
        assert delivered == []
        assert net.stats.fault_dropped == 5

    def test_duplicates_arrive_twice(self):
        sim, net, delivered = self._net((FaultSpec(duplicate_probability=1.0),))
        net.send(_message())
        sim.run()
        assert len(delivered) == 2
        assert net.stats.fault_duplicated == 1

    def test_injector_does_not_perturb_network_rng(self):
        """Installing a (never-firing) injector must leave the network's
        own stochastic stream untouched — chaos off == chaos idle."""

        def deliveries(install):
            sim = Simulator()
            quality = LinkQuality(
                base_latency=0.1, latency_jitter=0.5, loss_probability=0.3
            )
            topology = ContactGraph(default_quality=quality)
            net = OpportunisticNetwork(
                sim, topology,
                NetworkConfig(allow_relay=False, default_quality=quality),
                seed=9,
            )
            log = []
            topology.add_device("a")
            topology.add_device("b")
            net.attach("a", lambda m: None)
            # payload index, not message_id: ids come from a
            # process-global counter and differ across the two runs
            net.attach("b", lambda m: log.append((m.payload["i"], sim.now)))
            if install:
                net.install_faults(
                    MessageFaultInjector((FaultSpec(drop_probability=0.0),))
                )
            for index in range(30):
                net.send(_message(payload={"i": index}))
            sim.run()
            return log

        assert deliveries(install=False) == deliveries(install=True)


class TestCorruptionDropTelemetry:
    """Tampered envelopes must be counted, not silently swallowed.

    Under secure channels a corrupted envelope fails authentication at
    the TEE boundary and the payload is dropped.  The executor counts
    every such drop in the ``executor.payloads_dropped`` counter
    (labelled by reason) so corruption campaigns can assert the
    rejection actually happened instead of inferring it from silence.
    """

    def _swarm(self, n_contributors=10, n_processors=12):
        from repro.data.health import generate_health_rows
        from repro.devices.edgelet import Edgelet
        from repro.devices.profiles import PC_SGX

        sim = Simulator()
        quality = LinkQuality(
            base_latency=0.05, latency_jitter=0.0, loss_probability=0.0
        )
        topology = ContactGraph(default_quality=quality)
        net = OpportunisticNetwork(
            sim, topology,
            NetworkConfig(allow_relay=False, buffer_timeout=300.0,
                          default_quality=quality),
            seed=3,
        )
        rows = generate_health_rows(n_contributors * 2, seed=17)
        contributors = []
        for i in range(n_contributors):
            device = Edgelet(
                PC_SGX, device_id=f"cr-contrib-{i:03d}", seed=f"crc{i}".encode()
            )
            device.datastore.insert_many(rows[2 * i: 2 * i + 2])
            contributors.append(device)
        processors = [
            Edgelet(PC_SGX, device_id=f"cr-proc-{i:03d}", seed=f"crp{i}".encode())
            for i in range(n_processors)
        ]
        querier = Edgelet(PC_SGX, device_id="cr-querier", seed=b"crq")
        devices = {d.device_id: d for d in [*contributors, *processors, querier]}
        for device_id in devices:
            topology.add_device(device_id)
        return sim, net, devices, contributors, processors, querier, rows

    def test_corrupted_envelopes_counted_as_dropped(self):
        from repro.core.assignment import assign_operators
        from repro.core.planner import (
            EdgeletPlanner,
            PrivacyParameters,
            QuerySpec,
            ResiliencyParameters,
        )
        from repro.core.qep import OperatorRole
        from repro.core.runtime import ExecutionCoordinator
        from repro.query.aggregates import AggregateSpec
        from repro.query.groupby import GroupByQuery

        sim, net, devices, contribs, procs, querier, rows = self._swarm()
        query = GroupByQuery(
            grouping_sets=((), ), aggregates=(AggregateSpec("count"),),
        )
        spec = QuerySpec(
            query_id="corrupt-drop", kind="aggregate",
            snapshot_cardinality=2 * len(rows), group_by=query,
        )
        planner = EdgeletPlanner(
            privacy=PrivacyParameters(max_raw_per_edgelet=len(rows) + 1),
            resiliency=ResiliencyParameters(fault_rate=0.1),
        )
        plan = planner.plan(spec, contributor_ids=[d.device_id for d in contribs])
        assign_operators(plan, [d.device_id for d in procs], exclusive=False)
        plan.operators(OperatorRole.QUERIER)[0].assigned_to = querier.device_id

        # every PARTITION envelope is tampered in flight
        net.install_faults(
            MessageFaultInjector(
                (FaultSpec(kinds=("partition",), corrupt_probability=1.0),),
                seed=1,
            )
        )
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=15.0, deadline=60.0, secure_channels=True,
        )
        report = executor.run()

        dropped = executor.telemetry.metrics.value(
            "executor.payloads_dropped",
            query=plan.query_id, reason="unauthenticated",
        )
        assert dropped > 0
        # the receiving TEEs logged the rejection, and no Computer ever
        # saw a clean partition, so the query cannot have succeeded
        assert of_kind(report.events, EventKind.PAYLOAD_REJECTED)
        assert not report.success

    def test_clean_run_counts_zero_drops(self):
        from repro.core.assignment import assign_operators
        from repro.core.planner import (
            EdgeletPlanner,
            PrivacyParameters,
            QuerySpec,
            ResiliencyParameters,
        )
        from repro.core.qep import OperatorRole
        from repro.core.runtime import ExecutionCoordinator
        from repro.query.aggregates import AggregateSpec
        from repro.query.groupby import GroupByQuery

        sim, net, devices, contribs, procs, querier, rows = self._swarm()
        query = GroupByQuery(
            grouping_sets=((), ), aggregates=(AggregateSpec("count"),),
        )
        spec = QuerySpec(
            query_id="corrupt-none", kind="aggregate",
            snapshot_cardinality=2 * len(rows), group_by=query,
        )
        planner = EdgeletPlanner(
            privacy=PrivacyParameters(max_raw_per_edgelet=len(rows) + 1),
            resiliency=ResiliencyParameters(fault_rate=0.1),
        )
        plan = planner.plan(spec, contributor_ids=[d.device_id for d in contribs])
        assign_operators(plan, [d.device_id for d in procs], exclusive=False)
        plan.operators(OperatorRole.QUERIER)[0].assigned_to = querier.device_id

        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=15.0, deadline=60.0, secure_channels=True,
        )
        report = executor.run()
        assert report.success
        assert executor.telemetry.metrics.value(
            "executor.payloads_dropped",
            query=plan.query_id, reason="unauthenticated",
        ) == 0.0
