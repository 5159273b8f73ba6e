"""Tests for message records and delivery receipts."""

from __future__ import annotations

import pytest

from repro.network.messages import Message, MessageKind
from repro.network.opnet import NetworkConfig, OpportunisticNetwork
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph, LinkQuality


def _network():
    simulator = Simulator()
    quality = LinkQuality(base_latency=0.1, latency_jitter=0.0)
    topology = ContactGraph(default_quality=quality)
    topology.add_link("a", "b")
    network = OpportunisticNetwork(
        simulator, topology, NetworkConfig(default_quality=quality), seed=0
    )
    network.attach("a", lambda m: None)
    network.attach("b", lambda m: None)
    return simulator, network


class TestMessage:
    def test_id_unassigned_until_sent(self):
        message = Message(
            sender="a", recipient="b", kind=MessageKind.CONTROL, payload=None
        )
        assert message.message_id is None
        assert "#?" in message.describe()

    def test_ids_monotone_per_network(self):
        _, network = _network()
        a = Message(sender="a", recipient="b", kind=MessageKind.CONTROL, payload=None)
        b = Message(sender="a", recipient="b", kind=MessageKind.CONTROL, payload=None)
        network.send(a)
        network.send(b)
        assert a.message_id == 1
        assert b.message_id > a.message_id

    def test_ids_independent_across_networks(self):
        # regression: ids used to come from a process-global counter, so
        # a second network in the same process started where the first
        # left off, breaking same-process two-run byte-identity
        _, first = _network()
        _, second = _network()
        m1 = Message(sender="a", recipient="b", kind=MessageKind.CONTROL, payload=None)
        m2 = Message(sender="a", recipient="b", kind=MessageKind.CONTROL, payload=None)
        first.send(m1)
        second.send(m2)
        assert m1.message_id == m2.message_id == 1

    def test_describe(self):
        message = Message(
            sender="a", recipient="b", kind=MessageKind.CONTRIBUTION,
            payload=None, size_bytes=128,
        )
        text = message.describe()
        assert "contribution" in text
        assert "a -> b" in text
        assert "128B" in text

    def test_in_flight_time_none_until_delivered(self):
        message = Message(sender="a", recipient="b", kind=MessageKind.CONTROL, payload=None)
        assert message.in_flight_time is None
        message.sent_at = 1.0
        assert message.in_flight_time is None
        message.delivered_at = 3.5
        assert message.in_flight_time == pytest.approx(2.5)

    def test_all_kinds_have_distinct_values(self):
        values = [kind.value for kind in MessageKind]
        assert len(values) == len(set(values))


class TestReceipts:
    def test_receipts_record_outcomes(self):
        simulator = Simulator()
        quality = LinkQuality(base_latency=0.1, latency_jitter=0.0)
        topology = ContactGraph(default_quality=quality)
        topology.add_link("a", "b")
        network = OpportunisticNetwork(
            simulator, topology, NetworkConfig(default_quality=quality), seed=0
        )
        network.attach("a", lambda m: None)
        network.attach("b", lambda m: None)
        delivered = Message(sender="a", recipient="b", kind=MessageKind.CONTROL, payload=None)
        network.send(delivered)
        simulator.run()  # let it land before the crash
        network.kill("b")
        dead = Message(sender="a", recipient="b", kind=MessageKind.CONTROL, payload=None)
        network.send(dead)
        simulator.run()
        assert delivered.delivered_at is not None
        assert dead.delivered_at is None
        assert (network.stats.delivered, network.stats.to_dead_device) == (1, 1)

    def test_delivered_receipt_carries_latency(self):
        simulator = Simulator()
        quality = LinkQuality(base_latency=0.2, latency_jitter=0.0)
        topology = ContactGraph(default_quality=quality)
        topology.add_link("a", "b")
        network = OpportunisticNetwork(
            simulator, topology, NetworkConfig(default_quality=quality), seed=0
        )
        network.attach("a", lambda m: None)
        network.attach("b", lambda m: None)
        message = Message(sender="a", recipient="b", kind=MessageKind.CONTROL,
                          payload=None, size_bytes=100)
        network.send(message)
        simulator.run()
        assert network.stats.delivered == 1
        assert message.in_flight_time == pytest.approx(0.2 + 100 / 125_000.0)
        latency = network.telemetry.metrics.histogram("net.delivery_latency")
        assert latency.count >= 1
