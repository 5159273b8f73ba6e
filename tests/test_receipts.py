"""Delivery and transport receipts: the records callers read.

Both layers keep a receipt per message (opnet) or per acknowledged
transfer (transport) for the whole run, as plain tuples the collector
stops tracking; the ``receipts`` properties build the records on read.
These tests pin what a reader sees — records, order, field names — on
one seeded lossy run, so the storage behind them can change freely.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
from collections import Counter

import repro.network
from repro.network import reliable
from repro.network.messages import Message, MessageKind
from repro.network.opnet import DeliveryReceipt, NetworkConfig, OpportunisticNetwork
from repro.network.reliable import ReliableTransport, TransportReceipt
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph, LinkQuality

KINDS = (
    MessageKind.CONTRIBUTION,
    MessageKind.PARTIAL_RESULT,
    MessageKind.CONTROL,
    MessageKind.HEARTBEAT,
)


def _lossy_run():
    """40 sends over a lossy triangle, an offline device, an unreachable
    device and a crash halfway through."""
    sim = Simulator()
    quality = LinkQuality(
        base_latency=0.1, latency_jitter=0.05, loss_probability=0.2
    )
    topology = ContactGraph(default_quality=quality)
    for a, b in (("a", "b"), ("a", "c"), ("b", "c")):
        topology.add_link(a, b)
    network = OpportunisticNetwork(
        sim,
        topology,
        NetworkConfig(default_quality=quality, buffer_timeout=3.0),
        seed=7,
    )
    transport = ReliableTransport(network, seed=7)
    for device in "abcd":
        transport.attach(device, lambda message: None)
    network.set_online("c", False)
    for i in range(40):
        message = Message(
            sender="ab"[i % 2],
            recipient="bcda"[i % 4],
            kind=KINDS[i % len(KINDS)],
            payload=i,
            size_bytes=100 + i,
        )
        sim.schedule(0.5 * i, lambda message=message: transport.send(message))
    sim.schedule(10.0, lambda: network.kill("b"))
    sim.run()
    return network, transport


def _digest(records) -> str:
    rows = [dataclasses.asdict(record) for record in records]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


class TestRecords:
    def test_field_names(self):
        assert [f.name for f in dataclasses.fields(DeliveryReceipt)] == [
            "message_id", "outcome", "latency",
        ]
        assert [f.name for f in dataclasses.fields(TransportReceipt)] == [
            "transfer_id", "kind", "sender", "recipient", "outcome",
            "attempts", "rtt",
        ]

    def test_records_exported_from_the_network_package(self):
        assert repro.network.DeliveryReceipt is DeliveryReceipt
        assert repro.network.TransportReceipt is TransportReceipt
        assert {"DeliveryReceipt", "TransportReceipt"} <= set(
            repro.network.__all__
        )

    def test_network_receipts_are_pinned(self):
        network, _ = _lossy_run()
        receipts = network.receipts
        assert all(type(r) is DeliveryReceipt for r in receipts)
        assert Counter(r.outcome for r in receipts) == {
            "delivered": 17, "lost": 10, "no_route": 10,
            "dropped_timeout": 7, "dead": 5,
        }
        assert _digest(receipts) == "2273db42646057aa"

    def test_transport_receipts_are_pinned(self):
        _, transport = _lossy_run()
        receipts = transport.receipts
        assert all(type(r) is TransportReceipt for r in receipts)
        assert Counter(r.outcome for r in receipts) == {
            "circuit_open": 10, "acked": 5, "peer_dead": 5,
        }
        assert _digest(receipts) == "30a52b6348ed26a8"

    def test_same_seed_same_records(self):
        first, second = _lossy_run(), _lossy_run()
        assert first[0].receipts == second[0].receipts
        assert first[1].receipts == second[1].receipts

    def test_each_read_builds_fresh_records(self):
        network, _ = _lossy_run()
        network.receipts[0].outcome = "tampered"
        assert network.receipts[0].outcome != "tampered"

    def test_stored_receipts_leave_the_collectors_view(self):
        network, transport = _lossy_run()
        gc.collect()
        stored = [*network._receipts, *transport._receipts]
        assert stored and not any(gc.is_tracked(entry) for entry in stored)

    def test_reset_clears_both(self):
        network, transport = _lossy_run()
        assert network.receipts and transport.receipts
        network.simulator.reset()
        network.reset()
        transport.reset()
        assert network.receipts == []
        assert transport.receipts == []


class TestLinksThatNeverFailed:
    def test_rto_and_breaker_answer_for_an_unused_link(self):
        _, transport = _lossy_run()
        assert transport.rto_for("c", "a") == reliable.INITIAL_RTO
        breaker = transport.breaker_for("c", "a")
        assert (breaker.is_open, breaker.failures, breaker.opened_count) == (
            False, 0, 0,
        )
        assert breaker.allows(0.0)

    def test_clean_acks_build_no_breaker(self):
        sim = Simulator()
        quality = LinkQuality(base_latency=0.1, latency_jitter=0.0)
        topology = ContactGraph(default_quality=quality)
        topology.add_link("a", "b")
        network = OpportunisticNetwork(
            sim, topology, NetworkConfig(default_quality=quality), seed=0
        )
        transport = ReliableTransport(network, seed=0)
        transport.attach("a", lambda message: None)
        transport.attach("b", lambda message: None)
        for i in range(3):
            transport.send(
                Message(
                    sender="a", recipient="b",
                    kind=MessageKind.CONTRIBUTION, payload=i,
                )
            )
        sim.run()
        assert [r.outcome for r in transport.receipts] == ["acked"] * 3
        # the breaker is built on a link's first failure; until then the
        # link reads as a fresh, closed one
        assert transport._breakers == {}
        assert not transport.breaker_for("a", "b").is_open
        assert transport.rto_for("a", "b") < reliable.INITIAL_RTO
