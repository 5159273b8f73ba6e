"""Tests for the opportunistic network layer."""

from __future__ import annotations

import pytest

from repro.network.messages import Message, MessageKind
from repro.network.opnet import NetworkConfig, NetworkStats, OpportunisticNetwork
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph, LinkQuality


def _network(
    loss: float = 0.0,
    buffer_timeout: float | None = 100.0,
    global_loss: float = 0.0,
    allow_relay: bool = True,
):
    sim = Simulator()
    quality = LinkQuality(base_latency=1.0, latency_jitter=0.0, loss_probability=loss)
    topology = ContactGraph(default_quality=quality)
    config = NetworkConfig(
        allow_relay=allow_relay,
        buffer_timeout=buffer_timeout,
        global_loss_probability=global_loss,
        default_quality=quality,
    )
    network = OpportunisticNetwork(sim, topology, config, seed=3)
    return sim, topology, network


def _msg(sender: str, recipient: str, payload="x", size=100):
    return Message(
        sender=sender, recipient=recipient, kind=MessageKind.CONTROL,
        payload=payload, size_bytes=size,
    )


class TestDelivery:
    def test_direct_delivery(self):
        sim, topo, net = _network()
        topo.add_link("a", "b")
        received = []
        net.attach("a", lambda m: None)
        net.attach("b", received.append)
        net.send(_msg("a", "b"))
        sim.run()
        assert len(received) == 1
        assert received[0].delivered_at == pytest.approx(1.0 + 100 / 125_000.0)

    def test_latency_includes_size(self):
        sim, topo, net = _network()
        topo.add_link("a", "b", LinkQuality(base_latency=1.0, latency_jitter=0.0, bandwidth=100.0))
        received = []
        net.attach("a", lambda m: None)
        net.attach("b", received.append)
        net.send(_msg("a", "b", size=200))
        sim.run()
        assert received[0].in_flight_time == pytest.approx(3.0)

    def test_multi_hop_relay(self):
        sim, topo, net = _network()
        topo.add_link("a", "b")
        topo.add_link("b", "c")
        received = []
        net.attach("a", lambda m: None)
        net.attach("b", lambda m: None)
        net.attach("c", received.append)
        net.send(_msg("a", "c"))
        sim.run()
        assert len(received) == 1
        assert received[0].in_flight_time > 1.5  # two hops

    def test_no_route_without_relay(self):
        sim, topo, net = _network(allow_relay=False)
        received = []
        net.attach("a", lambda m: None)
        net.attach("b", received.append)
        # no explicit link: falls back to co-located default quality
        net.send(_msg("a", "b"))
        sim.run()
        assert len(received) == 1

    def test_disconnected_component_no_route(self):
        sim, topo, net = _network()
        net.attach("a", lambda m: None)
        net.attach("b", lambda m: None)
        topo.add_device("a")
        topo.add_device("b")
        net.send(_msg("a", "b"))
        sim.run()
        assert net.stats.no_route == 1

    def test_self_send_has_no_route(self):
        # Pinned, not endorsed: an operator reprovisioned onto the
        # device hosting its producer cannot message it (DESIGN.md,
        # "Network substrate").  Recorded robustness runs replay bit for
        # bit only while this holds.
        sim, topo, net = _network()
        topo.add_device("a", LinkQuality())
        topo.add_device("b", LinkQuality())
        received = []
        net.attach("a", received.append)
        net.attach("b", lambda m: None)
        message = _msg("a", "a")
        net.send(message)
        sim.run()
        assert received == []
        assert net.stats.no_route == 1
        assert net.stats.sent == 1 and net.stats.delivered == 0


class TestLoss:
    def test_lossy_link_drops_some(self):
        sim, topo, net = _network(loss=0.5)
        topo.add_link("a", "b")
        received = []
        net.attach("a", lambda m: None)
        net.attach("b", received.append)
        for _ in range(200):
            net.send(_msg("a", "b"))
        sim.run()
        assert 40 < len(received) < 160
        assert net.stats.lost == 200 - len(received)

    def test_global_loss_probability_one_drops_all(self):
        sim, topo, net = _network(global_loss=1.0)
        topo.add_link("a", "b")
        received = []
        net.attach("a", lambda m: None)
        net.attach("b", received.append)
        for _ in range(10):
            net.send(_msg("a", "b"))
        sim.run()
        assert received == []
        assert net.stats.lost == 10

    def test_delivery_ratio_stat(self):
        sim, topo, net = _network()
        topo.add_link("a", "b")
        net.attach("a", lambda m: None)
        net.attach("b", lambda m: None)
        net.send(_msg("a", "b"))
        sim.run()
        assert net.stats.as_dict()["delivery_ratio"] == 1.0


class TestStoreAndForward:
    def test_offline_recipient_buffers_until_reconnect(self):
        sim, topo, net = _network()
        topo.add_link("a", "b")
        received = []
        net.attach("a", lambda m: None)
        net.attach("b", received.append)
        net.set_online("b", False)
        net.send(_msg("a", "b"))
        sim.run_until(10.0)
        assert received == []
        assert net.buffered_count("b") == 1
        net.set_online("b", True)
        assert len(received) == 1

    def test_buffer_timeout_drops(self):
        sim, topo, net = _network(buffer_timeout=5.0)
        topo.add_link("a", "b")
        received = []
        net.attach("a", lambda m: None)
        net.attach("b", received.append)
        net.set_online("b", False)
        net.send(_msg("a", "b"))
        sim.run_until(20.0)
        net.set_online("b", True)
        assert received == []
        assert net.stats.dropped_timeout == 1

    def test_infinite_buffer(self):
        sim, topo, net = _network(buffer_timeout=None)
        topo.add_link("a", "b")
        received = []
        net.attach("a", lambda m: None)
        net.attach("b", received.append)
        net.set_online("b", False)
        net.send(_msg("a", "b"))
        sim.run_until(500.0)
        net.set_online("b", True)
        assert len(received) == 1


class TestCrash:
    def test_dead_device_never_receives(self):
        sim, topo, net = _network()
        topo.add_link("a", "b")
        received = []
        net.attach("a", lambda m: None)
        net.attach("b", received.append)
        net.kill("b")
        net.send(_msg("a", "b"))
        sim.run()
        assert received == []
        assert net.stats.to_dead_device == 1

    def test_kill_discards_buffered(self):
        sim, topo, net = _network()
        topo.add_link("a", "b")
        net.attach("a", lambda m: None)
        net.attach("b", lambda m: None)
        net.set_online("b", False)
        net.send(_msg("a", "b"))
        sim.run_until(5.0)
        net.kill("b")
        assert net.buffered_count("b") == 0

    def test_dead_device_cannot_reconnect(self):
        sim, topo, net = _network()
        net.attach("a", lambda m: None)
        net.kill("a")
        net.set_online("a", True)
        assert not net.is_online("a")
        assert net.is_dead("a")

    def test_message_in_flight_to_dying_device(self):
        sim, topo, net = _network()
        topo.add_link("a", "b")
        received = []
        net.attach("a", lambda m: None)
        net.attach("b", received.append)
        net.send(_msg("a", "b"))
        sim.schedule(0.5, lambda: net.kill("b"))
        sim.run()
        assert received == []


class TestBroadcast:
    def test_broadcast_sends_per_recipient(self):
        sim, topo, net = _network()
        for peer in ("b", "c", "d"):
            topo.add_link("a", peer)
        received = {}
        net.attach("a", lambda m: None)
        for peer in ("b", "c", "d"):
            net.attach(peer, lambda m, p=peer: received.setdefault(p, m.payload))
        net.broadcast("a", ["b", "c", "d"], MessageKind.HEARTBEAT, lambda r: f"for-{r}")
        sim.run()
        assert received == {"b": "for-b", "c": "for-c", "d": "for-d"}


class TestStoreAndForwardEdgeCases:
    def test_zero_buffer_timeout_drops_immediately(self):
        sim, topo, net = _network(buffer_timeout=0.0)
        topo.add_link("a", "b")
        received = []
        net.attach("a", lambda m: None)
        net.attach("b", received.append)
        net.set_online("b", False)
        net.send(_msg("a", "b"))
        sim.run()
        assert net.buffered_count("b") == 0
        assert net.stats.dropped_timeout == 1
        net.set_online("b", True)
        assert received == []

    def test_simultaneous_expiry_receipts_in_send_order(self):
        sim, topo, net = _network(buffer_timeout=5.0)
        topo.add_link("a", "b")
        received = []
        net.attach("a", lambda m: None)
        net.attach("b", received.append)
        net.set_online("b", False)
        net.send(_msg("a", "b", payload="first"))
        net.send(_msg("a", "b", payload="second"))
        sim.run_until(2.0)  # both arrived and wait in b's inbox
        assert net.buffered_count("b") == 2
        assert sim.step()  # the earlier of the two simultaneous expiries
        assert net.stats.dropped_timeout == 1
        net.set_online("b", True)
        assert [m.payload for m in received] == ["second"]

    def test_partitioned_topology_has_no_route_even_with_relay(self):
        sim, topo, net = _network(allow_relay=True)
        # two disjoint cliques: {a, b} and {c, d}
        topo.add_link("a", "b")
        topo.add_link("c", "d")
        for device in ("a", "b", "c", "d"):
            net.attach(device, lambda m: None)
        net.send(_msg("a", "c"))
        sim.run()
        assert net.stats.no_route == 1
        assert net.stats.delivered == 0


class TestReset:
    def test_reset_clears_state_and_revives_devices(self):
        sim, topo, net = _network()
        topo.add_link("a", "b")
        net.attach("a", lambda m: None)
        net.attach("b", lambda m: None)
        net.set_online("b", False)
        net.send(_msg("a", "b"))
        sim.run_until(2.0)
        net.kill("a")
        assert net.buffered_count("b") == 1
        epoch = net.epoch
        net.reset()
        assert net.epoch == epoch + 1
        assert net.stats.as_dict() == NetworkStats().as_dict()
        assert net.buffered_count("b") == 0
        assert net.is_online("a") and net.is_online("b")
        assert not net.is_dead("a")

    def test_in_flight_messages_do_not_cross_a_reset(self):
        sim, topo, net = _network()
        topo.add_link("a", "b")
        received = []
        net.attach("a", lambda m: None)
        net.attach("b", received.append)
        net.send(_msg("a", "b"))
        net.reset()  # before delivery: the epoch fence voids the event
        sim.run()
        assert received == []
        assert net.stats.delivered == 0

    def test_reset_restores_the_loss_stream(self):
        received = []

        def campaign(net, sim):
            received.clear()
            for i in range(50):
                net.send(_msg("a", "b", payload=i))
            sim.run()
            return (
                [(m.message_id, m.payload) for m in received],
                net.stats.as_dict(),
            )

        sim, topo, net = _network(loss=0.4)
        topo.add_link("a", "b")
        net.attach("a", lambda m: None)
        net.attach("b", received.append)
        first = campaign(net, sim)
        assert 0 < first[1]["lost"] < 50
        sim.reset()
        net.reset()
        assert campaign(net, sim) == first


class TestValidation:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(global_loss_probability=2.0)
        with pytest.raises(ValueError):
            NetworkConfig(buffer_timeout=-1.0)

    def test_message_size_validation(self):
        with pytest.raises(ValueError):
            Message(sender="a", recipient="b", kind=MessageKind.CONTROL, payload=None, size_bytes=0)

    def test_by_kind_stats(self):
        sim, topo, net = _network()
        topo.add_link("a", "b")
        net.attach("a", lambda m: None)
        net.attach("b", lambda m: None)
        net.send(_msg("a", "b"))
        assert net.stats.by_kind == {"control": 1}
