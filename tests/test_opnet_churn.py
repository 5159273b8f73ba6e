"""Tests for dynamic join/leave on the opportunistic network.

``leave()`` is a graceful permanent departure, epoch-fenced so that
neither ``reset()`` nor a late ``attach()`` can resurrect the device —
and making zero churn calls must be byte-identical to making only
no-op ones (the regression the issue asks for).
"""

from __future__ import annotations

from repro.network.messages import Message, MessageKind
from repro.network.opnet import NetworkConfig, OpportunisticNetwork
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph, LinkQuality


def _network(seed: int = 3, buffer_timeout: float | None = 100.0):
    sim = Simulator()
    quality = LinkQuality(base_latency=1.0, latency_jitter=0.0, loss_probability=0.0)
    topology = ContactGraph(default_quality=quality)
    config = NetworkConfig(buffer_timeout=buffer_timeout, default_quality=quality)
    network = OpportunisticNetwork(sim, topology, config, seed=seed)
    return sim, topology, network


def _msg(sender: str, recipient: str, size: int = 100) -> Message:
    return Message(
        sender=sender,
        recipient=recipient,
        kind=MessageKind.CONTROL,
        payload="x",
        size_bytes=size,
    )


class TestLeave:
    def test_leave_makes_device_permanently_dead(self):
        _, topo, net = _network()
        topo.add_link("a", "b")
        net.attach("b", lambda m: None)
        net.leave("b")
        assert net.has_departed("b")
        assert net.is_dead("b")
        assert not net.is_online("b")

    def test_messages_to_departed_count_under_departed(self):
        sim, topo, net = _network()
        topo.add_link("a", "b")
        net.attach("a", lambda m: None)
        net.attach("b", lambda m: None)
        net.leave("b")
        net.send(_msg("a", "b"))
        sim.run()
        assert net.stats.departed == 1
        assert net.stats.delivered == 0
        # the send is counted once, under departed and nothing else
        outcomes = {k: v for k, v in net.stats.as_dict().items() if v}
        assert outcomes == {
            "sent": 1, "departed": 1, "bytes_sent": 100,
        }

    def test_buffered_messages_dropped_on_leave(self):
        sim, topo, net = _network(buffer_timeout=None)
        topo.add_link("a", "b")
        net.attach("a", lambda m: None)
        received = []
        net.attach("b", received.append)
        net.set_online("b", False)
        net.send(_msg("a", "b"))
        sim.run()  # message parks in b's store-and-forward buffer
        net.leave("b")
        sim.run()
        assert received == []
        assert net.stats.departed == 1

    def test_set_online_is_a_noop_after_leave(self):
        _, _, net = _network()
        net.attach("b", lambda m: None)
        net.leave("b")
        net.set_online("b", True)
        assert not net.is_online("b")

    def test_attach_refuses_to_resurrect(self):
        sim, topo, net = _network()
        topo.add_link("a", "b")
        net.attach("a", lambda m: None)
        net.leave("b")
        received = []
        net.attach("b", received.append)  # silent no-op
        net.send(_msg("a", "b"))
        sim.run()
        assert received == []
        assert net.stats.departed == 1

    def test_leave_is_idempotent(self):
        _, _, net = _network()
        net.attach("b", lambda m: None)
        net.leave("b")
        net.leave("b")
        assert net.stats.departed == 0  # no buffered messages, no counts


class TestResetFence:
    def test_departed_set_survives_reset(self):
        sim, topo, net = _network()
        topo.add_link("a", "b")
        net.attach("a", lambda m: None)
        net.attach("b", lambda m: None)
        net.leave("b")
        net.reset()
        assert net.has_departed("b")
        assert not net.is_online("b")
        received = []
        net.attach("b", received.append)
        net.send(_msg("a", "b"))
        sim.run()
        assert received == []

    def test_reset_revives_only_the_remaining_population(self):
        _, topo, net = _network()
        topo.add_link("a", "b")
        net.attach("a", lambda m: None)
        net.attach("b", lambda m: None)
        net.set_online("a", False)
        net.leave("b")
        net.reset()
        assert net.is_online("a")
        assert not net.is_online("b")


class TestNoOpChurnByteIdentity:
    """Same seed, same traffic: a run that makes only no-op churn calls
    is byte-identical to one that makes none at all."""

    @staticmethod
    def _drive(net, sim, topo, *, noop_churn: bool):
        devices = [f"d-{i}" for i in range(4)]
        for i, device_id in enumerate(devices):
            for other in devices[i + 1 :]:
                topo.add_link(device_id, other)
        received = []
        for device_id in devices:
            net.attach(device_id, received.append)
        if noop_churn:
            net.leave("ghost-never-attached")  # departs a non-member
        for i in range(12):
            sender = devices[i % 4]
            recipient = devices[(i + 1) % 4]
            net.send(_msg(sender, recipient, size=100 + i))
            if noop_churn:
                net.leave("ghost-never-attached")  # idempotent no-op
        sim.run()
        return [
            (m.message_id, m.sender, m.recipient, m.delivered_at)
            for m in received
        ]

    def test_byte_identity_with_and_without_noop_churn(self):
        sim_a, topo_a, net_a = _network(seed=17)
        sim_b, topo_b, net_b = _network(seed=17)
        plain = self._drive(net_a, sim_a, topo_a, noop_churn=False)
        churned = self._drive(net_b, sim_b, topo_b, noop_churn=True)
        assert plain == churned
        stats_a = net_a.stats.as_dict()
        stats_b = net_b.stats.as_dict()
        # the ghost departure itself counts nothing: it held no messages
        assert stats_a == stats_b
