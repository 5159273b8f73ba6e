"""Tests for per-query network demultiplexing (`repro.network.mux`).

The mux is what lets many concurrent executions share one opportunistic
network: each device's single radio handler becomes a routing table
keyed by the ``query`` message header.  These tests pin down the
isolation contract the workload engine relies on — routing by header,
legacy fallback, stale-traffic fencing, per-query RNG streams, and
ACK routing for per-query reliable transports.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.network.messages import Message, MessageKind
from repro.network.mux import QUERY_HEADER, QueryMux
from repro.network.opnet import NetworkConfig, OpportunisticNetwork
from repro.network.reliable import ReliableTransport
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph, LinkQuality


def _network(
    devices=("a", "b"),
    loss: float = 0.0,
    latency: float = 0.1,
    seed: int = 0,
):
    sim = Simulator()
    quality = LinkQuality(
        base_latency=latency, latency_jitter=0.0, loss_probability=loss
    )
    topology = ContactGraph(default_quality=quality)
    for i, a in enumerate(devices):
        for b in devices[i + 1 :]:
            topology.add_link(a, b)
    network = OpportunisticNetwork(
        sim,
        topology,
        NetworkConfig(default_quality=quality),
        seed=seed,
    )
    return sim, network


def _msg(sender="a", recipient="b", kind=MessageKind.CONTRIBUTION, payload="x"):
    return Message(
        sender=sender, recipient=recipient, kind=kind, payload=payload,
        size_bytes=64,
    )


class TestRouting:
    def test_endpoint_send_stamps_query_header(self):
        sim, network = _network()
        mux = QueryMux(network)
        endpoint = mux.endpoint("q1")
        message = _msg()
        endpoint.send(message)
        assert message.headers[QUERY_HEADER] == "q1"

    def test_deliveries_route_to_the_owning_query(self):
        sim, network = _network()
        mux = QueryMux(network)
        inbox1, inbox2 = [], []
        mux.endpoint("q1").attach("b", inbox1.append)
        mux.endpoint("q2").attach("b", inbox2.append)
        mux.endpoint("q1").send(_msg(payload="for-q1"))
        mux.endpoint("q2").send(_msg(payload="for-q2"))
        sim.run()
        assert [m.payload for m in inbox1] == ["for-q1"]
        assert [m.payload for m in inbox2] == ["for-q2"]
        assert mux.unrouted == 0

    def test_headerless_message_falls_back_to_sole_route(self):
        sim, network = _network()
        mux = QueryMux(network)
        inbox = []
        mux.endpoint("q1").attach("b", inbox.append)
        network.send(_msg(payload="legacy"))  # bypass the endpoint: no header
        sim.run()
        assert [m.payload for m in inbox] == ["legacy"]

    def test_headerless_message_with_two_routes_is_dropped(self):
        sim, network = _network()
        mux = QueryMux(network)
        mux.endpoint("q1").attach("b", lambda m: None)
        mux.endpoint("q2").attach("b", lambda m: None)
        network.send(_msg(payload="ambiguous"))
        sim.run()
        assert mux.unrouted == 1

    def test_detach_fences_stale_traffic(self):
        sim, network = _network()
        mux = QueryMux(network)
        inbox1, inbox2 = [], []
        endpoint1 = mux.endpoint("q1")
        endpoint1.attach("b", inbox1.append)
        mux.endpoint("q2").attach("b", inbox2.append)
        endpoint1.send(_msg(payload="straggler"))
        endpoint1.detach()  # q1 finished while its message is in flight
        sim.run()
        # the straggler is dropped at the mux, never handed to q2
        assert inbox1 == []
        assert inbox2 == []
        assert mux.unrouted == 1
        assert network.telemetry.metrics.value("net.mux_unrouted", query="q1") == 1

    def test_reattach_after_detach_reuses_the_radio(self):
        sim, network = _network()
        mux = QueryMux(network)
        first, second = [], []
        mux.endpoint("q1").attach("b", first.append)
        mux.detach_query("q1")
        mux.endpoint("q3").attach("b", second.append)
        mux.endpoint("q3").send(_msg(payload="next-wave"))
        sim.run()
        assert first == []
        assert [m.payload for m in second] == ["next-wave"]

    def test_endpoint_exposes_opnet_surface(self):
        sim, network = _network()
        mux = QueryMux(network)
        endpoint = mux.endpoint("q1")
        endpoint.attach("b", lambda m: None)
        assert endpoint.simulator is sim
        assert endpoint.telemetry is network.telemetry
        assert not endpoint.is_dead("b")
        assert endpoint.is_online("b")
        network.kill("b")
        assert endpoint.is_dead("b")
        assert not endpoint.is_online("b")


def _interleave(first, second):
    return [message for pair in zip(first, second) for message in pair]


class TestPerQueryRngStreams:
    def _delivered_kinds(self, order):
        """Delivery outcomes of q1's messages when q1/q2 sends interleave
        in the given order."""
        sim, network = _network(loss=0.4, seed=7)
        mux = QueryMux(network)
        got = []
        mux.endpoint("q1").attach("b", lambda m: got.append(m.payload))
        mux.endpoint("q2").attach("b", lambda m: None)
        for query, payload in order:
            mux.endpoint(query).send(_msg(payload=payload))
        sim.run()
        return got

    def test_per_query_stream_is_independent_of_interleaving(self):
        q1_sends = [("q1", f"m{i}") for i in range(12)]
        q2_sends = [("q2", f"x{i}") for i in range(12)]
        solo = self._delivered_kinds(q1_sends)
        interleaved = self._delivered_kinds(_interleave(q2_sends, q1_sends))
        assert solo == interleaved

    def test_shared_stream_shifts_under_interleaving(self):
        # headerless traffic keeps the network's one shared stream, so
        # it couples senders; header-bearing traffic never touches it
        def delivered(order):
            """The ``m*`` payloads that reach b when the (query header or
            None, payload) sends go out in order."""
            sim, network = _network(loss=0.4, seed=7)
            got = []
            network.attach("b", lambda m: got.append(m.payload))
            for query, payload in order:
                message = _msg(payload=payload)
                if query is not None:
                    message.headers[QUERY_HEADER] = query
                network.send(message)
            sim.run()
            return [p for p in got if p.startswith("m")]

        headerless = [(None, f"m{i}") for i in range(12)]
        solo = delivered(headerless)
        # header-bearing traffic draws from its own stream: the shared
        # stream's outcomes do not move
        tagged = [("q2", f"x{i}") for i in range(12)]
        assert delivered(_interleave(tagged, headerless)) == solo
        # other headerless traffic shares the stream and shifts them
        more = [(None, f"x{i}") for i in range(12)]
        assert delivered(_interleave(more, headerless)) != solo

    def test_reset_restores_query_streams(self):
        sim, network = _network(loss=0.4, seed=7)
        mux = QueryMux(network)
        got = []
        mux.endpoint("q1").attach("b", lambda m: got.append(m.payload))

        def run_once():
            got.clear()
            for i in range(12):
                mux.endpoint("q1").send(_msg(payload=f"m{i}"))
            sim.run()
            return list(got)

        first = run_once()
        sim.reset()
        network.reset()
        assert run_once() == first


class TestPerQueryTransports:
    def test_acks_route_back_to_the_sending_query(self):
        sim, network = _network()
        mux = QueryMux(network)
        t1 = ReliableTransport(mux.endpoint("q1"), seed=1)
        t2 = ReliableTransport(mux.endpoint("q2"), seed=2)
        got1, got2 = [], []
        t1.attach("a", lambda m: None)
        t1.attach("b", got1.append)
        t2.attach("a", lambda m: None)
        t2.attach("b", got2.append)
        m1 = _msg(payload="p1")
        m2 = _msg(payload="p2")
        t1.send(m1)
        t2.send(m2)
        sim.run()
        assert [m.payload for m in got1] == ["p1"]
        assert [m.payload for m in got2] == ["p2"]
        # the ACK reached each query's own transport, so neither
        # retransmitted nor gave up
        assert t1.stats.transfers_acked == 1
        assert t2.stats.transfers_acked == 1
        assert t1.stats.retransmissions == 0
        assert t2.stats.retransmissions == 0
        assert mux.unrouted == 0

    def test_transfer_dedup_is_per_transport(self):
        # identical transfer ids in two queries must not suppress each
        # other: each transport keeps its own _seen table
        sim, network = _network()
        mux = QueryMux(network)
        t1 = ReliableTransport(mux.endpoint("q1"), seed=1)
        t2 = ReliableTransport(mux.endpoint("q2"), seed=2)
        got1, got2 = [], []
        t1.attach("a", lambda m: None)
        t1.attach("b", got1.append)
        t2.attach("a", lambda m: None)
        t2.attach("b", got2.append)
        t1.send(_msg(payload="first"))
        t2.send(_msg(payload="second"))  # both are transfer id 1
        sim.run()
        assert [m.payload for m in got1] == ["first"]
        assert [m.payload for m in got2] == ["second"]
        assert t1.stats.duplicates_suppressed == 0
        assert t2.stats.duplicates_suppressed == 0


class _Outage:
    """Fault injector dropping all data traffic while active."""

    def __init__(self):
        self.active = True

    def on_send(self, message: Message) -> SimpleNamespace:
        drop = self.active and message.kind is MessageKind.CONTRIBUTION
        return SimpleNamespace(drop=drop, corrupt=False, copies=1, extra_delay=0.0)


class TestBreakerIsolation:
    def test_half_open_probe_recovery_is_per_query(self, tune_reliable):
        # both queries trip their (a, b) breaker during an outage; after
        # the link heals, q1's half-open probe succeeds and closes q1's
        # breaker only — q2's view of the link must stay open until q2
        # itself observes a success
        tune_reliable(BREAKER_THRESHOLD=2, BREAKER_COOLDOWN=5.0)
        sim, network = _network()
        outage = _Outage()
        network.install_faults(outage)
        mux = QueryMux(network)
        t1 = ReliableTransport(mux.endpoint("q1"), seed=1)
        t2 = ReliableTransport(mux.endpoint("q2"), seed=2)
        for transport in (t1, t2):
            transport.attach("a", lambda m: None)
            transport.attach("b", lambda m: None)
        t1.send(_msg(payload="p1"))
        t2.send(_msg(payload="p2"))
        sim.run()
        assert t1.breaker_for("a", "b").is_open
        assert t2.breaker_for("a", "b").is_open

        def heal_and_probe():
            outage.active = False
            t1.probe("a", "b")

        sim.schedule_at(sim.now + 100.0, heal_and_probe, "heal")
        sim.run()
        assert not t1.breaker_for("a", "b").is_open
        assert t2.breaker_for("a", "b").is_open
