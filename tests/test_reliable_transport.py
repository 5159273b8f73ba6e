"""Tests for the ACK/retransmission reliability layer."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.network import reliable
from repro.network.messages import Message, MessageKind
from repro.network.opnet import NetworkConfig, OpportunisticNetwork
from repro.network.reliable import (
    ACKNOWLEDGED_KINDS,
    ATTEMPT_HEADER,
    TRANSFER_HEADER,
    CircuitBreaker,
    ReliableTransport,
    RttEstimator,
)
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph, LinkQuality


def _stack(loss: float = 0.0, latency: float = 0.1, seed: int = 0):
    sim = Simulator()
    quality = LinkQuality(
        base_latency=latency, latency_jitter=0.0, loss_probability=loss
    )
    topology = ContactGraph(default_quality=quality)
    topology.add_link("a", "b")
    network = OpportunisticNetwork(
        sim, topology, NetworkConfig(default_quality=quality), seed=seed
    )
    transport = ReliableTransport(network, seed=seed)
    return sim, network, transport


def _msg(kind=MessageKind.CONTRIBUTION, payload="x", size=100):
    return Message(
        sender="a", recipient="b", kind=kind, payload=payload, size_bytes=size
    )


class _SelectiveDrop:
    """Fault injector that drops the first ``count`` messages of a kind."""

    def __init__(self, kind: MessageKind, count: int = 1):
        self.kind = kind
        self.remaining = count

    def on_send(self, message: Message) -> SimpleNamespace:
        drop = message.kind is self.kind and self.remaining > 0
        if drop:
            self.remaining -= 1
        return SimpleNamespace(drop=drop, corrupt=False, copies=1, extra_delay=0.0)


class TestPolicies:
    def test_constants_equal_the_defaults_they_replaced(self):
        assert (reliable.INITIAL_RTO, reliable.MIN_RTO, reliable.MAX_RTO) == (
            5.0, 0.25, 30.0
        )
        assert reliable.ACK_SIZE_BYTES == 32
        assert reliable.RETRANSMIT_BUDGET == 1024
        assert (reliable.BREAKER_THRESHOLD, reliable.BREAKER_COOLDOWN) == (
            3, 20.0
        )
        assert (
            reliable.MAX_ATTEMPTS,
            reliable.BACKOFF_FACTOR,
            reliable.JITTER_FRACTION,
        ) == (4, 2.0, 0.1)

    def test_default_policies_cover_every_kind(self):
        # every kind is sent under exactly one mode: the acknowledged
        # kinds end in a receipt, the rest go out fire and forget
        sim, network, transport = _stack()
        transport.attach("a", lambda m: None)
        transport.attach("b", lambda m: None)
        for kind in MessageKind:
            transport.send(_msg(kind=kind))
        sim.run()
        assert {r.kind for r in transport.receipts} == {
            kind.value for kind in ACKNOWLEDGED_KINDS
        }
        assert transport.stats.sent_at_most_once == len(MessageKind) - len(
            ACKNOWLEDGED_KINDS
        )

    def test_result_bearing_kinds_are_confirmed(self):
        assert ACKNOWLEDGED_KINDS == {
            MessageKind.CONTRIBUTION,
            MessageKind.PARTITION,
            MessageKind.PARTIAL_RESULT,
            MessageKind.FINAL_RESULT,
            MessageKind.CHECKPOINT,
        }
        assert MessageKind.HEARTBEAT not in ACKNOWLEDGED_KINDS
        assert MessageKind.ACK not in ACKNOWLEDGED_KINDS


class TestAtMostOnce:
    def test_fire_and_forget_passthrough(self):
        sim, network, transport = _stack()
        received = []
        transport.attach("a", lambda m: None)
        transport.attach("b", received.append)
        message = _msg(kind=MessageKind.CONTROL)
        transport.send(message)
        sim.run()
        assert len(received) == 1
        assert TRANSFER_HEADER not in message.headers
        assert transport.stats.sent_at_most_once == 1
        assert transport.receipts == []


class TestAckRetransmit:
    def test_clean_link_acks_first_attempt(self):
        sim, network, transport = _stack()
        received = []
        transport.attach("a", lambda m: None)
        transport.attach("b", received.append)
        transport.send(_msg())
        sim.run()
        assert len(received) == 1
        assert received[0].headers[ATTEMPT_HEADER] == 0
        (receipt,) = transport.receipts
        assert receipt.outcome == "acked"
        assert receipt.attempts == 1
        assert receipt.rtt is not None and receipt.rtt > 0
        assert transport.pending_count == 0

    def test_retransmission_recovers_a_lost_message(self):
        sim, network, transport = _stack()
        network.install_faults(_SelectiveDrop(MessageKind.CONTRIBUTION, count=1))
        received = []
        transport.attach("a", lambda m: None)
        transport.attach("b", received.append)
        transport.send(_msg())
        sim.run()
        assert len(received) == 1
        (receipt,) = transport.receipts
        assert receipt.outcome == "acked"
        assert receipt.attempts == 2
        assert transport.stats.retransmissions == 1

    def test_lost_ack_triggers_duplicate_suppression(self):
        sim, network, transport = _stack()
        network.install_faults(_SelectiveDrop(MessageKind.ACK, count=1))
        received = []
        transport.attach("a", lambda m: None)
        transport.attach("b", received.append)
        transport.send(_msg())
        sim.run()
        # the handler never sees the retransmitted copy...
        assert len(received) == 1
        assert transport.stats.duplicates_suppressed == 1
        # ...but the duplicate is still acknowledged, so the transfer ends
        (receipt,) = transport.receipts
        assert receipt.outcome == "acked"
        assert receipt.attempts == 2

    def test_gave_up_after_max_attempts(self, tune_reliable):
        tune_reliable(BREAKER_THRESHOLD=100)
        sim, network, transport = _stack(loss=1.0)
        transport.attach("a", lambda m: None)
        transport.attach("b", lambda m: None)
        transport.send(_msg())
        sim.run()
        (receipt,) = transport.receipts
        assert receipt.outcome == "gave_up"
        assert receipt.attempts == reliable.MAX_ATTEMPTS
        assert transport.stats.transfers_failed == 1

    def test_dead_peer_fails_with_receipt(self):
        sim, network, transport = _stack()
        transport.attach("a", lambda m: None)
        transport.attach("b", lambda m: None)
        network.kill("b")
        transport.send(_msg())
        sim.run()
        (receipt,) = transport.receipts
        assert receipt.outcome == "peer_dead"

    def test_circuit_breaker_fast_fails_after_consecutive_losses(
        self, tune_reliable
    ):
        tune_reliable(BREAKER_THRESHOLD=2, BREAKER_COOLDOWN=1000.0)
        sim, network, transport = _stack(loss=1.0)
        transport.attach("a", lambda m: None)
        transport.attach("b", lambda m: None)
        transport.send(_msg())
        sim.run()
        breaker = transport.breaker_for("a", "b")
        assert breaker.is_open
        assert breaker.opened_count >= 1
        assert transport.stats.circuit_fast_fails >= 1
        assert transport.receipts[0].outcome == "circuit_open"

    def test_budget_exhaustion_drops_with_receipt(self, tune_reliable):
        tune_reliable(RETRANSMIT_BUDGET=0, BREAKER_THRESHOLD=100)
        sim, network, transport = _stack(loss=1.0)
        transport.attach("a", lambda m: None)
        transport.attach("b", lambda m: None)
        transport.send(_msg())
        sim.run()
        (receipt,) = transport.receipts
        assert receipt.outcome == "budget_exhausted"
        assert receipt.attempts == 1

    def test_lossy_link_beats_blind_sends(self, tune_reliable):
        # at 50% loss a raw network loses about half; the transport
        # delivers nearly everything, each message exactly once (breaker
        # disabled so only retransmission is under test here)
        tune_reliable(BREAKER_THRESHOLD=1000)
        sim, network, transport = _stack(loss=0.5, seed=12)
        received = []
        transport.attach("a", lambda m: None)
        transport.attach("b", received.append)
        for i in range(20):
            transport.send(_msg(payload=i))
        sim.run()
        payloads = [m.payload for m in received]
        assert len(payloads) == len(set(payloads))  # no app-level duplicates
        assert len(payloads) >= 15
        assert transport.stats.retransmissions > 0


class TestAdaptiveTimeouts:
    def test_rtt_sample_tightens_the_timeout(self):
        sim, network, transport = _stack(latency=0.1)
        transport.attach("a", lambda m: None)
        transport.attach("b", lambda m: None)
        assert transport.rto_for("a", "b") == reliable.INITIAL_RTO
        transport.send(_msg())
        sim.run()
        assert transport.stats.rtt_samples == 1
        assert transport.rto_for("a", "b") < reliable.INITIAL_RTO

    def test_karn_rule_skips_retransmitted_samples(self):
        sim, network, transport = _stack()
        network.install_faults(_SelectiveDrop(MessageKind.CONTRIBUTION, count=1))
        transport.attach("a", lambda m: None)
        transport.attach("b", lambda m: None)
        transport.send(_msg())
        sim.run()
        (receipt,) = transport.receipts
        assert receipt.outcome == "acked"
        assert receipt.rtt is None
        assert transport.stats.rtt_samples == 0

    def test_estimator_follows_jacobson(self):
        estimator = RttEstimator()
        estimator.observe(1.0)
        assert estimator.srtt == pytest.approx(1.0)
        assert estimator.rttvar == pytest.approx(0.5)
        assert estimator.rto == pytest.approx(3.0)
        estimator.observe(2.0)
        assert estimator.srtt == pytest.approx(0.875 * 1.0 + 0.125 * 2.0)
        assert estimator.rttvar == pytest.approx(0.75 * 0.5 + 0.25 * 1.0)

    def test_rto_clamped_to_bounds(self, tune_reliable):
        tune_reliable(MIN_RTO=1.0, MAX_RTO=2.0)
        estimator = RttEstimator()
        estimator.observe(0.01)
        assert estimator.rto == 1.0
        estimator = RttEstimator()
        estimator.observe(100.0)
        assert estimator.rto == 2.0

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            RttEstimator().observe(-1.0)


class TestCircuitBreaker:
    def test_half_open_probe_after_cooldown(self, tune_reliable):
        tune_reliable(BREAKER_THRESHOLD=2, BREAKER_COOLDOWN=10.0)
        breaker = CircuitBreaker()
        breaker.record_failure(0.0)
        assert breaker.allows(0.0)
        breaker.record_failure(0.0)
        assert not breaker.allows(5.0)
        assert breaker.allows(10.0)  # half-open probe
        breaker.record_success()
        assert not breaker.is_open
        assert breaker.failures == 0


class TestGracefulDeparture:
    def test_leave_fails_in_flight_transfers_immediately(self, tune_reliable):
        # graceful leave() is conclusive evidence: the in-flight
        # transfer must surface peer_dead at departure time, not grind
        # through the remaining RTO expiries and retransmission attempts
        tune_reliable(BREAKER_THRESHOLD=100)
        sim, network, transport = _stack(loss=1.0)
        transport.attach("a", lambda m: None)
        transport.attach("b", lambda m: None)
        transport.send(_msg())
        sim.schedule_at(0.5, lambda: network.leave("b"), "leave-b")
        sim.run()
        (receipt,) = transport.receipts
        assert receipt.outcome == "peer_dead"
        assert receipt.attempts < reliable.MAX_ATTEMPTS
        assert transport.stats.departure_fast_fails == 1
        # the doomed transfer stopped retransmitting once "b" left, so
        # the shared budget was not drained by unanswerable resends
        assert transport.stats.retransmissions <= 1
        assert transport.pending_count == 0

    def test_send_after_leave_fast_fails(self):
        sim, network, transport = _stack()
        transport.attach("a", lambda m: None)
        transport.attach("b", lambda m: None)
        network.leave("b")
        transport.send(_msg())
        sim.run()
        (receipt,) = transport.receipts
        assert receipt.outcome == "peer_dead"
        assert receipt.attempts == 0 or receipt.attempts == 1
        assert transport.stats.departure_fast_fails == 1

    def test_silent_crash_is_not_fast_failed(self, tune_reliable):
        # kill() models a crash: no goodbye, so the transport must learn
        # the hard way (timeouts), never via the departure listener
        tune_reliable(BREAKER_THRESHOLD=100)
        sim, network, transport = _stack()
        transport.attach("a", lambda m: None)
        transport.attach("b", lambda m: None)
        network.kill("b")
        transport.send(_msg())
        sim.run()
        (receipt,) = transport.receipts
        assert receipt.outcome == "peer_dead"
        assert transport.stats.departure_fast_fails == 0


class TestDeterminism:
    def _run(self, seed: int):
        sim, network, transport = _stack(loss=0.4, seed=seed)
        transport.attach("a", lambda m: None)
        transport.attach("b", lambda m: None)
        for i in range(12):
            transport.send(_msg(payload=i))
        sim.run()
        return [
            (r.transfer_id, r.outcome, r.attempts, r.rtt)
            for r in transport.receipts
        ]

    def test_same_seed_same_receipts(self):
        assert self._run(21) == self._run(21)

    def test_reset_restores_the_stream(self):
        sim, network, transport = _stack(loss=0.4, seed=21)
        transport.attach("a", lambda m: None)
        transport.attach("b", lambda m: None)

        def campaign():
            for i in range(12):
                transport.send(_msg(payload=i))
            sim.run()
            return [
                (r.transfer_id, r.outcome, r.attempts, r.rtt)
                for r in transport.receipts
            ]

        first = campaign()
        sim.reset()
        network.reset()
        transport.reset()
        assert transport.pending_count == 0
        assert campaign() == first
