"""End-to-end reliability layer over the opportunistic network.

The substrate (:mod:`repro.network.opnet`) is deliberately unreliable:
per-link loss, store-and-forward timeouts, crashed peers.  The Edgelet
strategies tolerate that with *overprovisioning* (extra partitions,
replica chains, blind contribution copies).  This module adds the
complementary transport-level defence — detect, retry, and give up with
a receipt:

* **Per-kind delivery.**  The result-bearing kinds
  (:data:`ACKNOWLEDGED_KINDS`: contribution / partition / partial /
  final / checkpoint) are ``at_least_once`` — ACK-confirmed with
  retransmission; every other kind (heartbeat, knowledge, control, ACK
  itself, ...) is fire and forget, exactly the raw opnet behaviour.
* **ACK-based retransmission** with exponential backoff and seeded
  jitter drawn from a per-concern derived RNG, so enabling the layer
  never perturbs the opnet or fault-injector RNG streams and fixed
  seeds stay bit-for-bit reproducible.
* **Adaptive timeouts.**  Per-link SRTT/RTTVAR estimation in the
  Jacobson style, with Karn's rule (no samples from retransmitted
  transfers); the retransmit timeout is ``srtt + 4 * rttvar`` clamped
  to ``[MIN_RTO, MAX_RTO]``.
* **Per-link circuit breakers** that stop hammering a partitioned or
  dead peer after consecutive failed transfers, and a global
  **retransmission budget**; both failure modes surface as
  :class:`TransportReceipt` records (drop-with-receipt, never silent).

Every setting is a module constant (DESIGN.md "Reliability & recovery"
tabulates them).  Everything runs on the virtual clock of the underlying
network's simulator.  This module sits *below* ``repro.core`` in the
layering: it must never import from it (enforced by
``tools/check_layering.py``).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.network.messages import Message, MessageKind
from repro.network.opnet import OpportunisticNetwork

__all__ = [
    "ACKNOWLEDGED_KINDS",
    "CircuitBreaker",
    "ReliableTransport",
    "RttEstimator",
    "TransportReceipt",
    "TransportStats",
]

Handler = Callable[[Message], None]

TRANSFER_HEADER = "transfer_id"
ATTEMPT_HEADER = "attempt"

#: retransmit timeout (virtual seconds) of a link before any RTT sample
INITIAL_RTO = 5.0
#: clamp bounds of the adaptive timeout, applied after backoff
MIN_RTO = 0.25
MAX_RTO = 30.0
#: wire size of an acknowledgement
ACK_SIZE_BYTES = 32
#: retransmissions one transport may spend across all its transfers;
#: exhaustion drops the transfer with a ``budget_exhausted`` receipt
RETRANSMIT_BUDGET = 1024
#: consecutive failed transfers on one link that trip its breaker open
BREAKER_THRESHOLD = 3
#: virtual seconds an open breaker waits before a half-open probe
BREAKER_COOLDOWN = 20.0
#: transmissions per acknowledged transfer, the original send included
MAX_ATTEMPTS = 4
#: multiplier applied to the timeout on every successive attempt
BACKOFF_FACTOR = 2.0
#: each armed timeout is stretched by up to this fraction, drawn from
#: the transport's jitter stream, to de-synchronise retransmit bursts
JITTER_FRACTION = 0.1
#: kinds delivered at least once; one lost copy of these loses data,
#: while every other kind is periodic or redundant by construction
ACKNOWLEDGED_KINDS = frozenset(
    {
        MessageKind.CONTRIBUTION,
        MessageKind.PARTITION,
        MessageKind.PARTIAL_RESULT,
        MessageKind.FINAL_RESULT,
        MessageKind.CHECKPOINT,
    }
)


class RttEstimator:
    """Jacobson-style smoothed RTT tracker for one directed link.

    ``srtt`` and ``rttvar`` follow RFC 6298 gains (1/8 and 1/4); the
    retransmit timeout is ``srtt + 4 * rttvar``, clamped to
    ``[MIN_RTO, MAX_RTO]``.  Callers apply Karn's rule: samples are only
    fed from transfers that were never retransmitted.
    """

    def __init__(self) -> None:
        self.srtt: float | None = None
        self.rttvar: float | None = None
        self.samples = 0

    def observe(self, sample: float) -> None:
        """Fold one round-trip sample into the smoothed estimate."""
        if sample < 0:
            raise ValueError("rtt sample must be non-negative")
        if self.srtt is None or self.rttvar is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.samples += 1

    @property
    def rto(self) -> float:
        """Current retransmit timeout (before backoff)."""
        if self.srtt is None or self.rttvar is None:
            return INITIAL_RTO
        raw = self.srtt + 4 * self.rttvar
        return min(max(raw, MIN_RTO), MAX_RTO)


class CircuitBreaker:
    """Consecutive-failure breaker for one directed link.

    Closed by default; :meth:`record_failure` trips it open after
    :data:`BREAKER_THRESHOLD` consecutive failures, and it stays open
    for :data:`BREAKER_COOLDOWN`, after which one probe transfer is let
    through (half-open).  A success closes it again; a failed probe
    re-opens it immediately.
    """

    def __init__(self) -> None:
        self.failures = 0
        self.opened_count = 0
        self._open_until: float | None = None

    @property
    def is_open(self) -> bool:
        return self._open_until is not None

    def allows(self, now: float) -> bool:
        """Whether a transfer may use the link right now."""
        if self._open_until is None:
            return True
        return now >= self._open_until  # half-open probe

    def record_success(self) -> None:
        self.failures = 0
        self._open_until = None

    def record_failure(self, now: float) -> None:
        self.failures += 1
        if self.failures >= BREAKER_THRESHOLD:
            if self._open_until is None or now >= self._open_until:
                self.opened_count += 1
            self._open_until = now + BREAKER_COOLDOWN


@dataclass(frozen=True)
class TransportReceipt:
    """Terminal outcome of one at-least-once transfer."""

    transfer_id: int
    kind: str
    sender: str
    recipient: str
    outcome: str  # "acked", "gave_up", "budget_exhausted",
    #               "circuit_open", "peer_dead"
    attempts: int
    rtt: float | None = None


#: The :class:`TransportStats` fields mirrored by a ``reliable.*``
#: counter across every transport of the run;
#: :meth:`ReliableTransport._count` writes both.
STATS_COUNTERS = {
    "retransmissions": "reliable.retransmissions",
    "transfers_acked": "reliable.transfers_acked",
    "transfers_failed": "reliable.transfers_failed",
    "acks_sent": "reliable.acks_sent",
    "duplicates_suppressed": "reliable.duplicates_suppressed",
    "circuit_fast_fails": "reliable.circuit_fast_fails",
}


class TransportStats:
    """Aggregate counters maintained by the reliability layer."""

    def __init__(self) -> None:
        self.sent_at_most_once = 0
        self.transfers_started = 0
        self.transfers_acked = 0
        self.transfers_failed = 0
        self.probes_sent = 0
        self.departure_fast_fails = 0
        self.retransmissions = 0
        self.acks_sent = 0
        self.stale_acks = 0
        self.duplicates_suppressed = 0
        self.rtt_samples = 0
        self.circuit_fast_fails = 0

    def as_dict(self) -> dict[str, float]:
        """Snapshot of all counters for reports and dashboards."""
        return dict(vars(self))


@dataclass
class _Pending:
    """Book-keeping for one in-flight at-least-once transfer."""

    transfer_id: int
    template: Message
    #: a liveness probe: single-shot, and its timeout draws no jitter
    probe: bool = False
    attempts: int = 0
    last_sent_at: float = 0.0
    retransmitted: bool = False
    done: bool = False


class ReliableTransport:
    """ACK/retransmission overlay sharing the opnet's send/attach API.

    Drop-in for the network from the runtime's point of view: callers
    use :meth:`attach` and :meth:`send` exactly as they would on the
    :class:`OpportunisticNetwork`, and the transport transparently
    acknowledges, deduplicates, and retransmits the
    :data:`ACKNOWLEDGED_KINDS`.  All timers run on the network's simulator,
    and all randomness (retransmit jitter) comes from a derived
    per-concern RNG seeded as ``f"{seed}:reliable:jitter"``.
    """

    def __init__(
        self,
        network: OpportunisticNetwork,
        seed: int = 0,
        telemetry: Any = None,
    ):
        self.network = network
        self.simulator = network.simulator
        self.stats = TransportStats()
        self._seed = seed
        self._jitter_rng = random.Random(f"{seed}:reliable:jitter")
        self._transfer_ids = itertools.count(1)
        self._pending: dict[int, _Pending] = {}
        self._seen: dict[str, set[int]] = {}
        self._estimators: dict[tuple[str, str], RttEstimator] = {}
        self._breakers: dict[tuple[str, str], CircuitBreaker] = {}
        # TransportReceipt fields as tuples of atoms, which the collector
        # stops tracking; ``receipts`` builds the records
        self._receipts: list[tuple[Any, ...]] = []
        self._budget_left = RETRANSMIT_BUDGET
        # per-link delivery observers (e.g. the φ-accrual failure
        # detector in repro.core.runtime.detector, which must not be
        # imported from here — the layering points the other way, so it
        # registers a callback instead)
        self._link_observers: list[
            Callable[[str, str, str, float | None], None]
        ] = []
        # graceful departures fail in-flight transfers immediately
        # instead of retransmitting into the void until the budget
        # drains (the mux wrapper used by the workload engine does not
        # expose the hook; transfers there still fail via is_dead())
        register = getattr(network, "add_departure_listener", None)
        if register is not None:
            register(self._on_peer_departed)
        if telemetry is None:
            telemetry = network.telemetry
        self.telemetry = telemetry
        metrics = telemetry.metrics
        self._m_stats = {
            field: metrics.counter(name) for field, name in STATS_COUNTERS.items()
        }
        self._h_rtt = metrics.histogram("reliable.rtt")

    # -- public API (opnet-compatible) --------------------------------------

    def attach(self, device_id: str, handler: Handler) -> None:
        """Register a device; its handler sees deduplicated app traffic."""
        self.network.attach(device_id, self._make_receiver(device_id, handler))

    def send(self, message: Message) -> None:
        """Send acknowledged if the kind is result-bearing, else fire
        and forget (never blocks)."""
        if message.kind not in ACKNOWLEDGED_KINDS:
            self.stats.sent_at_most_once += 1
            self.network.send(message)
            return
        self._start(message)

    def close(self) -> None:
        """Stop listening for departures once the query is over.

        Without this a network that outlives its transports (one
        scenario, many reliable queries) keeps every finished
        transport's tables alive and calls each one on every later
        ``leave()``.  Armed retransmission timers and receipts are left
        alone: in-flight transfers still resolve via ``is_dead()``.
        """
        unregister = getattr(self.network, "remove_departure_listener", None)
        if unregister is not None:
            unregister(self._on_peer_departed)

    def reset(self) -> None:
        """Clear transfer state alongside an opnet/simulator reset."""
        self.stats = TransportStats()
        self._jitter_rng = random.Random(f"{self._seed}:reliable:jitter")
        self._transfer_ids = itertools.count(1)
        self._pending.clear()
        self._seen.clear()
        self._estimators.clear()
        self._breakers.clear()
        self._receipts.clear()
        self._budget_left = RETRANSMIT_BUDGET

    # -- observability ------------------------------------------------------

    @property
    def receipts(self) -> list[TransportReceipt]:
        """Terminal receipts for every finished at-least-once transfer."""
        return [TransportReceipt(*receipt) for receipt in self._receipts]

    @property
    def pending_count(self) -> int:
        """Transfers still awaiting acknowledgement."""
        return sum(1 for p in self._pending.values() if not p.done)

    def rto_for(self, sender: str, recipient: str) -> float:
        """Current adaptive timeout of a directed link (before backoff)."""
        return self._rto((sender, recipient))

    def breaker_for(self, sender: str, recipient: str) -> CircuitBreaker:
        """The circuit breaker guarding a directed link."""
        return self._breaker((sender, recipient))

    def add_link_observer(
        self, observer: Callable[[str, str, str, float | None], None]
    ) -> None:
        """Register ``observer(sender, recipient, outcome, rtt)`` called
        on every terminal transfer outcome — the hook that feeds
        per-link delivery evidence to an adaptive failure detector
        without this module importing one."""
        self._link_observers.append(observer)

    def probe(self, sender: str, recipient: str, size_bytes: int = 32) -> int:
        """Send a single-shot liveness probe over a directed link.

        A heartbeat carrying a transfer id: the receiver ACKs it like
        any acknowledged transfer, so the probe's outcome (``acked``
        within the adaptive RTO, or ``gave_up`` on timeout) reaches the
        registered link observers.  Probes are single-shot — one
        timeout is the evidence, retrying would only blur it.  Returns
        the transfer id.
        """
        message = Message(
            sender=sender,
            recipient=recipient,
            kind=MessageKind.HEARTBEAT,
            payload={"__probe__": True},
            size_bytes=size_bytes,
        )
        return self._start(message, probe=True)

    # -- internals ----------------------------------------------------------

    def _start(self, message: Message, probe: bool = False) -> int:
        """Open one acknowledged transfer; returns its id."""
        pending = _Pending(
            transfer_id=next(self._transfer_ids), template=message, probe=probe
        )
        self.stats.transfers_started += 1
        if self._peer_departed(message.recipient):
            # fail fast: the owner walked away, no retransmission can
            # ever be answered
            self.stats.departure_fast_fails += 1
            self._fail(pending, "peer_dead")
            return pending.transfer_id
        message.headers[TRANSFER_HEADER] = pending.transfer_id
        self._pending[pending.transfer_id] = pending
        if probe:
            self.stats.probes_sent += 1
        self._transmit(pending)
        return pending.transfer_id

    def _peer_departed(self, device_id: str) -> bool:
        checker = getattr(self.network, "has_departed", None)
        return bool(checker is not None and checker(device_id))

    def _on_peer_departed(self, device_id: str) -> None:
        """Fail every in-flight transfer addressed to a departed peer.

        Surfacing ``peer_dead`` immediately (instead of lazily on the
        next RTO expiry, then again per attempt until the budget or
        attempt cap drained) is the graceful-departure contract: the
        network told us the owner left, so the evidence is conclusive.
        """
        doomed = [
            pending
            for pending in self._pending.values()
            if not pending.done and pending.template.recipient == device_id
        ]
        for pending in doomed:
            self.stats.departure_fast_fails += 1
            self._fail(pending, "peer_dead")

    def _rto(self, link: tuple[str, str]) -> float:
        """A link's RTO; one with no sample reads a fresh estimator's."""
        estimator = self._estimators.get(link)
        return INITIAL_RTO if estimator is None else estimator.rto

    def _estimator(self, link: tuple[str, str]) -> RttEstimator:
        estimator = self._estimators.get(link)
        if estimator is None:
            estimator = self._estimators[link] = RttEstimator()
        return estimator

    def _breaker(self, link: tuple[str, str]) -> CircuitBreaker:
        breaker = self._breakers.get(link)
        if breaker is None:
            breaker = self._breakers[link] = CircuitBreaker()
        return breaker

    def _make_receiver(self, device_id: str, handler: Handler) -> Handler:
        def receive(message: Message) -> None:
            if message.kind is MessageKind.ACK:
                self._on_ack(message)
                return
            transfer_id = message.headers.get(TRANSFER_HEADER)
            if transfer_id is None:
                handler(message)
                return
            # acknowledge first (even duplicates: the earlier ACK may
            # have been lost, which is why the sender retransmitted)
            self._send_ack(device_id, message.sender, transfer_id, message)
            seen = self._seen.setdefault(device_id, set())
            if transfer_id in seen:
                self._count("duplicates_suppressed")
                return
            seen.add(transfer_id)
            handler(message)

        return receive

    def _send_ack(
        self,
        device_id: str,
        peer: str,
        transfer_id: int,
        inbound: Message | None = None,
    ) -> None:
        # ACKs carry only the transfer id — no application data leaves
        # the sealed payload path through them
        self._count("acks_sent")
        ack = Message(
            sender=device_id,
            recipient=peer,
            kind=MessageKind.ACK,
            payload={TRANSFER_HEADER: transfer_id},
            size_bytes=ACK_SIZE_BYTES,
        )
        if inbound is not None and "query" in inbound.headers:
            # route the ACK back to the query whose transfer it
            # acknowledges — under a query mux the sender's transport is
            # reachable only through that query's routing table
            ack.headers["query"] = inbound.headers["query"]
        self.network.send(ack)

    def _on_ack(self, message: Message) -> None:
        payload = message.payload
        transfer_id = (
            payload.get(TRANSFER_HEADER) if isinstance(payload, dict) else None
        )
        pending = self._pending.get(transfer_id) if transfer_id else None
        if pending is None or pending.done:
            self.stats.stale_acks += 1
            return
        pending.done = True
        link = (pending.template.sender, pending.template.recipient)
        # breakers are built on a link's first failure; a fresh one is
        # already in the state record_success() leaves behind
        breaker = self._breakers.get(link)
        if breaker is not None:
            breaker.record_success()
        rtt = None
        if not pending.retransmitted:  # Karn's rule
            rtt = self.simulator.now - pending.last_sent_at
            self._estimator(link).observe(rtt)
            self.stats.rtt_samples += 1
            self._h_rtt.observe(rtt)
        self._count("transfers_acked")
        self._finish(pending, "acked", rtt=rtt)

    def _transmit(self, pending: _Pending) -> None:
        attempt = pending.attempts
        pending.attempts += 1
        pending.last_sent_at = self.simulator.now
        template = pending.template
        if attempt == 0:
            wire = template
        else:
            wire = Message(
                sender=template.sender,
                recipient=template.recipient,
                kind=template.kind,
                payload=template.payload,
                size_bytes=template.size_bytes,
                headers=dict(template.headers),
            )
        wire.headers[ATTEMPT_HEADER] = attempt
        self.network.send(wire)

        link = (template.sender, template.recipient)
        timeout = self._rto(link) * BACKOFF_FACTOR**attempt
        timeout = min(max(timeout, MIN_RTO), MAX_RTO)
        if not pending.probe:
            timeout *= 1 + JITTER_FRACTION * self._jitter_rng.random()
        epoch = self.simulator.epoch
        transfer_id = pending.transfer_id
        self.simulator.schedule(
            timeout,
            lambda: (
                self._on_timeout(transfer_id)
                if self.simulator.epoch == epoch
                else None
            ),
            description="rto",
        )

    def _on_timeout(self, transfer_id: int) -> None:
        pending = self._pending.get(transfer_id)
        if pending is None or pending.done:
            return
        now = self.simulator.now
        link = (pending.template.sender, pending.template.recipient)
        breaker = self._breaker(link)
        breaker.record_failure(now)
        if pending.attempts >= (1 if pending.probe else MAX_ATTEMPTS):
            self._fail(pending, "gave_up")
            return
        if self.network.is_dead(pending.template.recipient):
            self._fail(pending, "peer_dead")
            return
        if not breaker.allows(now):
            self._count("circuit_fast_fails")
            self._fail(pending, "circuit_open")
            return
        if self._budget_left <= 0:
            self._fail(pending, "budget_exhausted")
            return
        self._budget_left -= 1
        pending.retransmitted = True
        self._count("retransmissions")
        self._transmit(pending)

    def _count(self, field: str) -> None:
        """Bump one mirrored stats field and its counter."""
        setattr(self.stats, field, getattr(self.stats, field) + 1)
        self._m_stats[field].inc()

    def _fail(self, pending: _Pending, outcome: str) -> None:
        pending.done = True
        self._count("transfers_failed")
        self._finish(pending, outcome)

    def _finish(
        self, pending: _Pending, outcome: str, rtt: float | None = None
    ) -> None:
        template = pending.template
        self._receipts.append(
            (
                pending.transfer_id,
                template.kind.value,
                template.sender,
                template.recipient,
                outcome,
                pending.attempts,
                rtt,
            )
        )
        self._pending.pop(pending.transfer_id, None)
        if self._link_observers:
            # Karn's rule withholds the RTT from the *estimator* on
            # retransmitted transfers; the detector still wants an
            # arrival signal, so fall back to time-since-last-send
            sample = rtt
            if outcome == "acked" and sample is None:
                sample = self.simulator.now - pending.last_sent_at
            for observer in self._link_observers:
                observer(template.sender, template.recipient, outcome, sample)
