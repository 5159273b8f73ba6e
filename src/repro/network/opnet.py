"""The opportunistic network: uncertain, store-and-forward delivery.

This is the communication substrate of Edgelet computing.  Messages are
delivered with per-link latency and loss sampled from the contact graph;
devices can be *offline* (disconnected at will or crashed), in which case
messages destined to them are either buffered until reconnection
(store-and-forward, the OppNet behaviour) or dropped after a timeout.

The network is deliberately *not* reliable: the Edgelet execution
strategies (Overcollection, Backup, heartbeat-cadenced ML) exist exactly
because this layer gives no delivery guarantee.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.network.messages import Message, MessageKind
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph, LinkQuality

__all__ = ["NetworkConfig", "OpportunisticNetwork"]

Handler = Callable[[Message], None]


@dataclass(frozen=True)
class NetworkConfig:
    """Tunable knobs of the opportunistic network.

    Attributes:
        allow_relay: deliver across multi-hop contact paths (each hop
            adds its own latency and loss trial).
        buffer_timeout: how long (virtual seconds) a message waits for an
            offline recipient before being dropped; ``None`` waits
            forever.
        default_quality: link quality used when the contact graph has no
            explicit edge but relaying is disabled and the devices are
            assumed co-located (fully-connected fallback).
        global_loss_probability: extra i.i.d. loss applied to every
            message on top of per-link loss (the demonstration's
            "failure context" slider).
    """

    allow_relay: bool = True
    buffer_timeout: float | None = 120.0
    default_quality: LinkQuality = field(default_factory=LinkQuality)
    global_loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.global_loss_probability <= 1:
            raise ValueError("global_loss_probability must be in [0, 1]")
        if self.buffer_timeout is not None and self.buffer_timeout < 0:
            raise ValueError("buffer_timeout must be non-negative")


#: The :class:`NetworkStats` counters that mean a message was lost or
#: tampered with on the way — a run is *clean* only if none of them
#: moved.  A counter that cannot fire in a given mode simply reads 0.
LOSS_COUNTERS = (
    "lost",
    "dropped_timeout",
    "no_route",
    "to_dead_device",
    "departed",
    "partitioned",
    "gray_lost",
    "fault_dropped",
    "fault_corrupted",
    "fault_duplicated",
    "fault_delayed",
)

#: Each message outcome and byte total the network counts: its
#: :class:`NetworkStats` field and the ``net.*`` counter that mirrors it
#: across every network of the run.
#: :meth:`OpportunisticNetwork._count` writes both, and is the only
#: writer of these fields.
OUTCOME_COUNTERS = {
    "delivered": "net.messages_delivered",
    "lost": "net.messages_lost",
    "dropped_timeout": "net.messages_dropped_timeout",
    "no_route": "net.messages_no_route",
    "to_dead_device": "net.messages_to_dead_device",
    "departed": "net.messages_to_departed_device",
    "partitioned": "net.messages_partitioned",
    "gray_lost": "net.messages_gray_lost",
    "bytes_sent": "net.bytes_sent",
    "bytes_delivered": "net.bytes_delivered",
    "fault_dropped": "net.fault_dropped",
    "fault_duplicated": "net.fault_duplicated",
    "fault_delayed": "net.fault_delayed",
    "fault_corrupted": "net.fault_corrupted",
}


class NetworkStats:
    """Aggregate counters maintained by the network."""

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.lost = 0
        self.dropped_timeout = 0
        self.no_route = 0
        self.to_dead_device = 0
        self.departed = 0
        self.partitioned = 0
        self.gray_lost = 0
        self.fault_dropped = 0
        self.fault_duplicated = 0
        self.fault_delayed = 0
        self.fault_corrupted = 0
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.by_kind: dict[str, int] = {}
        self.bytes_by_sender: dict[str, int] = {}
        self.bytes_by_recipient: dict[str, int] = {}

    def as_dict(self) -> dict[str, float]:
        """Snapshot of all counters plus the delivery ratio."""
        ratio = self.delivered / self.sent if self.sent else 1.0
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "lost": self.lost,
            "dropped_timeout": self.dropped_timeout,
            "no_route": self.no_route,
            "to_dead_device": self.to_dead_device,
            "departed": self.departed,
            "partitioned": self.partitioned,
            "gray_lost": self.gray_lost,
            "fault_dropped": self.fault_dropped,
            "fault_duplicated": self.fault_duplicated,
            "fault_delayed": self.fault_delayed,
            "fault_corrupted": self.fault_corrupted,
            "bytes_sent": self.bytes_sent,
            "bytes_delivered": self.bytes_delivered,
            "delivery_ratio": ratio,
        }


class OpportunisticNetwork:
    """Store-and-forward message delivery over a contact graph.

    Devices register a handler with :meth:`attach`.  Sending never
    blocks; delivery (or loss) happens later on the simulator clock.
    """

    def __init__(
        self,
        simulator: Simulator,
        topology: ContactGraph,
        config: NetworkConfig | None = None,
        seed: int = 0,
        telemetry: Any = None,
    ):
        self.simulator = simulator
        self.topology = topology
        self.config = config or NetworkConfig()
        self.stats = NetworkStats()
        self._seed = seed
        self._rng = random.Random(seed)
        # loss/latency draws for messages carrying a "query" header come
        # from a stream seeded by (network seed, query id), so one
        # query's draw sequence is independent of how many other queries
        # interleave with it — the property the workload engine's
        # serial-equivalence guarantee rests on (see _rng_for)
        self._query_rngs: dict[str, random.Random] = {}
        # per-instance id stream: two networks in one process allocate
        # identical id sequences, so fixed-seed runs replay byte-for-byte
        self._message_ids = itertools.count(1)
        self._epoch = 0
        self._handlers: dict[str, Handler] = {}
        self._online: dict[str, bool] = {}
        self._dead: set[str] = set()
        # graceful permanent departures (churn); unlike _dead this set
        # survives reset(): a departed device belongs to no future run
        # on this network instance, so neither reset nor a later attach
        # may resurrect its handler or its draws
        self._departed: set[str] = set()
        self._inboxes: dict[str, list[tuple[float, Message]]] = {}
        # topology-level outage state (repro.network.outages).  Each
        # active partition is a tuple of islands (frozensets of device
        # ids); devices absent from every island sit on the implicit
        # mainland.  Gray devices keep their handler but suffer inflated
        # latency and extra loss on every link they touch.  All of this
        # is checked behind cheap truthiness guards and the gray loss
        # trials draw from a dedicated RNG, so runs without outages make
        # exactly the draws they always made.
        self._partitions: dict[int, tuple[frozenset[str], ...]] = {}
        self._partition_ids = itertools.count(1)
        self._gray: dict[str, tuple[float, float]] = {}
        self._gray_rng: random.Random | None = None
        self._departure_listeners: list[Callable[[str], None]] = []
        # optional chaos hook (see repro.network.faults.MessageFaultInjector);
        # owns its own RNG, so installing one never shifts self._rng's stream
        self.faults: Any = None
        if telemetry is None:
            telemetry = simulator.telemetry
        self.telemetry = telemetry
        metrics = telemetry.metrics
        self._m_sent_by_kind: dict[str, Any] = {}
        self._m_outcomes = {
            outcome: metrics.counter(name)
            for outcome, name in OUTCOME_COUNTERS.items()
        }
        self._g_buffered = metrics.gauge("net.store_and_forward_occupancy")
        self._h_latency = metrics.histogram("net.delivery_latency")

    # -- device lifecycle -------------------------------------------------

    def attach(self, device_id: str, handler: Handler) -> None:
        """Register a device and its message handler (initially online).

        Registration is epoch-fenced against churn: attaching an id that
        has permanently :meth:`leave`\\ -d is a silent no-op, so neither a
        late re-attach by an in-flight execution nor a :meth:`reset` can
        resurrect a departed device.
        """
        if device_id in self._departed:
            return
        self.topology.add_device(device_id)
        self._handlers[device_id] = handler
        self._online.setdefault(device_id, True)
        self._inboxes.setdefault(device_id, [])

    def is_online(self, device_id: str) -> bool:
        """Whether the device currently accepts deliveries."""
        return self._online.get(device_id, False) and device_id not in self._dead

    def is_dead(self, device_id: str) -> bool:
        """Whether the device has permanently crashed or departed."""
        return device_id in self._dead or device_id in self._departed

    def has_departed(self, device_id: str) -> bool:
        """Whether the device has gracefully left the swarm for good."""
        return device_id in self._departed

    def set_online(self, device_id: str, online: bool) -> None:
        """Toggle temporary connectivity; reconnection flushes the inbox."""
        if device_id in self._dead or device_id in self._departed:
            return
        was_online = self._online.get(device_id, False)
        self._online[device_id] = online
        if online and not was_online:
            self._flush_inbox(device_id)

    def leave(self, device_id: str) -> None:
        """Graceful permanent departure (churn), fenced across resets.

        The device's handler is deregistered, buffered messages are
        discarded (counted under ``departed``), and the id joins the
        departed set that :meth:`reset` preserves and :meth:`attach`
        refuses — so no later run, retry, or no-op churn replay can
        bring the device (or draws on its behalf) back.  Unlike
        :meth:`kill` this is not a fault: the owner walked away.
        """
        if device_id in self._departed:
            return
        self._departed.add(device_id)
        self._online[device_id] = False
        self._handlers.pop(device_id, None)
        dropped = self._inboxes.pop(device_id, [])
        self._inboxes[device_id] = []
        self._count("departed", len(dropped))
        self._g_buffered.dec(len(dropped))
        # notify observers (e.g. ReliableTransport) so in-flight
        # transfers to the departed peer fail immediately instead of
        # retransmitting until the budget drains.  Deliberately NOT
        # invoked from kill(): a crash is a fault the transport must
        # *discover* (that lazy discovery is what existing fixed-seed
        # crash campaigns replay), whereas a graceful departure is
        # announced by the owner walking away.
        for listener in self._departure_listeners:
            listener(device_id)

    def add_departure_listener(self, listener: Callable[[str], None]) -> None:
        """Call ``listener(device_id)`` on each graceful :meth:`leave`."""
        self._departure_listeners.append(listener)

    def remove_departure_listener(self, listener: Callable[[str], None]) -> None:
        """Stop notifying ``listener``; unknown listeners are ignored."""
        if listener in self._departure_listeners:
            self._departure_listeners.remove(listener)

    def kill(self, device_id: str) -> None:
        """Permanently crash a device; buffered messages are discarded."""
        self._dead.add(device_id)
        self._online[device_id] = False
        dropped = self._inboxes.pop(device_id, [])
        self._inboxes[device_id] = []
        self._count("to_dead_device", len(dropped))
        self._g_buffered.dec(len(dropped))

    # -- topology outages ---------------------------------------------------

    def partition(self, islands: list[tuple[str, ...]] | tuple[tuple[str, ...], ...]) -> int:
        """Cut the network into components; returns a token for :meth:`heal`.

        ``islands`` lists device groups; devices in different islands —
        or in an island versus the implicit mainland of unlisted
        devices — cannot exchange messages while the partition is
        active.  Partitions compose: with several active, two devices
        communicate only if no active partition separates them.
        """
        resolved = tuple(frozenset(island) for island in islands if island)
        if not resolved:
            raise ValueError("partition needs at least one non-empty island")
        token = next(self._partition_ids)
        self._partitions[token] = resolved
        return token

    def heal(self, token: int) -> None:
        """Remove one partition (no-op if already healed or reset)."""
        self._partitions.pop(token, None)

    def partition_blocks(self, sender: str, recipient: str) -> bool:
        """Whether an active partition separates the two devices."""
        for islands in self._partitions.values():
            sender_side = recipient_side = -1
            for index, island in enumerate(islands):
                if sender in island:
                    sender_side = index
                if recipient in island:
                    recipient_side = index
            if sender_side != recipient_side:
                return True
        return False

    def set_gray(
        self, device_id: str, latency_factor: float = 1.0, extra_loss: float = 0.0
    ) -> None:
        """Mark a device gray: slow and lossy on every link, not dead."""
        if latency_factor < 1.0:
            raise ValueError("latency_factor must be >= 1")
        if not 0 <= extra_loss <= 1:
            raise ValueError("extra_loss must be in [0, 1]")
        self._gray[device_id] = (latency_factor, extra_loss)

    def clear_gray(self, device_id: str) -> None:
        """Restore a gray device to nominal link behaviour."""
        self._gray.pop(device_id, None)

    def is_gray(self, device_id: str) -> bool:
        """Whether the device is currently gray-failing."""
        return device_id in self._gray

    def _gray_effect(self, sender: str, recipient: str) -> tuple[float, float]:
        """Combined (latency factor, extra loss) for one link's endpoints."""
        factor, survive = 1.0, 1.0
        for device_id in (sender, recipient):
            entry = self._gray.get(device_id)
            if entry is not None:
                factor *= entry[0]
                survive *= 1.0 - entry[1]
        return factor, 1.0 - survive

    def _gray_trial(self) -> float:
        """Loss draw from the gray-dedicated RNG stream.

        Lazily created from a string-derived seed so the main RNG
        stream's draw sequence is untouched whether or not any device
        ever goes gray.
        """
        if self._gray_rng is None:
            self._gray_rng = random.Random(f"{self._seed}:gray")
        return self._gray_rng.random()

    # -- sending ------------------------------------------------------------

    def reset(self) -> None:
        """Return the network to its just-built state for a fresh run.

        Mirrors :meth:`repro.network.simulator.Simulator.reset`: the
        epoch fence guarantees that in-flight deliveries and expiry
        timers scheduled before the reset become no-ops, so a reused
        network never leaks buffered store-and-forward messages into the
        next run.  Topology, attached handlers, and any installed fault
        injector survive; dynamic state (online/dead flags, inboxes,
        stats, the RNG, and the message-id stream) restarts so
        a post-reset run is byte-identical to one on a fresh network.
        """
        self._epoch += 1
        self.stats = NetworkStats()
        self._rng = random.Random(self._seed)
        self._query_rngs.clear()
        self._message_ids = itertools.count(1)
        self._dead.clear()
        self._partitions.clear()
        self._gray.clear()
        self._gray_rng = None
        # _departed deliberately survives: reset() rewinds dynamic state
        # of the *population that remains*, it does not re-admit devices
        # whose owners permanently left mid-history
        for device_id in self._handlers:
            if device_id in self._departed:
                continue
            self._online[device_id] = True
            self._inboxes[device_id] = []
        self._g_buffered.set(0)

    @property
    def epoch(self) -> int:
        """Monotone counter bumped by :meth:`reset` (the timer fence)."""
        return self._epoch

    def send(self, message: Message) -> None:
        """Inject a message into the network (asynchronous, unreliable)."""
        if message.message_id is None:
            message.message_id = next(self._message_ids)
        message.sent_at = self.simulator.now
        self.stats.sent += 1
        self._count("bytes_sent", message.size_bytes)
        self.stats.bytes_by_sender[message.sender] = (
            self.stats.bytes_by_sender.get(message.sender, 0) + message.size_bytes
        )
        kind = message.kind.value
        self.stats.by_kind[kind] = self.stats.by_kind.get(kind, 0) + 1
        sent_counter = self._m_sent_by_kind.get(kind)
        if sent_counter is None:
            sent_counter = self._m_sent_by_kind[kind] = (
                self.telemetry.metrics.counter("net.messages_sent", kind=kind)
            )
        sent_counter.inc()

        if message.recipient in self._departed:
            self._count("departed")
            return
        if message.recipient in self._dead:
            self._count("to_dead_device")
            return
        if self._partitions and self.partition_blocks(message.sender, message.recipient):
            self._count("partitioned")
            return

        copies = 1
        extra_delay = 0.0
        if self.faults is not None:
            decision = self.faults.on_send(message)
            if decision.drop:
                self._count("fault_dropped")
                return
            if decision.corrupt:
                message.payload = self.faults.corrupt_payload(message.payload)
                self._count("fault_corrupted")
            if decision.copies > 1:
                self._count("fault_duplicated", decision.copies - 1)
            if decision.extra_delay > 0:
                self._count("fault_delayed")
            copies = decision.copies
            extra_delay = decision.extra_delay

        # gray endpoints inflate latency and add loss *after* the normal
        # trials: extra loss draws come from the gray-dedicated RNG and
        # latency is scaled post-sampling, so the main stream's draw
        # count is identical with and without gray devices
        gray_factor, gray_loss = 1.0, 0.0
        if self._gray:
            gray_factor, gray_loss = self._gray_effect(
                message.sender, message.recipient
            )

        rng = self._rng_for(message)
        # each copy takes its own loss and latency trials, exactly the
        # draws the single-copy path always made (stream-compatible)
        for _ in range(copies):
            if rng.random() < self.config.global_loss_probability:
                self._count("lost")
                continue

            quality, hops = self._route(message.sender, message.recipient)
            if quality is None:
                self._count("no_route")
                continue

            # one loss trial per hop
            lost = False
            for _ in range(hops):
                if rng.random() < quality.loss_probability:
                    self._count("lost")
                    lost = True
                    break
            if lost:
                continue

            if gray_loss > 0 and self._gray_trial() < gray_loss:
                # a gray loss is a loss too
                self._count("gray_lost")
                self._count("lost")
                continue

            latency = extra_delay + gray_factor * sum(
                quality.sample_latency(message.size_bytes, rng)
                for _ in range(hops)
            )
            epoch = self._epoch
            self.simulator.schedule(
                latency,
                lambda: self._arrive(message) if self._epoch == epoch else None,
                description="deliver",
            )

    def install_faults(self, injector: Any) -> None:
        """Install a chaos message-fault injector on the send path."""
        self.faults = injector

    def broadcast(
        self, sender: str, recipients: list[str], kind: MessageKind, payload_for: Callable[[str], object],
        size_bytes: int = 256,
    ) -> list[Message]:
        """Send one message per recipient; returns the messages sent."""
        messages = []
        for recipient in recipients:
            message = Message(
                sender=sender,
                recipient=recipient,
                kind=kind,
                payload=payload_for(recipient),
                size_bytes=size_bytes,
            )
            self.send(message)
            messages.append(message)
        return messages

    # -- internals ----------------------------------------------------------

    def _rng_for(self, message: Message) -> random.Random:
        """The RNG stream supplying this message's loss/latency draws.

        A message carrying a ``query`` header draws from
        ``Random(f"{seed}:q:{query_id}")`` — a stream private to that
        query, unaffected by interleaved traffic of other queries.
        Headerless messages (every one-shot run's) keep the single
        shared stream.
        """
        query_id = message.headers.get("query")
        if query_id is None:
            return self._rng
        rng = self._query_rngs.get(query_id)
        if rng is None:
            rng = self._query_rngs[query_id] = random.Random(
                f"{self._seed}:q:{query_id}"
            )
        return rng

    def _route(self, sender: str, recipient: str) -> tuple[LinkQuality | None, int]:
        """Find link quality and hop count between two devices."""
        direct = self.topology.quality(sender, recipient)
        if direct is not None:
            return direct, 1
        if self.config.allow_relay:
            path = self.topology.path(sender, recipient)
            if path is not None and len(path) >= 2:
                # conservatively use the worst link quality on the path
                worst = None
                for a, b in zip(path, path[1:]):
                    quality = self.topology.quality(a, b)
                    if quality is None:
                        return None, 0
                    if worst is None or quality.base_latency > worst.base_latency:
                        worst = quality
                return worst, len(path) - 1
            return None, 0
        if self.topology.has_device(sender) and self.topology.has_device(recipient):
            # co-located fallback when no explicit topology is modelled
            return self.config.default_quality, 1
        return None, 0

    def _count(self, outcome: str, amount: int = 1) -> None:
        """Add ``amount`` to one outcome's stats field and its counter."""
        stats = self.stats
        setattr(stats, outcome, getattr(stats, outcome) + amount)
        self._m_outcomes[outcome].inc(amount)

    def _arrive(self, message: Message) -> None:
        """A message physically reaches its destination's radio."""
        recipient = message.recipient
        if recipient in self._departed:
            self._count("departed")
            return
        if recipient in self._dead:
            self._count("to_dead_device")
            return
        if self.is_online(recipient):
            self._deliver(message)
            return
        # store-and-forward: buffer until reconnection or timeout
        self._inboxes.setdefault(recipient, []).append((self.simulator.now, message))
        self._g_buffered.inc()
        if self.config.buffer_timeout is not None:
            epoch = self._epoch
            self.simulator.schedule(
                self.config.buffer_timeout,
                lambda: (
                    self._expire(recipient, message)
                    if self._epoch == epoch
                    else None
                ),
                description=f"expire {message.describe()}",
            )

    def _expire(self, recipient: str, message: Message) -> None:
        inbox = self._inboxes.get(recipient, [])
        for i, (_, buffered) in enumerate(inbox):
            if buffered.message_id == message.message_id:
                del inbox[i]
                self._count("dropped_timeout")
                self._g_buffered.dec()
                return

    def _flush_inbox(self, device_id: str) -> None:
        inbox = self._inboxes.get(device_id, [])
        self._inboxes[device_id] = []
        self._g_buffered.dec(len(inbox))
        for _, message in inbox:
            self._deliver(message)

    def _deliver(self, message: Message) -> None:
        message.delivered_at = self.simulator.now
        self._count("delivered")
        self._count("bytes_delivered", message.size_bytes)
        in_flight = message.in_flight_time
        if in_flight is not None:
            self._h_latency.observe(in_flight)
        self.stats.bytes_by_recipient[message.recipient] = (
            self.stats.bytes_by_recipient.get(message.recipient, 0)
            + message.size_bytes
        )
        handler = self._handlers.get(message.recipient)
        if handler is not None:
            handler(message)

    # -- observability --------------------------------------------------------

    def buffered_count(self, device_id: str) -> int:
        """Messages currently buffered for an offline device."""
        return len(self._inboxes.get(device_id, []))
