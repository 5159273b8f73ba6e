"""Q-REL — delivered fraction and wire cost of the reliability layer.

Compares the three ways a result-bearing message can survive a lossy
link, over a sweep of per-message loss probabilities:

* **blind x3** — the paper's original defence: send three independent
  copies, fire-and-forget (survives up to two losses, costs 3x bytes);
* **ack/retransmit** — one copy through ``ReliableTransport``: the
  receiver acknowledges, the sender retransmits on adaptive timeout;
* **both** — three copies, each its own acknowledged transfer.

Delivered fraction counts *unique* application payloads reaching the
recipient; bytes-on-wire is the opnet's total (data + retransmissions +
ACK overhead), so the retransmission strategy pays for its ACKs here.
"""

from __future__ import annotations

import sys
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).parent))

from _tables import print_table

from repro.network.messages import Message, MessageKind
from repro.network.opnet import NetworkConfig, OpportunisticNetwork
from repro.network import reliable
from repro.network.reliable import ReliableTransport
from repro.network.simulator import Simulator
from repro.network.topology import ContactGraph, LinkQuality

N_MESSAGES = 150
PAYLOAD_BYTES = 600
VARIANTS = ("blind x1", "blind x3", "ack/retransmit", "both")


def _run_variant(loss: float, variant: str, seed: int = 7):
    """One a->b campaign; returns (delivered_fraction, bytes_on_wire).

    The breaker is disarmed so the sweep isolates pure retransmission
    behaviour (at 50% loss the stock breaker would fast-fail, which is
    the right production behaviour but not what this figure measures).
    """
    with mock.patch.object(reliable, "BREAKER_THRESHOLD", 10**6):
        return _campaign(loss, variant, seed)


def _campaign(loss: float, variant: str, seed: int):
    sim = Simulator()
    quality = LinkQuality(
        base_latency=0.2, latency_jitter=0.0, loss_probability=loss
    )
    topology = ContactGraph(default_quality=quality)
    topology.add_link("a", "b")
    network = OpportunisticNetwork(
        sim, topology, NetworkConfig(default_quality=quality), seed=seed
    )
    transport = ReliableTransport(network, seed=seed)
    delivered: set[int] = set()
    transport.attach("a", lambda message: None)
    transport.attach("b", lambda message: delivered.add(message.payload))

    copies = 3 if variant in ("blind x3", "both") else 1
    acknowledged = variant in ("ack/retransmit", "both")
    for index in range(N_MESSAGES):
        for _ in range(copies):
            message = Message(
                sender="a", recipient="b", kind=MessageKind.CONTRIBUTION,
                payload=index, size_bytes=PAYLOAD_BYTES,
            )
            if acknowledged:
                transport.send(message)
            else:
                network.send(message)
    sim.run()
    return len(delivered) / N_MESSAGES, network.stats.bytes_sent


def test_qrel_delivery_vs_wire_cost(benchmark):
    """ACK/retransmit beats blind copies on both axes as loss grows."""
    rows = []
    results: dict[tuple[float, str], tuple[float, int]] = {}
    for loss in (0.0, 0.1, 0.2, 0.3, 0.5):
        for variant in VARIANTS:
            fraction, wire_bytes = _run_variant(loss, variant)
            results[(loss, variant)] = (fraction, wire_bytes)
            per_delivered = (
                wire_bytes / (fraction * N_MESSAGES) if fraction else 0.0
            )
            rows.append([
                loss, variant, f"{fraction:.1%}", wire_bytes,
                f"{per_delivered:.0f}",
            ])
    print_table(
        "Q-REL: delivered fraction / bytes-on-wire vs message loss "
        f"[{N_MESSAGES} msgs of {PAYLOAD_BYTES}B, a-b link]",
        ["msg loss", "strategy", "delivered", "bytes on wire",
         "bytes/delivered"],
        rows,
    )

    for loss in (0.2, 0.3, 0.5):
        blind3 = results[(loss, "blind x3")]
        acked = results[(loss, "ack/retransmit")]
        # retransmission delivers at least as much as triple-send (up to
        # sampling noise on 150 messages), never for more bytes
        assert acked[0] >= blind3[0] - 0.03
        assert acked[1] <= blind3[1]
    # at moderate loss the byte saving is material (ACK overhead
    # included); at 50% loss ~2.7 attempts/transfer erode it, which the
    # table makes visible
    for loss in (0.2, 0.3):
        assert (
            results[(loss, "ack/retransmit")][1]
            < 0.8 * results[(loss, "blind x3")][1]
        )
    # at heavy loss four adaptive attempts beat three blind copies
    assert (
        results[(0.5, "ack/retransmit")][0] > results[(0.5, "blind x3")][0]
    )
    # belt-and-braces composition tops the delivery table at heavy loss
    assert results[(0.5, "both")][0] >= results[(0.5, "ack/retransmit")][0]

    benchmark.pedantic(
        lambda: _run_variant(0.3, "ack/retransmit"), rounds=3, iterations=1
    )
