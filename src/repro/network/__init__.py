"""Opportunistic network substrate.

The Edgelet demonstration connects heterogeneous personal devices through
"uncertain" communications: opportunistic contacts, disconnections at
will, crashes, message loss.  This package provides:

* :mod:`repro.network.simulator` — a deterministic discrete-event kernel
  (virtual clock, event queue, timers, processes);
* :mod:`repro.network.messages` — typed message records;
* :mod:`repro.network.topology` — contact-graph models (who can ever talk
  to whom, and with what link quality);
* :mod:`repro.network.opnet` — the opportunistic network itself:
  store-and-forward delivery with latency/loss sampled per link;
* :mod:`repro.network.failures` — the one fault schedule,
  :class:`FailurePlan` of six atom kinds under one epoch-fenced
  ``apply`` (crashes, i.e. powering devices off at will; disconnect
  windows; healing partitions; regional crashes; gray windows;
  windowed message-fault rules), and ``build_crash_plan``, which draws
  the failure slider's crashes and disconnect windows into plan atoms
  before the run starts;
* :mod:`repro.network.outages` — the seeded generator that resolves an
  :class:`~repro.network.outages.OutageSpec` into plan atoms;
* :mod:`repro.network.faults` — per-send message rules (drop,
  duplicate, delay, corrupt) rolled from a seeded stream;
* :mod:`repro.network.reliable` — opt-in end-to-end reliability layer
  (ACK/retransmission of the result-bearing kinds, adaptive timeouts,
  circuit breakers) on top of the unreliable substrate.
"""

from repro.network.simulator import Event, Simulator
from repro.network.messages import Message, MessageKind
from repro.network.topology import ContactGraph, LinkQuality
from repro.network.opnet import NetworkConfig, OpportunisticNetwork
from repro.network.failures import FailurePlan
from repro.network.mobility import CaregiverRounds, ContactSchedule, RandomWaypointContacts
from repro.network.reliable import ReliableTransport, TransportReceipt

__all__ = [
    "CaregiverRounds",
    "ContactGraph",
    "ContactSchedule",
    "Event",
    "FailurePlan",
    "LinkQuality",
    "Message",
    "MessageKind",
    "NetworkConfig",
    "RandomWaypointContacts",
    "OpportunisticNetwork",
    "ReliableTransport",
    "Simulator",
    "TransportReceipt",
]
