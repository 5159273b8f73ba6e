"""An execution's evidence events as plain tuples, for tests that pin
or compare them.

* :func:`takeovers`: ``(time, base op, rank)`` per ``TAKEOVER``;
* :func:`fires`: ``(time, cell, device, generation)`` per
  ``PARTIAL_SENT``;
* :func:`arrivals`: ``(time, cell, combiner op, sender, generation,
  disposition)`` per ``PARTIAL_ARRIVED``.

Each takes an :class:`~repro.core.runtime.ExecutionEvidence` (a
concluded result's ``evidence``, or ``executor.evidence()``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any

from repro.core.runtime.events import EventKind, of_kind

_FIRED = itemgetter("cell", "device", "generation")
_ARRIVED = itemgetter("sender", "generation", "disposition")


def takeovers(evidence: Any) -> list[tuple]:
    return [
        (event.time, event.fields["base"], event.fields["rank"])
        for event in of_kind(evidence.events, EventKind.TAKEOVER)
    ]


def fires(evidence: Any) -> list[tuple]:
    return [
        (event.time, *_FIRED(event.fields))
        for event in of_kind(evidence.events, EventKind.PARTIAL_SENT)
    ]


def arrivals(evidence: Any) -> list[tuple]:
    return [
        (event.time, event.fields["cell"], event.op, *_ARRIVED(event.fields))
        for event in of_kind(evidence.events, EventKind.PARTIAL_ARRIVED)
    ]
