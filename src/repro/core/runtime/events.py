"""One typed record per execution step.

Every step an execution records — a snapshot frozen, a partial sent or
received, a takeover, a watchdog decision, a payload dropped — is one
:class:`Event` in its report's event list (``ExecutionReport.events``,
carried on by :class:`~repro.core.runtime.report.ExecutionEvidence`).
Readers select events by :class:`EventKind` and read their fields; the
step-by-step text trace (``ExecutionReport.trace``) is a rendering of
the same list through the one prose template each kind owns, so no
reader parses prose and no step is recorded twice.

=========================  ============================================
reader                     reads
=========================  ============================================
``ExecutionReport.trace``  every kind with a template, rendered
``.reprovisions``          ``REPROVISIONED``
``report_fingerprint``     every event, as its record, never rendered
recovery watchdog          ``PARTIAL_SENT`` (generations fired per
                           cell), ``.reprovisions`` (the cap)
``phase_timeline``         the first ``SNAPSHOT_FROZEN``; the first
                           ``PARTIAL_SENT`` / ``PARTIAL_LOST`` /
                           ``KMEANS_INIT``
telemetry publication      ``phase_timeline`` (spans and marks); the
                           counts of ``SNAPSHOT_FROZEN``,
                           ``PARTIAL_ARRIVED``, ``DELIVERED``,
                           ``REPROVISIONED``, ``WATCHDOG_FIRED``,
                           ``SUSPECTED``, ``TAKEOVER``,
                           ``PAYLOAD_REJECTED`` (counters)
no-double-takeover check   ``TAKEOVER``
no-split-brain check       ``PARTIAL_SENT``, ``PARTIAL_ARRIVED``
=========================  ============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique
from typing import Any, Iterable

__all__ = ["Event", "EventKind", "of_kind"]


@unique
class EventKind(Enum):
    """What happened; a kind's value is the prose template its trace
    line renders from: ``{op}`` is the event's operator, every other
    name one of its fields.  A kind valued ``None`` leaves no trace
    line."""

    # snapshot builders — SNAPSHOT_FROZEN fields: rows
    BUILDER_DEAD = "{op} dead at end of collection"
    NO_ROWS = "{op} collected no rows"
    SNAPSHOT_FROZEN = "{op} snapshot frozen: {rows} rows"
    PARTITION_UNSHIPPED = "{op} offline, partition not shipped"
    # computers — PARTIAL_SENT fields: cell, device, generation;
    # KMEANS_INIT fields: points
    PARTIAL_LOST = "{op} offline, partial lost"
    PARTIAL_SENT = "{op} partial result computed and sent"
    NO_FEATURE_ROWS = "{op} received no usable feature rows"
    KMEANS_INIT = "{op} initialized K-Means on {points} points"
    # combiners — PARTIAL_ARRIVED fields: cell, sender, generation,
    # disposition; DEGRADED fields: covered, total
    PARTIAL_ARRIVED = None
    COMBINER_OFFLINE = "{op} offline at deadline"
    DEGRADED = (
        "{op}: quorum unreachable, emitting degraded partial result "
        "({covered}/{total} groups covered)"
    )
    NO_PARTITIONS = "{op}: no partitions received, cannot finalize"
    NO_KNOWLEDGES = "{op}: no knowledges received, cannot finalize"
    FINAL_SENT = "{op} sent final result to querier"
    STATS_SENT = "{op} sent cluster statistics to querier"
    # querier — DELIVERED fields: by
    DELIVERED = "querier received final result from {by}"
    STATS_DELIVERED = "querier received cluster statistics"
    # replica chains — fields: base, rank
    TAKEOVER = "{op} takes over {base}"
    # recovery watchdog — SUSPECTED / WATCHDOG_FIRED fields: device,
    # cell; NO_RETAINED_PARTITION / BUILDER_UNREACHABLE fields:
    # partition; REPROVISIONED fields: old, new, generation
    SUSPECTED = (
        "detector: {device} suspected (suspicion over threshold), "
        "cell {cell} missing"
    )
    WATCHDOG_FIRED = "watchdog: {op} unreachable on {device}, cell {cell} missing"
    NO_RETAINED_PARTITION = (
        "watchdog: no retained partition {partition}, cannot reprovision {op}"
    )
    BUILDER_UNREACHABLE = (
        "watchdog: builder for partition {partition} unreachable, "
        "cannot reprovision {op}"
    )
    NO_STANDBY = "watchdog: no standby left for {op}"
    REPROVISIONED = (
        "watchdog: reprovisioned {op} from {old} to standby {new} "
        "at generation {generation}"
    )
    # sealed transport — fields: device, message (the message kind)
    PAYLOAD_REJECTED = "{device} dropped unauthenticated {message}"


@dataclass(frozen=True, slots=True)
class Event:
    """One execution step: when, what, which operator, and the step's
    fields (named where :class:`EventKind` declares its kind)."""

    time: float
    kind: EventKind
    op: str | None
    fields: dict[str, Any]

    def render(self) -> str | None:
        """The step's trace line (``None`` for a kind without one)."""
        template = self.kind.value
        if template is None:
            return None
        return template.format(op=self.op, **self.fields)


def of_kind(events: Iterable[Event], *kinds: EventKind) -> list[Event]:
    """The events of the given kinds, in the order they happened."""
    return [event for event in events if event.kind in kinds]
