"""Execution outcome records shared by every role runtime."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.runtime.events import Event, EventKind, of_kind
from repro.errors import ReproError
from repro.query.groupby import GroupByQuery, GroupingSetsResult

if TYPE_CHECKING:
    from repro.core.runtime.combiner import CombinerState

__all__ = [
    "ExecutionError",
    "ExecutionEvidence",
    "ExecutionReport",
    "KMeansOutcome",
    "phase_timeline",
]


class ExecutionError(ReproError):
    """Raised on executor misconfiguration (not on runtime faults)."""


@dataclass(frozen=True)
class KMeansOutcome:
    """Final clustering produced by the Computing Combiner.

    Attributes:
        centroids: ``(k, d)`` merged centroids.
        weights: data points backing each centroid.
        knowledges_merged: how many Computer knowledges reached the
            combiner before the deadline.
        cluster_stats: optional Group-By-on-clusters result.
    """

    centroids: np.ndarray
    weights: np.ndarray
    knowledges_merged: int
    cluster_stats: GroupingSetsResult | None = None


@dataclass
class ExecutionReport:
    """Everything an experiment wants to know about one execution.

    Attributes:
        query_id: the executed query.
        success: whether the Querier received a final result.
        result: the aggregate result (``aggregate`` kind).
        kmeans: the clustering outcome (``kmeans`` kind).
        tally: partition tally summary from the winning combiner.
        received_partitions: distinct (partition, group) cells received.
        delivered_by: which combiner delivered first
            (``"combiner"``/``"combiner-backup"``/``None``).
        completion_time: virtual time of result delivery.
        network_stats: counters from the opportunistic network.
        tuples_per_device: raw tuples handled per processing device.
        events: every recorded execution step, in order
            (:mod:`repro.core.runtime.events`).
        heartbeats_run: heartbeats executed (kmeans only).
        convergence_trace: per-heartbeat mean centroid shift across the
            live Computers (kmeans only) — the "follow the execution in
            real time" signal the demo GUI plots.
        telemetry: the :class:`repro.telemetry.Telemetry` this execution
            recorded into.
        degraded: the delivered result is *partial* — a combiner could
            not reach quorum for every vertical group by the deadline
            and emitted what it had, explicitly labelled (graceful
            degradation, never silent).
        coverage: for a degraded result, which groups were covered and
            by how many partitions (``groups_covered``,
            ``groups_total``, ``per_group_received``,
            ``received_fraction``).
        validity_bound: worst-case relative-error bound for a degraded
            result, from :func:`repro.core.validity.partial_validity_bound`.
        transport_stats: counters from the reliability layer, when one
            was wired (retransmissions, ACKs, duplicate suppression...).
    """

    query_id: str
    success: bool = False
    result: GroupingSetsResult | None = None
    kmeans: KMeansOutcome | None = None
    tally: dict[str, Any] = field(default_factory=dict)
    received_partitions: int = 0
    delivered_by: str | None = None
    completion_time: float | None = None
    network_stats: dict[str, float] = field(default_factory=dict)
    tuples_per_device: dict[str, int] = field(default_factory=dict)
    events: list[Event] = field(default_factory=list)
    heartbeats_run: int = 0
    convergence_trace: list[tuple[int, float]] = field(default_factory=list)
    telemetry: Any = None
    degraded: bool = False
    coverage: dict[str, Any] = field(default_factory=dict)
    validity_bound: float | None = None
    transport_stats: dict[str, float] = field(default_factory=dict)

    @property
    def trace(self) -> list[tuple[float, str]]:
        """``(time, line)`` per event with a trace line, in order: the
        step-by-step text trace, rendered from :attr:`events`."""
        rendered = ((event.time, event.render()) for event in self.events)
        return [(time, line) for time, line in rendered if line is not None]

    @property
    def reprovisions(self) -> list[tuple[float, str, str, str]]:
        """``(time, op_id, old_device, new_device)`` per
        watchdog-triggered participant reprovisioning."""
        return [
            (event.time, event.op, event.fields["old"] or "?", event.fields["new"])
            for event in of_kind(self.events, EventKind.REPROVISIONED)
        ]


@dataclass(frozen=True)
class ExecutionEvidence:
    """What one concluded execution leaves for the checks that judge it.

    :meth:`~repro.core.runtime.coordinator.ExecutionCoordinator.evidence`
    builds it when the execution is sealed, on every path.  It holds the
    combiner states and the events, never the runtimes, the context, the
    builders' rows or the transport, so a multi-query engine keeps it
    and lets the execution go.

    Attributes:
        kind: ``"aggregate"`` or ``"kmeans"``.
        query: the executed group-by query (``None`` for k-means).
        start_time: virtual time the execution started (the base of its
            report fingerprint).
        combiners: both combiner states (partials, tallies, config,
            ``n_groups``, accepted generations), keyed
            ``combiner``/``combiner-backup``.
        aggregate_indices_per_group: vertical-partitioning aggregate
            slices, one list per group.
        events: the execution's event list (the report's own), which
            the takeover and split-brain checks read by kind.
        network: the network the execution ran on (a shared swarm's
            query-scoped endpoint), for end-of-run liveness reads.
    """

    kind: str
    query: GroupByQuery | None
    start_time: float
    combiners: dict[str, "CombinerState"]
    aggregate_indices_per_group: list[list[int]]
    events: list[Event]
    network: Any


def phase_timeline(report: ExecutionReport) -> dict[str, float | None]:
    """Extract phase boundary times from an execution report.

    Returns the first snapshot-freeze time (collection → computation),
    the first partial result sent or lost or K-Means initialization,
    and completion; a phase that never happened is ``None``.
    """
    return {
        "collection_end": _first(report, EventKind.SNAPSHOT_FROZEN),
        "computation_start": _first(
            report,
            EventKind.PARTIAL_SENT, EventKind.PARTIAL_LOST, EventKind.KMEANS_INIT,
        ),
        "completion": report.completion_time,
    }


def _first(report: ExecutionReport, *kinds: EventKind) -> float | None:
    return next(
        (event.time for event in report.events if event.kind in kinds), None
    )
