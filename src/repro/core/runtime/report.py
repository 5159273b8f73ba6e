"""Execution outcome records shared by every role runtime."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.overcollection import (
    OvercollectionConfig,
    PartitionTally,
    worst_group_summary,
)
from repro.core.runtime.events import Event, EventKind, of_kind
from repro.errors import ReproError
from repro.query.groupby import GroupingSetsResult

if TYPE_CHECKING:
    from repro.core.privacy import ExposureFacts
    from repro.core.runtime.combiner import CombinerState

__all__ = [
    "CombinerRecord",
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
class CombinerRecord:
    """What a concluded execution keeps of one combiner.

    Built by :meth:`~repro.core.runtime.combiner.CombinerState.conclude`.
    The live state holds every partial it accepted, and only the dedup
    check reads them; that check is judged once, when the record is
    built, so the record keeps its verdict instead of the partials.

    Attributes:
        config: the combiner's overcollection parameters.
        n_groups: vertical groups.
        group_tallies: one partition tally per vertical group (the
            resiliency check, :meth:`tally_summary`).
        accepted_generations: the generation whose partial holds each
            cell (the split-brain check).
        dedup_fault: ``(detail, data)`` when recording every partial
            twice changed the result, else ``None``.
        state: the live state, partials included, kept only when
            ``dedup_fault`` is set, so the breach stays explainable.
    """

    config: OvercollectionConfig
    n_groups: int
    group_tallies: list[PartitionTally]
    accepted_generations: dict[tuple[int, int], int]
    dedup_fault: tuple[str, dict[str, Any]] | None = None
    state: "CombinerState | None" = None

    def tally_summary(self) -> dict[str, Any]:
        """Worst-group tally summary (the binding constraint)."""
        return worst_group_summary(self.group_tallies)


@dataclass(frozen=True)
class ExecutionEvidence:
    """What one concluded execution leaves for the checks that judge it.

    :meth:`~repro.core.runtime.coordinator.ExecutionCoordinator.evidence`
    builds it when the execution is sealed, on every path.  It holds one
    :class:`CombinerRecord` per combiner, the events and the few facts
    the checks read of the plan, never the plan, the runtimes, the
    context, the builders' rows, the transport or an unflagged
    combiner's partial states, so a multi-query engine keeps it and lets
    the execution and its plan go.

    Attributes:
        kind: ``"aggregate"`` or ``"kmeans"``.
        start_time: virtual time the execution started (the base of its
            report fingerprint).
        combiners: one :class:`CombinerRecord` per combiner (tallies,
            config, ``n_groups``, accepted generations and the dedup
            verdict, judged when the evidence was built), keyed
            ``combiner``/``combiner-backup``.
        processors: every data-processor operator (builders, computers,
            both combiners), by op id, mapped to its device — the
            liability tally's input
            (:func:`~repro.core.liability.processor_assignment`).
        querier: the querier operator's device (``None`` when the plan
            has none).  With ``processors`` it is the device of every
            non-contributor operator.
        exposure: what the exposure bounds are measured from
            (:class:`~repro.core.privacy.ExposureFacts`).
        events: the execution's event list (the report's own), which
            the takeover and split-brain checks read by kind.
        network: the network the execution ran on (a shared swarm's
            query-scoped endpoint), for end-of-run liveness reads.
    """

    kind: str
    start_time: float
    combiners: dict[str, CombinerRecord]
    processors: dict[str, str | None]
    querier: str | None
    exposure: "ExposureFacts"
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
