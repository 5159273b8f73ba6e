"""Execution outcome records shared by every role runtime."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import ReproError
from repro.query.groupby import GroupByQuery, GroupingSetsResult

if TYPE_CHECKING:
    from repro.core.runtime.combiner import CombinerState

__all__ = [
    "ExecutionError",
    "ExecutionEvidence",
    "ExecutionReport",
    "KMeansOutcome",
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
        trace: time-ordered human-readable event log (a rendered view;
            the telemetry spans are the structured source of truth).
        heartbeats_run: heartbeats executed (kmeans only).
        convergence_trace: per-heartbeat mean centroid shift across the
            live Computers (kmeans only) — the "follow the execution in
            real time" signal the demo GUI plots.
        telemetry: the :class:`repro.telemetry.Telemetry` this execution
            recorded into.
        phase_spans: this execution's phase spans, keyed by phase name
            (``execution``/``collection``/``computation``/
            ``combination``); consumed by
            :func:`repro.manager.trace.phase_timeline`.
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
        reprovisions: ``(time, op_id, old_device, new_device)`` per
            watchdog-triggered participant reprovisioning.
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
    trace: list[tuple[float, str]] = field(default_factory=list)
    heartbeats_run: int = 0
    convergence_trace: list[tuple[int, float]] = field(default_factory=list)
    telemetry: Any = None
    phase_spans: dict[str, Any] = field(default_factory=dict)
    degraded: bool = False
    coverage: dict[str, Any] = field(default_factory=dict)
    validity_bound: float | None = None
    transport_stats: dict[str, float] = field(default_factory=dict)
    reprovisions: list[tuple[float, str, str, str]] = field(default_factory=list)


@dataclass(frozen=True)
class ExecutionEvidence:
    """What one concluded execution leaves for the checks that judge it.

    :meth:`~repro.core.runtime.coordinator.ExecutionCoordinator.evidence`
    builds it when the execution is sealed, on every path.  It holds the
    combiner states and the logs, never the runtimes, the context, the
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
        takeover_log: ``(time, base op, rank)`` per replica takeover.
        fire_log: ``(time, cell, device, generation)`` per partial-send
            fire.
        arrival_log: ``(time, cell, combiner op, sender, generation,
            disposition)`` per combiner-side partial arrival.
        network: the network the execution ran on (a shared swarm's
            query-scoped endpoint), for end-of-run liveness reads.
    """

    kind: str
    query: GroupByQuery | None
    start_time: float
    combiners: dict[str, "CombinerState"]
    aggregate_indices_per_group: list[list[int]]
    takeover_log: list[tuple[float, str, int]]
    fire_log: list[tuple[float, tuple[int, int], str, int]]
    arrival_log: list[tuple[float, tuple[int, int], str, str, int, str]]
    network: Any
