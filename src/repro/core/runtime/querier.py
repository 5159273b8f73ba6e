"""Querier runtime: final-result delivery, dedup, report assembly.

The Querier is the round-trip endpoint: it accepts whichever combiner's
final result lands first (the active backup's duplicate is deduped),
stamps success/tally/completion-time into the :class:`ExecutionReport`,
and — for demo query (ii) — attaches the Group-By-on-clusters
statistics to the K-Means outcome when they arrive.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.qep import OperatorRole
from repro.core.runtime.context import ExecutionContext
from repro.core.runtime.events import EventKind
from repro.core.runtime.report import KMeansOutcome
from repro.devices.edgelet import Edgelet
from repro.query.groupby import GroupingSetsResult

__all__ = ["QuerierRuntime"]


class QuerierRuntime:
    """Receives and dedupes final results; fills the report."""

    role = OperatorRole.QUERIER

    def __init__(self, ctx: ExecutionContext):
        self.ctx = ctx
        self.final_delivered = False
        self.stats_delivered = False

    def on_final_result(self, device: Edgelet, payload: dict[str, Any]) -> None:
        """Accept a combiner's final result (first one wins)."""
        ctx = self.ctx
        if "stats_rows" in payload:
            self.on_cluster_stats_result(payload)
            return
        if self.final_delivered:
            return  # active-backup duplicate, querier dedupes
        self.final_delivered = True
        ctx.report.success = True
        ctx.report.delivered_by = payload.get("combiner")
        ctx.report.completion_time = ctx.simulator.now
        ctx.report.tally = payload.get("tally", {})
        ctx.report.received_partitions = ctx.report.tally.get("received", 0)
        if payload.get("degraded"):
            # explicitly-labelled partial result (graceful degradation)
            ctx.report.degraded = True
            ctx.report.coverage = payload.get("coverage", {})
            ctx.report.validity_bound = payload.get("validity_bound")
        if ctx.kind == "aggregate":
            per_set = tuple(
                tuple(dict(row) for row in rows) for rows in payload["rows"]
            )
            ctx.report.result = GroupingSetsResult(ctx.query, per_set)
        else:
            ctx.report.kmeans = KMeansOutcome(
                centroids=np.asarray(payload["centroids"], dtype=float),
                weights=np.asarray(payload["weights"], dtype=float),
                knowledges_merged=payload["knowledges_merged"],
            )
        ctx.audit(device, "querier", "deliver", 0)
        ctx.emit(EventKind.DELIVERED, "querier", by=ctx.report.delivered_by)

    def on_cluster_stats_result(self, payload: dict[str, Any]) -> None:
        """Attach the Group-By-on-clusters result to the K-Means outcome."""
        ctx = self.ctx
        if self.stats_delivered or ctx.report.kmeans is None:
            return
        self.stats_delivered = True
        per_set = tuple(
            tuple(dict(row) for row in rows) for rows in payload["stats_rows"]
        )
        stats = GroupingSetsResult(ctx.stats_query, per_set)
        import dataclasses

        ctx.report.kmeans = dataclasses.replace(
            ctx.report.kmeans, cluster_stats=stats
        )
        ctx.emit(EventKind.STATS_DELIVERED, "querier")
