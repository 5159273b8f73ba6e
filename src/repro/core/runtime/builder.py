"""Snapshot Builder runtime: contribution intake, freeze, ship.

Every builder operator deduplicates retransmitted contributions by
their ids, caps its partition at ``C / n`` tuples, freezes it, and
ships column-group projections to the Computers.  Every rank collects
the same contributions into its own bucket;
:class:`repro.core.runtime.strategy.StrategyRuntime` decides when each
rank runs :meth:`BuilderRuntime.run` — rank 0 at the end of
collection, a replica on its takeover timer.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.qep import Operator, OperatorRole, rank_of
from repro.core.runtime.context import ExecutionContext
from repro.core.runtime.events import EventKind
from repro.devices.edgelet import Edgelet
from repro.network.messages import MessageKind

__all__ = ["BuilderRuntime", "ship_partition"]


def ship_partition(
    ctx: ExecutionContext,
    device: Edgelet,
    partition_index: int,
    rows: list[dict[str, Any]],
    consumers: Iterable[Operator],
    generation: int = 0,
) -> None:
    """Project the partition per consumer column group and send it.

    Contributors project their rows to ``ctx.collected_columns``, so a
    group that is the whole collected set ships the frozen rows as they
    are, in a new list; only a real vertical split copies each row into
    its group.  ``generation`` is the fencing token stamped on a
    reprovisioning re-ship; like every payload's, it rides only when
    nonzero.
    """
    collected = ctx.collected_columns
    for consumer in consumers:
        group = consumer.params.get("column_group") or collected
        if list(group) == collected:
            projected = list(rows)
        else:
            projected = [
                {column: row.get(column) for column in group} for row in rows
            ]
        target = ctx.device_of(consumer)
        payload = {
            "op_id": consumer.op_id,
            "partition_index": partition_index,
            "group_index": consumer.params.get("group_index", 0),
            "rows": projected,
        }
        if generation:
            payload["generation"] = generation
        ctx.ship(
            device,
            target,
            MessageKind.PARTITION,
            payload,
            size_hint=64 * len(projected),
        )


class BuilderRuntime:
    """Snapshot Builder intake for every rank; freeze and ship.

    Every builder operator — a primary or one of its replicas — owns one
    bucket, filled by the one contribution intake.  The rank-0 buckets
    double as the per-partition view (:attr:`rows_by_partition`).
    :meth:`run` is the one freeze-and-ship path every rank takes.
    """

    role = OperatorRole.SNAPSHOT_BUILDER

    def __init__(self, ctx: ExecutionContext):
        self.ctx = ctx
        self.buckets: dict[str, list[dict[str, Any]]] = {}
        # every rank, by (partition, rank): the end-of-collection order
        self.builders: list[Operator] = []
        self.builder_by_partition: dict[int, Operator] = {}
        self.rows_by_partition: dict[int, list[dict[str, Any]]] = {}

    def index(self) -> None:
        """One bucket per builder rank; the primaries by partition."""
        builders = self.ctx.plan.operators(OperatorRole.SNAPSHOT_BUILDER)
        for builder in builders:
            bucket = self.buckets[builder.op_id] = []
            if rank_of(builder) == 0:
                partition_index = builder.params["partition_index"]
                self.builder_by_partition[partition_index] = builder
                self.rows_by_partition[partition_index] = bucket
        self.builders = sorted(
            builders, key=lambda b: (b.params["partition_index"], rank_of(b))
        )

    # -- collection ----------------------------------------------------------

    def on_contribution(self, device: Edgelet, payload: dict[str, Any]) -> None:
        """Accept one (possibly duplicated) contributor transmission."""
        ctx = self.ctx
        if ctx.simulator.now > ctx.collect_end:
            return  # too late, snapshot frozen
        op_id = payload.get("op_id", "")
        if ctx.is_duplicate_contribution(op_id, payload):
            return
        rows = ctx.resolve_contribution(device, payload)
        if rows is None:
            ctx.count_dropped_payload("stale_stamp")
            return
        bucket = self.buckets.get(op_id)
        if bucket is None:
            return
        cap = ctx.config.partition_cardinality
        room = cap - len(bucket)
        if room <= 0:
            return
        accepted = rows[:room]
        bucket.extend(accepted)
        ctx.count_tuples(device.device_id, len(accepted))
        ctx.m_contributions.inc()
        ctx.m_tuples.inc(len(accepted))

    def run(
        self, builder: Operator, device: Edgelet, on_sent: Callable[[], None]
    ) -> None:
        """Freeze and ship one builder's partition.

        A dead device ships nothing; otherwise the partition leaves
        after the device's compute latency if the device is online
        then, and ``on_sent`` runs right after it left.
        """
        ctx = self.ctx
        if ctx.network.is_dead(device.device_id):
            ctx.emit(EventKind.BUILDER_DEAD, builder.op_id)
            return
        rows = self.freeze(builder)
        if rows is None:
            return
        latency = device.compute_latency(float(len(rows)))
        ctx.simulator.schedule(
            latency,
            self._make_partition_send(builder, device, rows, on_sent),
            "ship partition",
        )

    def freeze(self, builder: Operator) -> list[dict[str, Any]] | None:
        """Cap one builder's bucket and record its frozen size.

        Returns the frozen rows, or ``None`` when nothing was collected.
        """
        ctx = self.ctx
        rows = self.buckets[builder.op_id]
        cap = ctx.config.partition_cardinality
        if len(rows) > cap:
            rows = rows[:cap]
        if not rows:
            ctx.emit(EventKind.NO_ROWS, builder.op_id)
            return None
        ctx.emit(EventKind.SNAPSHOT_FROZEN, builder.op_id, rows=len(rows))
        return rows

    def ship(
        self, builder: Operator, device: Edgelet, rows: list[dict[str, Any]]
    ) -> None:
        """Send a frozen partition to every Computer reading the builder."""
        consumers = [
            consumer
            for consumer in self.ctx.plan.consumers_of(builder.op_id)
            if consumer.role == OperatorRole.COMPUTER
        ]
        ship_partition(
            self.ctx, device, builder.params["partition_index"], rows, consumers
        )

    def _make_partition_send(self, builder, device, rows, on_sent):
        ctx = self.ctx

        def fire() -> None:
            if not ctx.network.is_online(device.device_id):
                ctx.emit(EventKind.PARTITION_UNSHIPPED, builder.op_id)
                return
            self.ship(builder, device, rows)
            on_sent()
        return fire
