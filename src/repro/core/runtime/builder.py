"""Snapshot Builder runtime: contribution intake, freeze, commit, ship.

Every builder operator deduplicates retransmitted contributions by
their ids, caps its partition at ``C / n`` tuples, commits to the
frozen snapshot with a Merkle root, and ships column-group projections
to the Computers.  Every rank collects the same contributions into its
own bucket; :class:`repro.core.runtime.strategy.StrategyRuntime`
decides when each rank runs :meth:`BuilderRuntime.run` — rank 0 at the
end of collection, a replica on its takeover timer.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable

from repro.core.qep import Operator, OperatorRole, rank_of
from repro.core.runtime.context import ExecutionContext
from repro.core.runtime.events import EventKind
from repro.crypto.merkle import MerkleTree
from repro.devices.edgelet import Edgelet
from repro.network.messages import MessageKind

__all__ = ["BuilderRuntime", "commit_snapshot", "ship_partition"]


def _leaf_format(keys: tuple[str, ...]) -> tuple[str, Callable[[Any], tuple]]:
    """``%``-template and value getter for rows with the column set ``keys``.

    ``template % getter(row)`` is ``repr(sorted(row.items()))``: the
    sorted keys are written into the template once, as their reprs with
    ``%`` escaped, and each value goes through ``%r``, which is ``repr``.
    """
    ordered = sorted(keys)
    template = "[%s]" % ", ".join(
        "(%s, %%r)" % repr(key).replace("%", "%%") for key in ordered
    )
    if len(ordered) == 1:
        # itemgetter of one key returns the bare value, which ``%``
        # would unpack if it were a tuple
        (key,) = ordered
        return template, lambda row: (row[key],)
    if not ordered:
        return template, lambda row: ()
    return template, itemgetter(*ordered)


def commit_snapshot(rows: list[dict[str, Any]]) -> str:
    """Merkle-commit a frozen partition (order-sensitive, per row).

    Leaf ``i`` is ``repr(sorted(rows[i].items())).encode("utf-8")``.  A
    partition's rows share one column set (contributors project to the
    collected columns), so each distinct set is formatted from one
    template, built on its first row.
    """
    formats: dict[tuple[str, ...], tuple[str, Callable[[Any], tuple]]] = {}
    leaves = []
    for row in rows:
        keys = tuple(row)
        entry = formats.get(keys)
        if entry is None:
            entry = formats[keys] = _leaf_format(keys)
        template, values = entry
        leaves.append((template % values(row)).encode("utf-8"))
    return MerkleTree(leaves).root_hex()


def ship_partition(
    ctx: ExecutionContext,
    device: Edgelet,
    partition_index: int,
    rows: list[dict[str, Any]],
    commitment: str,
    consumers: Iterable[Operator],
    generation: int = 0,
) -> None:
    """Project the partition per consumer column group and send it.

    ``generation`` is the fencing token stamped on a reprovisioning
    re-ship; like every payload's, it rides only when nonzero.
    """
    for consumer in consumers:
        group = consumer.params.get("column_group") or ctx.collected_columns
        projected = [
            {column: row.get(column) for column in group} for row in rows
        ]
        target = ctx.device_of(consumer)
        payload = {
            "op_id": consumer.op_id,
            "partition_index": partition_index,
            "group_index": consumer.params.get("group_index", 0),
            "commitment": commitment,
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
    """Snapshot Builder intake for every rank; freeze, commit and ship.

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
        """Freeze, commit and ship one builder's partition.

        A dead device ships nothing; otherwise the partition leaves
        after the device's compute latency if the device is online
        then, and ``on_sent`` runs right after it left.
        """
        ctx = self.ctx
        if ctx.network.is_dead(device.device_id):
            ctx.emit(EventKind.BUILDER_DEAD, builder.op_id)
            return
        frozen = self.freeze(builder, device)
        if frozen is None:
            return
        latency = device.compute_latency(float(len(frozen[0])))
        ctx.simulator.schedule(
            latency,
            self._make_partition_send(builder, device, *frozen, on_sent),
            "ship partition",
        )

    def freeze(
        self, builder: Operator, device: Edgelet
    ) -> tuple[list[dict[str, Any]], str] | None:
        """Cap, Merkle-commit and audit one builder's bucket.

        Returns ``(rows, commitment)``, or ``None`` when nothing was
        collected.
        """
        ctx = self.ctx
        rows = self.buckets[builder.op_id]
        cap = ctx.config.partition_cardinality
        if len(rows) > cap:
            rows = rows[:cap]
        if not rows:
            ctx.emit(EventKind.NO_ROWS, builder.op_id)
            return None
        commitment = commit_snapshot(rows)
        ctx.emit(
            EventKind.SNAPSHOT_FROZEN, builder.op_id,
            rows=len(rows), commitment=commitment,
        )
        ctx.mark_collection_end()
        ctx.m_snapshots.inc()
        ctx.audit(device, builder.op_id, "snapshot", len(rows))
        return rows, commitment

    def ship(
        self,
        builder: Operator,
        device: Edgelet,
        rows: list[dict[str, Any]],
        commitment: str,
    ) -> None:
        """Send a frozen partition to every Computer reading the builder."""
        consumers = [
            consumer
            for consumer in self.ctx.plan.consumers_of(builder.op_id)
            if consumer.role == OperatorRole.COMPUTER
        ]
        ship_partition(
            self.ctx, device, builder.params["partition_index"], rows,
            commitment, consumers,
        )

    def _make_partition_send(self, builder, device, rows, commitment, on_sent):
        ctx = self.ctx

        def fire() -> None:
            if not ctx.network.is_online(device.device_id):
                ctx.emit(EventKind.PARTITION_UNSHIPPED, builder.op_id)
                return
            self.ship(builder, device, rows, commitment)
            on_sent()
        return fire
