"""Pluggable resiliency strategies for the execution coordinator.

The two strategies of the paper's taxonomy are policy objects behind one
interface instead of executor subclasses:

* :class:`OvercollectionStrategy` — collect ``n + m`` partitions and
  tolerate losing up to ``m`` of them; the primary builders/computers
  run on schedule and nothing else moves.  Requires distributive
  operators.
* :class:`BackupStrategy` — every Snapshot Builder and Computer carries
  an ordered chain of passive replicas holding the same inputs.  The
  primary (rank 0) executes on schedule and broadcasts a small
  *shipped* control marker; each replica arms a takeover timer at
  ``rank * takeover_timeout`` past the primary's firing point and
  executes from its own input copy unless it heard a marker from a
  lower rank.  Duplicates are possible when the marker itself is lost;
  consumers deduplicate (Computers keep the first partition, the
  Combiner's partial recording is idempotent per cell).  This trades
  latency for applicability: it does not require distributive
  operators.

The coordinator routes CONTRIBUTION/PARTITION/CONTROL messages and the
end-of-collection timer through whichever strategy it was given; the
strategy decides who executes and when, then hands the actual operator
work back to the role runtimes (or runs the replica-side equivalents).
"""

from __future__ import annotations

from typing import Any

from repro.core.backup import BackupChain, BackupConfig
from repro.core.qep import Operator, OperatorRole
from repro.core.runtime.builder import BuilderRuntime, commit_snapshot, ship_partition
from repro.core.runtime.computer import ComputerRuntime
from repro.core.runtime.context import ExecutionContext
from repro.core.runtime.report import ExecutionError
from repro.devices.edgelet import Edgelet
from repro.network.messages import MessageKind
from repro.query.fold import fold_partition
from repro.query.groupby import GroupByQuery

__all__ = [
    "StrategyRuntime",
    "OvercollectionStrategy",
    "BackupStrategy",
    "base_op_id",
    "rank_of",
]

COMBINER_NAMES = ("combiner", "combiner-backup")


def base_op_id(op_id: str) -> str:
    """Strip the ``.bN`` replica suffix: ``builder[2].b1`` -> ``builder[2]``."""
    return op_id.split(".b")[0]


def rank_of(operator: Operator) -> int:
    return operator.params.get("backup_rank", 0)


class StrategyRuntime:
    """Resiliency policy: who collects, who fires, and when.

    A strategy is bound once per execution via :meth:`bind` and then
    receives every resiliency-relevant event from the coordinator.  It
    never touches coordinator internals — everything it needs flows
    through the :class:`ExecutionContext` and the role runtimes it was
    bound to.
    """

    name = "strategy"

    def bind(
        self,
        ctx: ExecutionContext,
        builder: BuilderRuntime,
        computer: ComputerRuntime,
    ) -> None:
        """Attach the execution's context and role runtimes; validate."""
        self.ctx = ctx
        self.builder = builder
        self.computer = computer
        self.takeover_log: list[tuple[float, str, int]] = []

    def on_contribution(self, device: Edgelet, payload: dict[str, Any]) -> None:
        raise NotImplementedError

    def end_collection(self) -> None:
        raise NotImplementedError

    def on_partition(self, device: Edgelet, payload: dict[str, Any]) -> None:
        raise NotImplementedError

    def on_control(self, device: Edgelet, payload: Any) -> None:
        """A CONTROL message landed; default strategies ignore them."""


class OvercollectionStrategy(StrategyRuntime):
    """n + m overcollected partitions; primaries only, no timers."""

    name = "overcollection"

    def on_contribution(self, device: Edgelet, payload: dict[str, Any]) -> None:
        self.builder.on_contribution(device, payload)

    def end_collection(self) -> None:
        self.builder.end_collection()

    def on_partition(self, device: Edgelet, payload: dict[str, Any]) -> None:
        self.computer.on_partition(device, payload)


class BackupStrategy(StrategyRuntime):
    """Replica chains with staggered takeover timers and shipped markers.

    Only aggregate queries are supported (the demo's non-distributive
    path); K-Means execution stays on the heartbeat-based
    Overcollection strategy.
    """

    name = "backup"

    def __init__(self, takeover_timeout: float = 5.0):
        self.takeover_timeout = takeover_timeout

    def bind(
        self,
        ctx: ExecutionContext,
        builder: BuilderRuntime,
        computer: ComputerRuntime,
    ) -> None:
        super().bind(ctx, builder, computer)
        if ctx.plan.metadata.get("strategy") != "backup":
            raise ExecutionError("BackupStrategy requires a backup-strategy plan")
        if ctx.kind != "aggregate":
            raise ExecutionError(
                "BackupStrategy supports aggregate queries (use the "
                "heartbeat-based OvercollectionStrategy for iterative ML)"
            )
        self._index_replicas()

    # -- replica indexing ----------------------------------------------------

    def _index_replicas(self) -> None:
        ctx = self.ctx
        replicas = ctx.plan.metadata.get("backup_replicas", 0)
        config = BackupConfig(
            replicas=replicas, takeover_timeout=self.takeover_timeout
        )
        self.chains: dict[str, BackupChain] = {}
        self.ops_by_base: dict[str, list[Operator]] = {}
        for operator in ctx.plan.operators():
            if operator.role not in (
                OperatorRole.SNAPSHOT_BUILDER, OperatorRole.COMPUTER
            ):
                continue
            base = base_op_id(operator.op_id)
            self.ops_by_base.setdefault(base, []).append(operator)
            chain = self.chains.get(base)
            if chain is None:
                chain = BackupChain(base, config)
                self.chains[base] = chain
            chain.register(rank_of(operator), operator.assigned_to or "")
        for ops in self.ops_by_base.values():
            ops.sort(key=rank_of)
        # per-op input storage (each replica holds its own copy)
        self.rows_by_op: dict[str, list[dict[str, Any]]] = {
            op.op_id: []
            for ops in self.ops_by_base.values()
            for op in ops
        }
        # bases for which this run already heard a "shipped" marker, and
        # at which rank (device-local state is approximated run-globally
        # per base+listening-device pair)
        self.shipped_heard: dict[str, set[str]] = {}
        self.m_takeovers = ctx.telemetry.metrics.counter(
            "exec.backup_takeovers", query=ctx.plan.query_id
        )

    # -- collection ----------------------------------------------------------

    def on_contribution(self, device: Edgelet, payload: dict[str, Any]) -> None:
        ctx = self.ctx
        if ctx.simulator.now > ctx.collect_end:
            return
        op_id = payload.get("op_id", "")
        if ctx.is_duplicate_contribution(op_id, payload):
            return
        bucket = self.rows_by_op.get(op_id)
        if bucket is None:
            return
        cap = ctx.config.partition_cardinality
        room = cap - len(bucket)
        if room <= 0:
            return
        rows = ctx.resolve_contribution(device, payload)
        if rows is None:
            ctx.count_dropped_payload("stale_stamp")
            return
        accepted = rows[:room]
        bucket.extend(accepted)
        ctx.count_tuples(device.device_id, len(accepted))

    def end_collection(self) -> None:
        """Arm the whole builder chain: primary now, replicas staggered."""
        for base, ops in sorted(self.ops_by_base.items()):
            if ops[0].role != OperatorRole.SNAPSHOT_BUILDER:
                continue
            for operator in ops:
                rank = rank_of(operator)
                delay = rank * self.takeover_timeout
                self.ctx.simulator.schedule(
                    delay,
                    self._make_builder_fire(base, operator),
                    f"{operator.op_id} (rank {rank}) builder fire",
                )

    def _make_builder_fire(self, base: str, operator: Operator):
        ctx = self.ctx
        # fence against Simulator.reset(): a timer armed on the previous
        # timeline must never execute on the new one, even if the fire
        # closure leaks out of the cancelled event queue
        epoch = ctx.simulator.epoch

        def fire() -> None:
            if ctx.simulator.epoch != epoch:
                return
            device = ctx.device_of(operator)
            rank = rank_of(operator)
            if rank > 0:
                if device.device_id in self.shipped_heard.get(base, set()):
                    return  # a lower rank already shipped; stand down
                self.takeover_log.append((ctx.simulator.now, base, rank))
                ctx.trace(f"{operator.op_id} takes over {base}")
                self.m_takeovers.inc()
            if not ctx.network.is_online(device.device_id):
                ctx.trace(f"{operator.op_id} offline, cannot ship {base}")
                return
            rows = self.rows_by_op.get(operator.op_id, [])
            cap = ctx.config.partition_cardinality
            rows = rows[:cap]
            if not rows:
                ctx.trace(f"{operator.op_id} collected no rows")
                return
            commitment = commit_snapshot(rows)
            ctx.trace(
                f"{operator.op_id} snapshot frozen: {len(rows)} rows, "
                f"merkle={commitment[:12]}…"
            )
            ctx.mark_collection_end()
            ctx.m_snapshots.inc()
            self._ship_partition(operator, device, rows, commitment)
            self._announce_shipped(base, operator, device)
        return fire

    def _ship_partition(self, operator, device, rows, commitment) -> None:
        ctx = self.ctx
        partition_index = operator.params["partition_index"]
        consumers = [
            consumer
            for consumer in ctx.plan.consumers_of(operator.op_id)
            if consumer.role == OperatorRole.COMPUTER
        ]
        ship_partition(ctx, device, partition_index, rows, commitment, consumers)

    def _announce_shipped(self, base: str, operator: Operator, device) -> None:
        """Tell the sibling replicas their takeover is unnecessary."""
        ctx = self.ctx
        for sibling in self.ops_by_base.get(base, []):
            if sibling.op_id == operator.op_id:
                continue
            target = ctx.device_of(sibling)
            ctx.ship(
                device, target, MessageKind.CONTROL,
                {"shipped": base, "rank": rank_of(operator),
                 "op_id": sibling.op_id},
                size_hint=64,
            )

    # -- computation ---------------------------------------------------------

    def on_partition(self, device: Edgelet, payload: dict[str, Any]) -> None:
        ctx = self.ctx
        op_id = payload.get("op_id", "")
        base = base_op_id(op_id)
        operator = None
        for candidate in self.ops_by_base.get(base, []):
            if candidate.op_id == op_id:
                operator = candidate
                break
        if operator is None:
            return
        bucket = self.rows_by_op.get(op_id)
        if bucket is None or bucket:
            return  # first partition wins; duplicates dropped
        rows = payload["rows"]
        bucket.extend(rows)
        ctx.count_tuples(device.device_id, len(rows))
        rank = rank_of(operator)
        if rank == 0:
            self._fire_computer(base, operator, device)
        else:
            ctx.simulator.schedule(
                rank * self.takeover_timeout,
                self._make_computer_takeover(base, operator),
                f"{op_id} (rank {rank}) computer takeover",
            )

    def _make_computer_takeover(self, base: str, operator: Operator):
        ctx = self.ctx
        epoch = ctx.simulator.epoch

        def fire() -> None:
            if ctx.simulator.epoch != epoch:
                return
            device = ctx.device_of(operator)
            if device.device_id in self.shipped_heard.get(base, set()):
                return
            self.takeover_log.append(
                (ctx.simulator.now, base, rank_of(operator))
            )
            ctx.trace(f"{operator.op_id} takes over {base}")
            self.m_takeovers.inc()
            self._fire_computer(base, operator, device)
        return fire

    def _fire_computer(self, base: str, operator: Operator, device) -> None:
        ctx = self.ctx
        if not ctx.network.is_online(device.device_id):
            ctx.mark_computation_start()
            ctx.trace(f"{operator.op_id} offline, partial lost")
            return
        rows = self.rows_by_op.get(operator.op_id, [])
        indices = operator.params.get("aggregate_indices") or list(
            range(len(ctx.query.aggregates))
        )
        sub_query = GroupByQuery(
            grouping_sets=ctx.query.grouping_sets,
            aggregates=tuple(ctx.query.aggregates[i] for i in indices),
        )
        with ctx.prof_aggregate:
            partial = fold_partition(sub_query, rows)
        # a replica's rank is its intrinsic promotion token: rank-N
        # takeover fires at generation N, so a legitimate duplicate fire
        # (lost "shipped" marker) is distinguishable from true
        # same-generation split-brain in the fencing evidence
        generation = rank_of(operator)
        payload = {
            "__aggregate__": True,
            "partition_index": operator.params["partition_index"],
            "group_index": operator.params.get("group_index", 0),
            "partial": partial.to_dict(),
        }
        if ctx.fencing:
            payload["generation"] = generation
        latency = device.compute_latency(float(max(len(rows), 1)))

        def send() -> None:
            ctx.mark_computation_start()
            if not ctx.network.is_online(device.device_id):
                ctx.trace(f"{operator.op_id} offline, partial lost")
                return
            ctx.trace(f"{operator.op_id} partial result computed and sent")
            cell = (payload["partition_index"], payload.get("group_index", 0))
            ctx.fire_log.append(
                (ctx.simulator.now, cell, device.device_id, generation)
            )
            for name in COMBINER_NAMES:
                combiner_op = ctx.plan.operator(name)
                target = ctx.device_of(combiner_op)
                ctx.ship(
                    device, target, MessageKind.PARTIAL_RESULT,
                    dict(payload, op_id=name), size_hint=512,
                )
            self._announce_shipped(base, operator, device)

        ctx.simulator.schedule(latency, send, f"{operator.op_id} partial")

    # -- control -------------------------------------------------------------

    def on_control(self, device: Edgelet, payload: Any) -> None:
        if isinstance(payload, dict):
            base = payload.get("shipped")
            if base is not None:
                self.shipped_heard.setdefault(base, set()).add(device.device_id)
