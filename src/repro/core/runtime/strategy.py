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

Both strategies run the same operator work: the Snapshot Builder
runtime owns the one contribution intake (one bucket per builder rank)
and the freeze-and-ship, the Computer runtime the one fold-and-send.
The coordinator routes PARTITION/CONTROL messages and the
end-of-collection timer through whichever strategy it was given; the
strategy decides only which rank executes and when.
"""

from __future__ import annotations

from typing import Any

from repro.core.qep import Operator, OperatorRole, rank_of
from repro.core.resiliency import TAKEOVER_TIMEOUT
from repro.core.runtime.builder import BuilderRuntime
from repro.core.runtime.computer import ComputerRuntime
from repro.core.runtime.context import ExecutionContext
from repro.core.runtime.report import ExecutionError
from repro.devices.edgelet import Edgelet
from repro.network.messages import MessageKind

__all__ = [
    "StrategyRuntime",
    "OvercollectionStrategy",
    "BackupStrategy",
    "base_op_id",
]


def base_op_id(op_id: str) -> str:
    """Strip the ``.bN`` replica suffix: ``builder[2].b1`` -> ``builder[2]``."""
    return op_id.split(".b")[0]


class StrategyRuntime:
    """Resiliency policy: who fires, and when.

    A strategy is bound once per execution via :meth:`bind` and then
    receives every resiliency-relevant event from the coordinator.  It
    never touches coordinator internals — everything it needs flows
    through the :class:`ExecutionContext` and the role runtimes it was
    bound to, which own the one contribution intake, freeze, and
    fold-and-send path.
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
        # (time, base op, rank) per replica takeover: the promotion record
        self.takeover_log: list[tuple[float, str, int]] = []

    def end_collection(self) -> None:
        raise NotImplementedError

    def on_partition(self, device: Edgelet, payload: dict[str, Any]) -> None:
        raise NotImplementedError

    def on_control(self, device: Edgelet, payload: Any) -> None:
        """A CONTROL message landed; default strategies ignore them."""


class OvercollectionStrategy(StrategyRuntime):
    """n + m overcollected partitions; primaries only, no timers."""

    name = "overcollection"

    def end_collection(self) -> None:
        self.builder.end_collection()

    def on_partition(self, device: Edgelet, payload: dict[str, Any]) -> None:
        self.computer.on_partition(device, payload)


class BackupStrategy(StrategyRuntime):
    """Replica chains with staggered takeover timers and shipped markers.

    Only aggregate queries are supported (the demo's non-distributive
    path); K-Means execution stays on the heartbeat-based
    Overcollection strategy.  What differs from Overcollection is only
    *when* and *by whom* the shared operator work runs: builders fire at
    ``rank * takeover_timeout`` past the end of collection and ship with
    no compute latency, computers check liveness before they fold, and
    every rank that ships announces it to its siblings.
    """

    name = "backup"

    def __init__(self, takeover_timeout: float = TAKEOVER_TIMEOUT):
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
        # every rank of every builder and computer, by base op id
        self.ranks_by_base: dict[str, list[Operator]] = {}
        for operator in ctx.plan.operators():
            if operator.role in (OperatorRole.SNAPSHOT_BUILDER, OperatorRole.COMPUTER):
                base = base_op_id(operator.op_id)
                self.ranks_by_base.setdefault(base, []).append(operator)
        for ops in self.ranks_by_base.values():
            ops.sort(key=rank_of)
        # the partition each computer rank received (first one wins)
        self.partitions: dict[str, list[dict[str, Any]]] = {}
        # bases for which this run already heard a "shipped" marker, and
        # at which rank (device-local state is approximated run-globally
        # per base+listening-device pair)
        self.shipped_heard: dict[str, set[str]] = {}
        self.m_takeovers = ctx.telemetry.metrics.counter(
            "exec.backup_takeovers", query=ctx.plan.query_id
        )

    def _take_over(self, base: str, operator: Operator) -> None:
        self.takeover_log.append((self.ctx.simulator.now, base, rank_of(operator)))
        self.ctx.trace(f"{operator.op_id} takes over {base}")
        self.m_takeovers.inc()

    # -- collection ----------------------------------------------------------

    def end_collection(self) -> None:
        """Arm the whole builder chain: primary now, replicas staggered."""
        for base, ops in sorted(self.ranks_by_base.items()):
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
            if rank_of(operator) > 0:
                if device.device_id in self.shipped_heard.get(base, set()):
                    return  # a lower rank already shipped; stand down
                self._take_over(base, operator)
            if not ctx.network.is_online(device.device_id):
                ctx.trace(f"{operator.op_id} offline, cannot ship {base}")
                return
            frozen = self.builder.freeze(operator, device)
            if frozen is None:
                return
            self.builder.ship(operator, device, *frozen)
            self._announce_shipped(base, operator, device)
        return fire

    def _announce_shipped(self, base: str, operator: Operator, device) -> None:
        """Tell the sibling replicas their takeover is unnecessary."""
        ctx = self.ctx
        for sibling in self.ranks_by_base.get(base, []):
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
        for candidate in self.ranks_by_base.get(base, []):
            if candidate.op_id == op_id:
                operator = candidate
                break
        if operator is None or op_id in self.partitions:
            return  # first partition wins; duplicates dropped
        rows = self.partitions[op_id] = payload["rows"]
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
            self._take_over(base, operator)
            self._fire_computer(base, operator, device)
        return fire

    def _fire_computer(self, base: str, operator: Operator, device) -> None:
        ctx = self.ctx
        if not ctx.network.is_online(device.device_id):
            ctx.mark_computation_start()
            ctx.trace(f"{operator.op_id} offline, partial lost")
            return
        # a replica's rank is its intrinsic promotion token: rank-N
        # takeover fires at generation N, so a legitimate duplicate fire
        # (lost "shipped" marker) is distinguishable from true
        # same-generation split-brain in the fencing evidence
        self.computer.run_aggregate(
            device, operator, self.partitions[operator.op_id],
            generation=rank_of(operator),
            on_sent=lambda: self._announce_shipped(base, operator, device),
        )

    # -- control -------------------------------------------------------------

    def on_control(self, device: Edgelet, payload: Any) -> None:
        if isinstance(payload, dict):
            base = payload.get("shipped")
            if base is not None:
                self.shipped_heard.setdefault(base, set()).add(device.device_id)
