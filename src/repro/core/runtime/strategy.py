"""The one resiliency runtime: every plan runs by its rank structure.

A plan is ``n + m`` partitions times ``replicas + 1`` ranks per Snapshot
Builder and Computer (Overcollection is ``replicas = 0``, Backup is
``m = 0``).  The runtime branches on an operator's rank, never on a
strategy name:

* rank 0 runs the primary path as soon as its input is complete — a
  builder at the end of collection (``is_dead`` check, freeze, ship
  after ``compute_latency`` with an ``is_online`` check at send), a
  computer when its partition arrives (fold, send after
  ``compute_latency`` with the same check);
* a rank-``k`` replica arms a timer for ``k * TAKEOVER_TIMEOUT`` — a
  builder's from the end of collection, a computer's from its
  partition's arrival — and stands down if it heard a *shipped* marker
  for its base operator; otherwise it takes over and runs that same
  path;
* every operator that ships announces *shipped* to its sibling ranks
  (one CONTROL message each; an ``r = 0`` plan has no siblings).

Duplicates are possible when a marker is lost; consumers deduplicate
(a Computer runs one partition per operator, the Combiner's partial
recording is idempotent per cell).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.advisor import NO_GOSSIP_HISTORY
from repro.core.qep import Operator, OperatorRole, rank_of
from repro.core.resiliency import TAKEOVER_TIMEOUT
from repro.core.runtime.builder import BuilderRuntime
from repro.core.runtime.computer import ComputerRuntime
from repro.core.runtime.context import ExecutionContext
from repro.core.runtime.report import ExecutionError
from repro.devices.edgelet import Edgelet
from repro.network.messages import MessageKind

__all__ = ["StrategyRuntime", "base_op_id"]

#: ``run(operator, device, on_sent)``: one rank's primary path
RankPath = Callable[[Operator, Edgelet, Callable[[], None]], None]


def base_op_id(op_id: str) -> str:
    """Strip the ``.bN`` replica suffix: ``builder[2].b1`` -> ``builder[2]``."""
    return op_id.split(".b")[0]


class StrategyRuntime:
    """Who runs, and when: rank 0 at once, replicas on takeover timers.

    Built by the coordinator from the plan, over the role runtimes that
    own the operator work (the builder's freeze-and-ship, the
    computer's fold-and-send).
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        builder: BuilderRuntime,
        computer: ComputerRuntime,
    ):
        if ctx.kind != "aggregate" and ctx.plan.replicas:
            raise ExecutionError(
                f"a k-means plan cannot carry replicas: {NO_GOSSIP_HISTORY}"
            )
        self.ctx = ctx
        self.builder = builder
        self.computer = computer
        # (time, base op, rank) per replica takeover: the promotion record
        self.takeover_log: list[tuple[float, str, int]] = []
        # every rank of every builder and computer, by base op id
        self.ranks_by_base: dict[str, list[Operator]] = {}
        for operator in ctx.plan.operators():
            if operator.role in (OperatorRole.SNAPSHOT_BUILDER, OperatorRole.COMPUTER):
                base = base_op_id(operator.op_id)
                self.ranks_by_base.setdefault(base, []).append(operator)
        for ops in self.ranks_by_base.values():
            ops.sort(key=rank_of)
        # base op -> devices that heard a "shipped" marker for it
        # (device-local state, kept run-globally per base+device pair)
        self.shipped_heard: dict[str, set[str]] = {}

    # -- the rank rule -------------------------------------------------------

    def run_rank(
        self, operator: Operator, run: RankPath, device: Edgelet | None = None
    ) -> None:
        """Run ``operator``'s path now at rank 0 (on ``device``, default
        its assigned one), or arm its takeover timer at rank ``k``."""
        rank = rank_of(operator)
        if rank == 0:
            if device is None:
                device = self.ctx.device_of(operator)
            run(operator, device, lambda: self._announce_shipped(operator, device))
            return
        self.ctx.simulator.schedule(
            rank * TAKEOVER_TIMEOUT,
            self._make_takeover(operator, run),
            f"{operator.op_id} (rank {rank}) takeover",
        )

    def _make_takeover(self, operator: Operator, run: RankPath):
        ctx = self.ctx
        base = base_op_id(operator.op_id)
        # fence against Simulator.reset(): a timer armed on the previous
        # timeline must never execute on the new one, even if the
        # closure leaks out of the cancelled event queue
        epoch = ctx.simulator.epoch

        def fire() -> None:
            if ctx.simulator.epoch != epoch:
                return
            device = ctx.device_of(operator)
            if device.device_id in self.shipped_heard.get(base, ()):
                return  # a lower rank already shipped; stand down
            self.takeover_log.append((ctx.simulator.now, base, rank_of(operator)))
            ctx.trace(f"{operator.op_id} takes over {base}")
            ctx.telemetry.metrics.counter(
                "exec.backup_takeovers", query=ctx.plan.query_id
            ).inc()
            run(operator, device, lambda: self._announce_shipped(operator, device))
        return fire

    def _announce_shipped(self, operator: Operator, device: Edgelet) -> None:
        """Tell the sibling ranks their takeover is unnecessary."""
        ctx = self.ctx
        base = base_op_id(operator.op_id)
        for sibling in self.ranks_by_base[base]:
            if sibling is operator:
                continue
            ctx.ship(
                device, ctx.device_of(sibling), MessageKind.CONTROL,
                {"shipped": base, "rank": rank_of(operator),
                 "op_id": sibling.op_id},
                size_hint=64,
            )

    # -- events from the coordinator -----------------------------------------

    def end_collection(self) -> None:
        """Every builder rank: the primary path now, or its timer."""
        for builder in self.builder.builders:
            self.run_rank(builder, self.builder.run)

    def on_partition(self, device: Edgelet, payload: dict[str, Any]) -> None:
        """A partition landed: its computer runs it by the rank rule."""
        computer = self.computer.accept(device, payload)
        if computer is None:
            return
        rows = payload["rows"]
        if self.ctx.kind != "aggregate":
            self.computer.init_kmeans(device, computer, rows)
            return
        # a replica's rank is its fencing generation: a legitimate
        # duplicate fire (lost marker) is then distinguishable from a
        # same-generation split-brain; a reprovisioning's token rides
        # the payload
        generation = payload.get("generation", rank_of(computer))

        def fold(operator: Operator, host: Edgelet, on_sent) -> None:
            self.computer.run_aggregate(host, operator, rows, generation, on_sent)

        self.run_rank(computer, fold, device)

    def on_control(self, device: Edgelet, payload: Any) -> None:
        """A CONTROL message landed: remember a sibling's shipped marker."""
        if isinstance(payload, dict):
            base = payload.get("shipped")
            if base is not None:
                self.shipped_heard.setdefault(base, set()).add(device.device_id)
