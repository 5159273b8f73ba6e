"""Query-level recovery: phase watchdogs and participant reprovisioning.

The reliability transport (:mod:`repro.network.reliable`) hardens
individual message deliveries; this module hardens the *query*.  A
:class:`RecoveryRuntime` arms watchdog timers over the computation
phase (each Fig. 2 phase already has a boundary on the virtual clock —
``collect_end`` and ``deadline_at``; the watchdog adds an intermediate
computation-phase deadline).  When a check finds a (partition, group)
cell whose partial never reached any live combiner and whose assigned
Computer is unreachable, it *reprovisions*: a standby device is
re-recruited from the assignment pool, the operator is reassigned, and
the Snapshot Builder re-ships the retained partition to it.

Graceful degradation — the combiner emitting a partial, coverage- and
bound-annotated ``FINAL_RESULT`` when quorum stays unreachable — rides
with this layer (a transport arms both) but is implemented where the
finalize logic lives (:mod:`repro.core.runtime.combiner`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.runtime.builder import ship_partition
from repro.core.runtime.context import ExecutionContext
from repro.core.runtime.detector import PhiAccrualDetector
from repro.core.runtime.events import EventKind, of_kind

if TYPE_CHECKING:
    from repro.core.runtime.builder import BuilderRuntime
    from repro.core.runtime.combiner import CombinerRuntime
    from repro.core.runtime.computer import ComputerRuntime

__all__ = ["RecoveryRuntime"]


#: virtual seconds between computation-phase watchdog checks
WATCHDOG_INTERVAL = 5.0
#: delay after the collection window closes before the first check
#: (partitions need time to ship)
COLLECTION_GRACE = 1.0
#: total reprovisionings allowed per execution
MAX_REPROVISIONS = 8


class RecoveryRuntime:
    """Arms the phase watchdogs and performs reprovisioning.

    Standby candidates are consumed in the (deterministic) order the
    assignment pool provides them, skipping any that are unreachable at
    reprovision time.  Reprovisioning is an aggregate-path mechanism:
    K-Means Computers carry iterative local state that a standby cannot
    reconstruct mid-cadence, so kmeans runs only get the watchdog
    telemetry, not reassignment.

    ``phase_deadline`` is the computation-phase deadline as an offset
    (virtual seconds) from the execution start; ``None`` defaults to 85%
    of the query deadline.  Watchdog checks stop there — past it,
    recovery could no longer land a partial before the combiner fires
    anyway.  ``detector`` feeds every transport delivery observation
    into a φ-accrual detector whose suspicion the checks also act on.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        builder: "BuilderRuntime",
        computer: "ComputerRuntime",
        combiner: "CombinerRuntime",
        standby_ids: list[str],
        phase_deadline: float | None = None,
        detector: bool = False,
    ):
        self.ctx = ctx
        self.phase_deadline = phase_deadline
        self.builder = builder
        self.computer = computer
        self.combiner = combiner
        # the coordinator attaches every standby at start, so a
        # re-recruited one already hears this query's traffic
        self.standbys = [d for d in standby_ids if d in ctx.devices]
        # cells whose partition has no retained rows: every check runs
        # after collection ends, so no later pass can recover them
        self.unrecoverable: set[tuple[int, int]] = set()
        self.checks_run = 0
        metrics = ctx.telemetry.metrics
        query_id = ctx.plan.query_id
        self._m_checks = metrics.counter("exec.watchdog_checks", query=query_id)
        self._m_fired = metrics.counter(
            "exec.watchdog_fired", query=query_id, phase="computation"
        )
        self._m_reprovisions = metrics.counter(
            "exec.reprovisions", query=query_id
        )
        self._m_suspicions = metrics.counter(
            "exec.detector_suspicions", query=query_id
        )
        self.detector: PhiAccrualDetector | None = None
        if detector:
            self.detector = PhiAccrualDetector()
            # the observer holds the detector and the clock, not this
            # runtime: the transport it joins must not keep a concluded
            # execution reachable
            observe, clock = self.detector.on_link_event, ctx.simulator
            ctx.transport.add_link_observer(
                lambda sender, recipient, outcome, rtt: observe(
                    sender, recipient, outcome, rtt, clock.now
                )
            )

    # -- scheduling ----------------------------------------------------------

    def computation_deadline(self) -> float:
        """Absolute virtual time the computation phase must finish by."""
        offset = self.phase_deadline
        if offset is None:
            offset = 0.85 * self.ctx.deadline
        return self.ctx.start_time + min(offset, self.ctx.deadline)

    def arm(self) -> None:
        """Schedule the computation-phase watchdog checks."""
        ctx = self.ctx
        first = ctx.collect_end + COLLECTION_GRACE
        last = self.computation_deadline()
        epoch = ctx.simulator.epoch
        at = first
        times = []
        while at < last:
            times.append(at)
            at += WATCHDOG_INTERVAL
        times.append(last)
        for when in times:
            ctx.simulator.schedule_at(
                when,
                lambda: (
                    self.check() if ctx.simulator.epoch == epoch else None
                ),
                "recovery-watchdog",
            )
        if self.detector is not None:
            # liveness probes at twice the watchdog cadence: the
            # detector needs inter-arrival samples before a check can
            # trust its φ, and failed probes feed the failure streak
            # that surfaces gray (alive-but-degraded) devices
            at = first - 0.5 * WATCHDOG_INTERVAL
            if at <= ctx.collect_end:
                # a computer is legitimately silent through collection,
                # so φ over its build-phase cadence would read as death
                # at the first check: clamp the lead probe into the
                # grace window so fresh evidence exists by then
                at = min(
                    ctx.collect_end + 0.5 * COLLECTION_GRACE,
                    first,
                )
            while at < last:
                ctx.simulator.schedule_at(
                    at,
                    lambda: (
                        self.probe_round()
                        if ctx.simulator.epoch == epoch
                        else None
                    ),
                    "detector-probe",
                )
                at += 0.5 * WATCHDOG_INTERVAL

    def probe_round(self) -> None:
        """Probe every assigned Computer device from the combiner."""
        ctx = self.ctx
        if ctx.report.success:
            return
        combiner_op = ctx.plan.operator("combiner")
        prober = ctx.device_of(combiner_op).device_id
        if not ctx.network.is_online(prober):
            return
        targets = sorted(
            {
                op.assigned_to
                for op in self.computer.computers
                if op.assigned_to is not None
            }
        )
        for target in targets:
            if target == prober:
                continue
            ctx.transport.probe(prober, target)

    # -- the watchdog check --------------------------------------------------

    def _received_cells(self) -> set[tuple[int, int]]:
        """(partition, group) cells already at some live combiner."""
        cells: set[tuple[int, int]] = set()
        for name, state in self.combiner.states.items():
            combiner_device = self.ctx.device_of(self.ctx.plan.operator(name))
            if self.ctx.network.is_dead(combiner_device.device_id):
                continue
            cells.update(state.partials)
            cells.update((p, 0) for p in state.knowledges)
        return cells

    def check(self) -> None:
        """One watchdog pass: find starved cells, reprovision owners."""
        ctx = self.ctx
        if ctx.report.success:
            return
        self.checks_run += 1
        self._m_checks.inc()
        received = self._received_cells()
        for operator in list(self.computer.computers):
            cell = (
                operator.params["partition_index"],
                operator.params.get("group_index", 0),
            )
            if cell in received or cell in self.unrecoverable:
                continue
            device_id = operator.assigned_to
            if device_id is None:
                continue
            reachable = ctx.network.is_online(device_id)
            if reachable and self.detector is not None and self.detector.suspect(
                device_id, ctx.simulator.now
            ):
                # nominally online but the accrual detector has lost
                # confidence (partitioned away or gray): treat as gone
                reachable = False
                self._m_suspicions.inc()
                ctx.emit(
                    EventKind.SUSPECTED, operator.op_id, device=device_id, cell=cell
                )
            if reachable:
                continue  # reachable: maybe just slow, leave it be
            self._m_fired.inc()
            ctx.emit(
                EventKind.WATCHDOG_FIRED, operator.op_id, device=device_id, cell=cell
            )
            if (
                ctx.kind == "aggregate"
                and len(ctx.report.reprovisions) < MAX_REPROVISIONS
            ):
                self.reprovision(operator, cell)

    # -- reprovisioning ------------------------------------------------------

    def _next_standby(self) -> str | None:
        while self.standbys:
            candidate = self.standbys[0]
            if self.ctx.network.is_online(candidate):
                return self.standbys.pop(0)
            self.standbys.pop(0)
        return None

    def reprovision(self, operator: Any, cell: tuple[int, int]) -> None:
        """Re-recruit a standby device for one starved Computer cell."""
        ctx = self.ctx
        partition_index, _group_index = cell
        builder_op = self.builder.builder_by_partition.get(partition_index)
        rows = self.builder.rows_by_partition.get(partition_index)
        if builder_op is None or not rows:
            self.unrecoverable.add(cell)
            ctx.emit(
                EventKind.NO_RETAINED_PARTITION, operator.op_id,
                partition=partition_index,
            )
            return
        builder_device = ctx.device_of(builder_op)
        if not ctx.network.is_online(builder_device.device_id):
            ctx.emit(
                EventKind.BUILDER_UNREACHABLE, operator.op_id,
                partition=partition_index,
            )
            return
        new_id = self._next_standby()
        if new_id is None:
            ctx.emit(EventKind.NO_STANDBY, operator.op_id)
            return
        old_id = operator.assigned_to
        operator.assigned_to = new_id
        # the operator's first-wins guard must forget the dead device's
        # copy so the re-shipped partition actually executes
        self.computer.partitions_seen.discard(operator.op_id)
        self._m_reprovisions.inc()
        if self.detector is not None and old_id:
            # the displaced device's history must not poison a later
            # suspicion check should the id be re-recruited
            self.detector.forget(old_id)
        # mint the fencing token: the new owner's partials carry a
        # strictly higher generation, so a zombie predecessor that
        # resurfaces (healed partition, recovered gray link) loses at
        # the combiner instead of split-braining the cell.  Replica
        # ranks double as generations, so the token tops every rank —
        # fired or still on its takeover timer — and every earlier
        # reprovisioning of the cell
        generation = 1 + max(
            [ctx.generations.get(cell, 0), ctx.plan.replicas]
            + [
                event.fields["generation"]
                for event in of_kind(ctx.report.events, EventKind.PARTIAL_SENT)
                if event.fields["cell"] == cell
            ]
        )
        ctx.generations[cell] = generation
        ctx.emit(
            EventKind.REPROVISIONED, operator.op_id,
            old=old_id, new=new_id, generation=generation,
        )
        ship_partition(
            ctx, builder_device, partition_index, rows, [operator],
            generation=generation,
        )
