"""Thin execution coordinator over the per-role operator runtimes.

:class:`ExecutionCoordinator` owns only the cross-cutting concerns of
one query execution: handler attachment, sealed-payload unwrapping,
message routing to the role runtimes, the phase timers (end of
collection, combiner deadline, cluster-stats deadline), the run
horizon, and publishing the execution's telemetry from its events when
it concludes.  Everything role-specific lives in the runtimes
(:mod:`repro.core.runtime.contributor` … :mod:`.querier`), and which
rank runs when lives in the one
:class:`repro.core.runtime.strategy.StrategyRuntime` it builds from the
plan.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from repro.core.qep import OperatorRole, QueryExecutionPlan
from repro.core.runtime.builder import BuilderRuntime
from repro.core.runtime.combiner import CombinerRuntime, CombinerState
from repro.core.runtime.computer import ComputerRuntime
from repro.core.runtime.context import ExecutionContext
from repro.core.runtime.contributor import ContributorRuntime
from repro.core.runtime.events import EventKind
from repro.core.runtime.querier import QuerierRuntime
from repro.core.runtime.recovery import RecoveryRuntime
from repro.core.runtime.report import (
    ExecutionError,
    ExecutionEvidence,
    ExecutionReport,
    phase_timeline,
)
from repro.core.runtime.strategy import StrategyRuntime
from repro.devices.edgelet import Edgelet
from repro.ml.distributed_kmeans import CentroidKnowledge
from repro.network.messages import Message, MessageKind
from repro.network.opnet import OpportunisticNetwork
from repro.network.simulator import Simulator

__all__ = ["ExecutionCoordinator"]


class ExecutionCoordinator:
    """Executes one query plan across the simulated edgelet swarm.

    Args:
        simulator: the discrete-event clock shared with the network.
        network: the opportunistic network the devices hang off.
        devices: device_id -> :class:`Edgelet` for every participant.
        plan: an assigned :class:`QueryExecutionPlan`.
        collection_window: virtual seconds devoted to the collection
            phase.
        deadline: virtual time by which the Querier must be served.
        secure_channels: seal every payload in an authenticated
            envelope (realistic, slower) or ship plain payloads through
            the same code paths (fast, for large-scale benches).
        contribution_copies: how many times each contributor transmits
            its contribution (staggered retransmissions improve delivery
            on lossy links; builders deduplicate by contribution id so
            duplicates never skew the snapshot).
        audit_ledger: optional
            :class:`repro.manager.audit.AuditLedger`; when provided,
            every processing step appends a signed, hash-chained record
            (the evidence backing the Crowd Liability property).
        telemetry: the :class:`repro.telemetry.Telemetry` to record
            phase spans, counters, and profiles into; defaults to the
            simulator's instance.
        seed: randomness for contribution jitter.
        transport: optional reliability overlay
            (:class:`repro.network.reliable.ReliableTransport`); when
            provided, every handler attach and every shipped payload
            goes through it instead of the raw network, and the
            :class:`RecoveryRuntime` arms phase watchdogs, participant
            reprovisioning, and graceful degradation.  ``None`` keeps
            the legacy fail-hard behaviour.
        phase_deadline: the watchdog's computation-phase deadline as an
            offset from the execution start (``None``: 85% of
            ``deadline``); read only with a transport.
        standby_devices: ordered pool of device ids the watchdog may
            re-recruit Computers from (typically the eligible
            processors the assignment pass left unassigned).
        contribution_cache: a standing query's cross-window
            :class:`repro.core.runtime.incremental.ContributionCache`.
        detector: let the watchdog also act on φ-accrual suspicion
            (:mod:`repro.core.runtime.detector`); read only with a
            transport.
    """

    def __init__(
        self,
        simulator: Simulator,
        network: OpportunisticNetwork,
        devices: dict[str, Edgelet],
        plan: QueryExecutionPlan,
        collection_window: float = 30.0,
        deadline: float = 100.0,
        secure_channels: bool = True,
        contribution_copies: int = 1,
        audit_ledger: Any = None,
        telemetry: Any = None,
        seed: int = 0,
        *,
        transport: Any = None,
        phase_deadline: float | None = None,
        standby_devices: list[str] | None = None,
        contribution_cache: Any = None,
        detector: bool = False,
    ):
        self.ctx = ExecutionContext(
            simulator=simulator,
            network=network,
            devices=devices,
            plan=plan,
            collection_window=collection_window,
            deadline=deadline,
            secure_channels=secure_channels,
            contribution_copies=contribution_copies,
            audit_ledger=audit_ledger,
            telemetry=telemetry,
            seed=seed,
            transport=transport,
            contribution_cache=contribution_cache,
        )
        self.contributor = ContributorRuntime(self.ctx)
        self.builder = BuilderRuntime(self.ctx)
        self.computer = ComputerRuntime(self.ctx)
        self.combiner = CombinerRuntime(self.ctx, self.computer)
        self.querier = QuerierRuntime(self.ctx)
        self.builder.index()
        self.computer.index()
        self.strategy = StrategyRuntime(self.ctx, self.builder, self.computer)
        self.recovery: RecoveryRuntime | None = None
        if transport is not None:
            self.recovery = RecoveryRuntime(
                self.ctx,
                self.builder,
                self.computer,
                self.combiner,
                standby_devices or [],
                phase_deadline=phase_deadline,
                detector=detector,
            )

    # -- convenience views over the shared context ---------------------------

    @property
    def simulator(self) -> Simulator:
        return self.ctx.simulator

    @property
    def network(self) -> OpportunisticNetwork:
        return self.ctx.network

    @property
    def devices(self) -> dict[str, Edgelet]:
        return self.ctx.devices

    @property
    def plan(self) -> QueryExecutionPlan:
        return self.ctx.plan

    @property
    def report(self) -> ExecutionReport:
        return self.ctx.report

    @property
    def telemetry(self) -> Any:
        return self.ctx.telemetry

    @property
    def kind(self) -> str:
        return self.ctx.kind

    @property
    def start_time(self) -> float:
        return self.ctx.start_time

    @property
    def query(self):
        return self.ctx.query

    @property
    def config(self):
        return self.ctx.config

    @property
    def collect_end(self) -> float:
        return self.ctx.collect_end

    @property
    def deadline_at(self) -> float:
        return self.ctx.deadline_at

    # -- public state accessors (chaos invariants, tests, benches) -----------

    @property
    def combiners(self) -> dict[str, CombinerState]:
        """Both combiner states, keyed ``combiner``/``combiner-backup``."""
        return self.combiner.states

    @property
    def aggregate_indices_per_group(self) -> list[list[int]]:
        """Vertical-partitioning aggregate slices, one list per group."""
        return self.computer.aggregate_indices_per_group

    @property
    def builder_rows(self) -> dict[int, list[dict[str, Any]]]:
        """Rank-0 builders' collected rows, keyed by partition index."""
        return self.builder.rows_by_partition

    def evidence(self) -> ExecutionEvidence:
        """What the invariant checks read of this execution once it
        concluded — built once, by :meth:`repro.manager.scenario.
        Scenario.conclude`, on every path."""
        return ExecutionEvidence(
            kind=self.kind,
            query=self.query,
            start_time=self.start_time,
            combiners=self.combiners,
            aggregate_indices_per_group=self.aggregate_indices_per_group,
            events=self.report.events,
            network=self.network,
        )

    # -- run -----------------------------------------------------------------

    def run(self) -> ExecutionReport:
        """Execute the plan to the deadline and return the report."""
        horizon = self.start()
        self.ctx.simulator.run_until(horizon)
        return self.finish()

    def start(self) -> float:
        """Wire handlers and arm every phase timer; returns the horizon.

        Split out of :meth:`run` so a workload engine can start several
        executions on one shared clock and advance them together —
        each query's events interleave on the simulator, and
        :meth:`finish` seals its report once its own horizon passes.
        """
        ctx = self.ctx
        query_id = ctx.plan.query_id
        self.attach_handlers()
        self.contributor.schedule_contributions()
        ctx.simulator.schedule_at(
            ctx.collect_end, self.end_collection, f"end-collection:{query_id}"
        )
        if ctx.kind == "kmeans":
            self.computer.schedule_heartbeats()
        ctx.simulator.schedule_at(
            ctx.deadline_at, self.finalize, f"combiner-deadline:{query_id}"
        )
        if self.recovery is not None:
            self.recovery.arm()
        horizon = ctx.deadline_at + self.result_slack()
        if ctx.stats_query is not None:
            ctx.simulator.schedule_at(
                ctx.deadline_at + 0.6 * self.stats_window(),
                self.finalize_stats,
                f"cluster-stats-deadline:{query_id}",
            )
            horizon += self.stats_window()
        self.horizon = horizon
        return horizon

    def finish(self) -> ExecutionReport:
        """Seal and return the report (call once the horizon passed)."""
        ctx = self.ctx
        network_stats = getattr(ctx.network, "stats", None)
        if network_stats is not None:
            ctx.report.network_stats = network_stats.as_dict()
        if ctx.transport is not None:
            ctx.report.transport_stats = ctx.transport.stats.as_dict()
        self.publish_telemetry()
        return ctx.report

    def publish_telemetry(self) -> None:
        """Publish the execution's phase spans, marks and step counters.

        Every value is read off what the run recorded (its events, its
        heartbeat and watchdog tallies) once, here: the only place the
        runtime writes to the tracer.  The collection phase ends at the
        first frozen snapshot, computation runs from the first partial
        or K-Means init to the combiner deadline, and combination from
        the deadline to delivery (or to now).
        """
        ctx = self.ctx
        report, query_id, now = ctx.report, ctx.plan.query_id, ctx.simulator.now
        tracer, metrics = ctx.telemetry.tracer, ctx.telemetry.metrics
        timeline = phase_timeline(report)
        execution = tracer.start(
            "execution", at=ctx.start_time, query_id=query_id, kind=ctx.kind
        )
        collection = tracer.start(
            "phase:collection", at=ctx.start_time, parent=execution
        )
        if timeline["collection_end"] is not None:
            collection.finish(at=timeline["collection_end"])
        combining = now >= ctx.deadline_at
        computation_start = timeline["computation_start"]
        if computation_start is not None:
            computation = tracer.start(
                "phase:computation", at=computation_start, parent=execution
            )
            if combining and computation_start <= ctx.deadline_at:
                computation.finish(at=ctx.deadline_at)
        if combining:
            completion = timeline["completion"]
            tracer.start(
                "phase:combination", at=ctx.deadline_at, parent=execution
            ).finish(at=now if completion is None else completion)
        execution.finish(at=now)
        for name, time in timeline.items():
            if time is not None:
                tracer.mark(f"exec.{query_id}.{name}", at=time)

        counts = Counter(event.kind for event in report.events)

        def publish(name: str, value: int, **labels: str) -> None:
            metrics.counter(name, query=query_id, **labels).inc(value)

        publish("exec.snapshots_frozen", counts[EventKind.SNAPSHOT_FROZEN])
        publish("exec.partials_recorded", counts[EventKind.PARTIAL_ARRIVED])
        publish("exec.heartbeats_run", report.heartbeats_run)
        publish("exec.final_results", counts[EventKind.DELIVERED])
        if self.recovery is not None:
            publish("exec.watchdog_checks", self.recovery.checks_run)
            publish(
                "exec.watchdog_fired", counts[EventKind.WATCHDOG_FIRED],
                phase="computation",
            )
            publish("exec.reprovisions", counts[EventKind.REPROVISIONED])
            publish("exec.detector_suspicions", counts[EventKind.SUSPECTED])
        # these two exist only once their step happened
        if counts[EventKind.TAKEOVER]:
            publish("exec.backup_takeovers", counts[EventKind.TAKEOVER])
        if counts[EventKind.PAYLOAD_REJECTED]:
            publish(
                "executor.payloads_dropped", counts[EventKind.PAYLOAD_REJECTED],
                reason="unauthenticated",
            )

    def result_slack(self) -> float:
        """Extra virtual time for the final-result message to land."""
        return max(5.0, 0.1 * self.ctx.deadline)

    def stats_window(self) -> float:
        """Extra virtual time granted to the Group-By-on-clusters round."""
        return max(10.0, 0.3 * self.ctx.deadline)

    # -- wiring --------------------------------------------------------------

    def attach_handlers(self) -> None:
        """Register one unwrap-and-dispatch handler per plan device."""
        ctx = self.ctx
        attached: set[str] = set()
        for operator in ctx.plan.operators():
            if operator.role == OperatorRole.DATA_CONTRIBUTOR:
                device_id = operator.params["device"]
            elif operator.assigned_to is not None:
                device_id = operator.assigned_to
            else:
                continue
            if device_id in attached:
                continue
            attached.add(device_id)
            device = ctx.devices.get(device_id)
            if device is None:
                raise ExecutionError(f"unknown device {device_id} in plan")
            self.attach_device(device)
        if self.recovery is not None:
            # standbys join the swarm up-front (idle but reachable), so
            # the watchdog can see their liveness when re-recruiting
            for device_id in self.recovery.standbys:
                device = ctx.devices.get(device_id)
                if device is None or device_id in attached:
                    continue
                attached.add(device_id)
                self.attach_device(device)

    def attach_device(self, device: Edgelet) -> None:
        """Attach one device's receive path (transport-aware)."""
        self.ctx.attach(device.device_id, self.make_handler(device))

    def make_handler(self, device: Edgelet):
        """One device's receive path: unwrap, then route by kind."""
        def handle(message: Message) -> None:
            if (
                message.kind is MessageKind.HEARTBEAT
                and isinstance(message.payload, dict)
                and message.payload.get("__probe__")
            ):
                # failure-detector liveness probe: a plain (unsealed)
                # dict the transport already ACKed — never unwrap it
                return
            payload = self.ctx.unwrap(device, message)
            if payload is None:
                return
            self.dispatch(device, message.kind, payload, sender=message.sender)
        return handle

    # -- message routing -----------------------------------------------------

    def dispatch(
        self,
        device: Edgelet,
        kind: MessageKind,
        payload: Any,
        sender: str | None = None,
    ) -> None:
        """Route one unwrapped payload to the owning role runtime."""
        ctx = self.ctx
        if kind == MessageKind.CONTRIBUTION:
            ctx.count_role_dispatch("snapshot_builder")
            self.builder.on_contribution(device, payload)
        elif kind == MessageKind.PARTITION:
            ctx.count_role_dispatch("computer")
            self.strategy.on_partition(device, payload)
        elif kind == MessageKind.PARTIAL_RESULT:
            ctx.count_role_dispatch("computing_combiner")
            self.combiner.on_partial_result(device, payload, sender=sender)
        elif kind == MessageKind.KNOWLEDGE:
            self._route_knowledge(device, payload)
        elif kind == MessageKind.FINAL_RESULT:
            ctx.count_role_dispatch("querier")
            self.querier.on_final_result(device, payload)
        elif kind == MessageKind.CONTROL:
            ctx.count_role_dispatch("strategy")
            self.strategy.on_control(device, payload)

    def _route_knowledge(self, device: Edgelet, payload: dict[str, Any]) -> None:
        """KNOWLEDGE fan-in: final centroids, combiner intake, or gossip."""
        ctx = self.ctx
        op_id = payload.get("op_id", "")
        if "final_centroids" in payload:
            ctx.count_role_dispatch("computer")
            self.computer.on_final_centroids(device, payload)
            return
        if op_id in self.combiner.states:
            ctx.count_role_dispatch("computing_combiner")
            self.combiner.on_knowledge(device, payload)
            return
        ctx.count_role_dispatch("computer")
        knowledge = CentroidKnowledge.from_payload(payload["knowledge"])
        self.computer.on_peer_knowledge(op_id, knowledge)

    # -- phase timers --------------------------------------------------------

    def end_collection(self) -> None:
        """The collection window closed: rank 0 runs, replicas arm."""
        self.strategy.end_collection()

    def finalize(self) -> None:
        """The combiner deadline fired."""
        self.combiner.finalize()

    def finalize_stats(self) -> None:
        """The Group-By-on-clusters deadline fired."""
        self.combiner.finalize_stats()
