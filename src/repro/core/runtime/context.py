"""Shared execution context for the per-role operator runtimes.

The :class:`ExecutionContext` owns everything every role runtime needs
but no role owns alone: the clock, the network, the device map, the
validated plan configuration, the report under construction, sealed
transport, audit, phase accounting, and the telemetry instruments.
Role runtimes (:mod:`repro.core.runtime.contributor` …) hold only their
own operator state and reach everything else through this object.
"""

from __future__ import annotations

import random
from typing import Any

from repro.core.overcollection import OvercollectionConfig
from repro.core.qep import Operator, OperatorRole, QueryExecutionPlan
from repro.core.runtime.report import ExecutionError, ExecutionReport
from repro.crypto.primitives import AuthenticationError
from repro.devices.edgelet import Edgelet
from repro.network.messages import Message, MessageKind
from repro.network.opnet import OpportunisticNetwork
from repro.network.simulator import Simulator
from repro.query.groupby import GroupByQuery
from repro.query.sketches import BloomFilter

__all__ = ["ExecutionContext"]


class ExecutionContext:
    """Per-execution shared state and services.

    Construction validates the knobs and parses the plan metadata once;
    see :class:`repro.core.runtime.ExecutionCoordinator` for the
    argument documentation (the coordinator forwards them verbatim).
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
        transport: Any = None,
        contribution_cache: Any = None,
    ):
        if contribution_copies < 1:
            raise ExecutionError("contribution_copies must be at least 1")
        if deadline <= collection_window:
            raise ExecutionError("deadline must exceed the collection window")
        self.simulator = simulator
        self.network = network
        # optional reliability overlay (repro.network.reliable); ``None``
        # sends straight on the raw opportunistic network, bit-for-bit
        # the legacy behaviour, and disables the recovery layer
        # (watchdogs, reprovisioning, graceful degradation)
        self.transport = transport
        # optional ContributionCache (repro.core.runtime.incremental);
        # ``None`` ships every contribution in full — the one-shot
        # behaviour.  A standing-query engine threads one cache through
        # consecutive windows so unchanged contributions travel as stamps.
        self.contribution_cache = contribution_cache
        # generation fencing: each reprovisioning of a (partition,
        # group) cell mints a higher generation, the token travels
        # builder → computer → combiner, and the combiner accepts
        # monotonically.  The current generation per cell; absent means
        # generation 0 (the original provisioning)
        self.generations: dict[tuple[int, int], int] = {}
        # evidence logs for the no-split-brain invariant: every partial
        # *fired* toward a combiner (time, cell, device, generation) and
        # every partial *arriving* at a combiner
        # (time, cell, combiner_op, device, generation, disposition)
        self.fire_log: list[tuple[float, tuple[int, int], str, int]] = []
        self.arrival_log: list[tuple[float, tuple[int, int], str, str, int, str]] = []
        self.devices = devices
        self.plan = plan
        # All phase boundaries are relative to the execution's start
        # time, so several queries can run back-to-back on one simulator.
        self.start_time = simulator.now
        self.collection_window = collection_window
        self.deadline = deadline
        self.collect_end = self.start_time + collection_window
        self.deadline_at = self.start_time + deadline
        self.secure_channels = secure_channels
        self.contribution_copies = contribution_copies
        self.audit_ledger = audit_ledger
        self._contribution_filters: dict[Any, Any] = {}
        self.rng = random.Random(seed)
        self.report = ExecutionReport(query_id=plan.query_id)

        if telemetry is None:
            telemetry = simulator.telemetry
        self.telemetry = telemetry
        self.report.telemetry = telemetry
        metrics = telemetry.metrics
        query_id = plan.query_id
        self.m_contributions = metrics.counter(
            "exec.contributions_accepted", query=query_id
        )
        self.m_tuples = metrics.counter("exec.tuples_collected", query=query_id)
        self.m_snapshots = metrics.counter("exec.snapshots_frozen", query=query_id)
        self.m_partials = metrics.counter("exec.partials_recorded", query=query_id)
        self.m_knowledges = metrics.counter(
            "exec.knowledges_recorded", query=query_id
        )
        self.m_heartbeats = metrics.counter("exec.heartbeats_run", query=query_id)
        self.m_finals = metrics.counter("exec.final_results", query=query_id)
        self.prof_aggregate = telemetry.profiler.section("operator.aggregate")
        self.prof_heartbeat = telemetry.profiler.section("operator.kmeans_heartbeat")
        self.prof_combine = telemetry.profiler.section("operator.combine")
        self._m_dropped_payloads: dict[str, Any] = {}
        self._m_role_dispatches: dict[str, Any] = {}

        # Phase spans: the structured execution timeline.  The
        # collection span closes at the first frozen snapshot and the
        # computation span opens at the first partial/K-Means init,
        # mirroring exactly what the legacy substring heuristics mined
        # from the text trace.  Spans left open (a phase that never
        # happened) render as ``None`` boundaries.
        from repro.telemetry import NullTracer

        tracer = telemetry.tracer
        self.span_execution = tracer.start(
            "execution",
            at=self.start_time,
            query_id=query_id,
            kind=plan.metadata["kind"],
        )
        self.span_collection = tracer.start(
            "phase:collection", at=self.start_time, parent=self.span_execution
        )
        self.span_computation: Any = None
        self.span_combination: Any = None
        # A no-op tracer hands out one shared inert span; publishing it
        # would poison phase_timeline, which then rightly falls back to
        # the legacy text-trace scan.
        self.record_phase_spans = not isinstance(tracer, NullTracer)
        if self.record_phase_spans:
            self.report.phase_spans["execution"] = self.span_execution
            self.report.phase_spans["collection"] = self.span_collection

        metadata = plan.metadata
        self.kind: str = metadata["kind"]
        self.config = OvercollectionConfig.from_dict(metadata["overcollection"])
        self.column_groups: list[list[str]] = [
            list(group) for group in metadata["column_groups"]
        ]
        self.collected_columns: list[str] = list(metadata["collected_columns"])
        self.query: GroupByQuery | None = (
            GroupByQuery.from_dict(metadata["group_by"])
            if metadata.get("group_by")
            else None
        )
        self.heartbeats: int = metadata.get("heartbeats") or 0
        self.kmeans_k: int = metadata.get("kmeans_k") or 0
        self.feature_columns: list[str] = list(metadata.get("feature_columns") or [])

        # Demo query (ii): "a K-Means followed by a Group By on the
        # resulting clusters".  When a kmeans spec carries a group_by,
        # a second round groups the partitions by assigned cluster.
        self.stats_query: GroupByQuery | None = None
        if self.kind == "kmeans" and self.query is not None:
            self.stats_query = GroupByQuery(
                grouping_sets=(("cluster",),),
                aggregates=self.query.aggregates,
            )

    # -- lookups & accounting ------------------------------------------------

    def device_of(self, operator: Operator) -> Edgelet:
        """Resolve an operator's assigned :class:`Edgelet`."""
        device_id = operator.assigned_to
        if device_id is None:
            raise ExecutionError(f"operator {operator.op_id} is unassigned")
        try:
            return self.devices[device_id]
        except KeyError:
            raise ExecutionError(
                f"operator {operator.op_id} assigned to unknown device {device_id}"
            ) from None

    def trace(self, message: str) -> None:
        """Append one human-readable event to the report's text trace."""
        self.report.trace.append((self.simulator.now, message))

    def count_tuples(self, device_id: str, count: int) -> None:
        """Attribute ``count`` raw tuples to a processing device."""
        tallies = self.report.tuples_per_device
        tallies[device_id] = tallies.get(device_id, 0) + count

    def audit(self, device: Edgelet, op_id: str, action: str, tuple_count: int) -> None:
        """Append a signed record to the audit ledger, if one is wired."""
        if self.audit_ledger is None:
            return
        self.audit_ledger.append(
            device.keyring.keypair,
            self.plan.query_id,
            op_id,
            action,
            tuple_count,
            self.simulator.now,
        )

    def count_dropped_payload(self, reason: str) -> None:
        """Count one silently dropped inbound payload, by reason."""
        counter = self._m_dropped_payloads.get(reason)
        if counter is None:
            counter = self.telemetry.metrics.counter(
                "executor.payloads_dropped",
                query=self.plan.query_id,
                reason=reason,
            )
            self._m_dropped_payloads[reason] = counter
        counter.inc()

    def count_role_dispatch(self, role: str) -> None:
        """Count one message dispatched to a role runtime."""
        counter = self._m_role_dispatches.get(role)
        if counter is None:
            counter = self.telemetry.metrics.counter(
                "exec.messages_dispatched",
                query=self.plan.query_id,
                role=role,
            )
            self._m_role_dispatches[role] = counter
        counter.inc()

    # -- phase accounting ----------------------------------------------------

    def mark_collection_end(self) -> None:
        """First snapshot froze: the collection phase is over."""
        if self.span_collection.end is None:
            now = self.simulator.now
            self.span_collection.finish(at=now)
            self.telemetry.tracer.mark(
                f"exec.{self.plan.query_id}.collection_end", at=now
            )

    def mark_computation_start(self) -> None:
        """First partial/K-Means init: the computation phase began."""
        if self.span_computation is None:
            now = self.simulator.now
            self.span_computation = self.telemetry.tracer.start(
                "phase:computation", at=now, parent=self.span_execution
            )
            if self.record_phase_spans:
                self.report.phase_spans["computation"] = self.span_computation
            self.telemetry.tracer.mark(
                f"exec.{self.plan.query_id}.computation_start", at=now
            )

    def mark_combination_start(self) -> None:
        """The combiner deadline fired: the combination phase began."""
        if self.span_combination is None:
            now = self.simulator.now
            if self.span_computation is not None:
                self.span_computation.finish(at=now)
            self.span_combination = self.telemetry.tracer.start(
                "phase:combination", at=now, parent=self.span_execution
            )
            if self.record_phase_spans:
                self.report.phase_spans["combination"] = self.span_combination

    # -- sealed transport ----------------------------------------------------

    def ship(
        self,
        sender: Edgelet,
        recipient: Edgelet,
        kind: MessageKind,
        payload: Any,
        size_hint: int = 256,
    ) -> None:
        """Seal (or not) and send a payload between two edgelets."""
        if self.secure_channels:
            sender.keyring.learn_public(
                recipient.fingerprint, recipient.keyring.keypair.public
            )
            recipient.keyring.learn_public(
                sender.fingerprint, sender.keyring.keypair.public
            )
            envelope = sender.seal_for(
                recipient.fingerprint, self.plan.query_id, kind.value, payload
            )
            wire_payload: Any = envelope
            size = envelope.size_bytes()
        else:
            wire_payload = payload
            size = max(size_hint, 64)
        transport = self.transport if self.transport is not None else self.network
        transport.send(
            Message(
                sender=sender.device_id,
                recipient=recipient.device_id,
                kind=kind,
                payload=wire_payload,
                size_bytes=size,
            )
        )

    def attach(self, device_id: str, handler: Any) -> None:
        """Attach a device handler via the transport (or raw network)."""
        transport = self.transport if self.transport is not None else self.network
        transport.attach(device_id, handler)

    def unwrap(self, device: Edgelet, message: Message) -> Any | None:
        """Open a received payload; ``None`` means drop it (tampered).

        Dropped payloads are counted in the ``executor.payloads_dropped``
        counter (labelled by reason) so corruption campaigns can assert
        the TEE boundary actually rejected the tampered envelopes.
        """
        if not self.secure_channels:
            payload = message.payload
            items = payload.get("rows") if isinstance(payload, dict) else None
            device.tee.process_cleartext(items if items is not None else [payload])
            return payload
        try:
            return device.open_from(message.payload)
        except AuthenticationError:
            self.trace(
                f"{device.device_id} dropped unauthenticated {message.kind.value}"
            )
            self.count_dropped_payload("unauthenticated")
            return None

    def resolve_contribution(
        self, receiver: Edgelet, payload: dict[str, Any]
    ) -> list[dict[str, Any]] | None:
        """Rows carried by a contribution payload, stamps included.

        A full payload carries ``rows`` directly.  A delta stamp (sent
        when a :class:`~repro.core.runtime.incremental.ContributionCache`
        is active and the edge's retained digest still matches) carries
        only ``stamp``/``contributor`` and resolves against the cache on
        the receiving device's side.  ``None`` means the payload could
        not be materialized — stale stamp after churn invalidation — and
        must be dropped; the sender falls back to full recollection on
        the next window.
        """
        rows = payload.get("rows")
        if rows is not None:
            return rows
        cache = self.contribution_cache
        stamp = payload.get("stamp")
        contributor = payload.get("contributor")
        if cache is None or stamp is None or contributor is None:
            return None
        return cache.resolve(contributor, receiver.device_id, stamp)

    def is_duplicate_contribution(
        self, dedup_key: Any, payload: dict[str, Any]
    ) -> bool:
        """Bloom-filter dedup of retransmitted contributions.

        One filter per receiving operator; constant memory, so it also
        fits a RAM-starved home box.  False positives (rare at the
        configured error rate) drop a legitimate contribution — the
        snapshot stays representative, only marginally smaller.
        """
        contribution_id = payload.get("contribution_id")
        if contribution_id is None:
            return False
        bloom = self._contribution_filters.get(dedup_key)
        if bloom is None:
            capacity = max(
                64, 2 * len(self.plan.operators(OperatorRole.DATA_CONTRIBUTOR))
            )
            bloom = BloomFilter(capacity=capacity, error_rate=0.001)
            self._contribution_filters[dedup_key] = bloom
        return not bloom.add_if_new(contribution_id)
