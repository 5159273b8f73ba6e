"""Shared execution context for the per-role operator runtimes.

The :class:`ExecutionContext` owns everything every role runtime needs
but no role owns alone: the clock, the network, the device map, the
validated plan configuration, the report under construction and its
event list, sealed transport, audit, and the live telemetry
instruments (the phase spans and step counters are published from the
events when the execution concludes).
Role runtimes (:mod:`repro.core.runtime.contributor` …) hold only their
own operator state and reach everything else through this object.
"""

from __future__ import annotations

import random
from typing import Any

from repro.core.overcollection import OvercollectionConfig
from repro.core.qep import Operator, QueryExecutionPlan
from repro.core.runtime.events import Event, EventKind
from repro.core.runtime.report import ExecutionError, ExecutionReport
from repro.crypto.primitives import AuthenticationError
from repro.devices.edgelet import Edgelet
from repro.network.messages import Message, MessageKind
from repro.network.opnet import OpportunisticNetwork
from repro.network.simulator import Simulator
from repro.query.groupby import GroupByQuery

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
        self._contribution_ids: dict[Any, set[Any]] = {}
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
        self.m_knowledges = metrics.counter(
            "exec.knowledges_recorded", query=query_id
        )
        self.prof_aggregate = telemetry.profiler.section("operator.aggregate")
        self.prof_heartbeat = telemetry.profiler.section("operator.kmeans_heartbeat")
        self.prof_combine = telemetry.profiler.section("operator.combine")
        self._m_dropped_payloads: dict[str, Any] = {}
        self._m_role_dispatches: dict[str, Any] = {}

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

    def emit(self, kind: EventKind, op: str | None = None, **fields: Any) -> None:
        """Record one execution step, now, in the report's event list
        (:mod:`repro.core.runtime.events`)."""
        self.report.events.append(Event(self.simulator.now, kind, op, fields))

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

        A dropped payload is a ``PAYLOAD_REJECTED`` event, so corruption
        campaigns can assert the TEE boundary actually rejected the
        tampered envelopes.
        """
        if not self.secure_channels:
            payload = message.payload
            items = payload.get("rows") if isinstance(payload, dict) else None
            device.tee.process_cleartext(items if items is not None else [payload])
            return payload
        try:
            return device.open_from(message.payload)
        except AuthenticationError:
            self.emit(
                EventKind.PAYLOAD_REJECTED,
                device=device.device_id, message=message.kind.value,
            )
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
        """Exact dedup of retransmitted contributions: one set of seen
        contribution ids per receiving operator, so a retransmission is
        always dropped and a distinct contribution never is."""
        contribution_id = payload.get("contribution_id")
        if contribution_id is None:
            return False
        seen = self._contribution_ids.setdefault(dedup_key, set())
        duplicate = contribution_id in seen
        seen.add(contribution_id)
        return duplicate
