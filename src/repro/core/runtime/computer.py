"""Computer runtime: aggregate folding and heartbeat-cadenced K-Means.

A Computer receives one column-group projection of one hash partition.
Aggregate Computers fold it into a partial Group-By state (rank 0 on
arrival, a replica when it takes over) and ship the partial to both
combiners.  K-Means Computers keep the partition and run the
local-convergence / synchronization loop of Section 2.2 on the shared
heartbeat cadence, gossiping centroid knowledge between beats and
shipping it to the combiners on the last one.  The demo's query (ii) adds a final round: once the combiner
publishes merged centroids, every Computer labels its partition and
computes per-cluster grouped statistics.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.core.qep import Operator, OperatorRole, rank_of
from repro.core.runtime.combiner import COMBINER_NAMES
from repro.core.runtime.context import ExecutionContext
from repro.core.runtime.events import EventKind
from repro.devices.edgelet import Edgelet
from repro.ml.distributed_kmeans import CentroidKnowledge, KMeansComputerState
from repro.network.messages import MessageKind
from repro.query.fold import fold_partition
from repro.query.groupby import GroupByQuery

__all__ = ["ComputerRuntime"]


class ComputerRuntime:
    """Computer execution for both query kinds: the one partition intake
    (:meth:`accept`) and the one fold-and-send every rank uses
    (:meth:`run_aggregate`); K-Means runs on the rank-0 Computers."""

    role = OperatorRole.COMPUTER

    def __init__(self, ctx: ExecutionContext):
        self.ctx = ctx
        self.computers: list[Operator] = []
        self.by_op_id: dict[str, Operator] = {}
        self.aggregate_indices_per_group: list[list[int]] = [
            [] for _ in ctx.column_groups
        ]
        self.kmeans_states: dict[int, KMeansComputerState] = {}
        self.kmeans_rows: dict[int, list[dict[str, Any]]] = {}
        # first-wins guard against duplicated PARTITION messages, by
        # operator: a Computer runs its partition exactly once, so a
        # network-level duplicate must not double-count tuples or
        # recompute partials
        self.partitions_seen: set[str] = set()

    def index(self) -> None:
        """Every Computer rank by op id; the primaries and their
        aggregate slices."""
        for computer in self.ctx.plan.operators(OperatorRole.COMPUTER):
            self.by_op_id[computer.op_id] = computer
            if rank_of(computer) != 0:
                continue
            self.computers.append(computer)
            group_index = computer.params["group_index"]
            indices = computer.params.get("aggregate_indices")
            if indices is not None:
                self.aggregate_indices_per_group[group_index] = list(indices)

    # -- partition intake ----------------------------------------------------

    def accept(self, device: Edgelet, payload: dict[str, Any]) -> Operator | None:
        """Take in one shipped partition; returns the Computer it is for,
        or ``None`` for a duplicate or an unknown operator."""
        op_id = payload.get("op_id", "")
        if op_id in self.partitions_seen:
            return None  # duplicated in transit; this Computer already ran
        self.partitions_seen.add(op_id)
        self.ctx.count_tuples(device.device_id, len(payload["rows"]))
        return self.by_op_id.get(op_id)

    def run_aggregate(
        self,
        device: Edgelet,
        computer: Operator,
        rows: list[dict[str, Any]],
        generation: int,
        on_sent: Callable[[], None],
    ) -> None:
        """Fold one partition into a partial state and ship it to both
        combiners after the device's compute latency.

        ``generation`` is the fencing token the partial carries (a
        reprovisioning's, or a replica's rank); ``on_sent`` runs right
        after a successful send (the shipped marker to sibling ranks).
        """
        ctx = self.ctx
        indices = computer.params.get("aggregate_indices") or list(
            range(len(ctx.query.aggregates))
        )
        sub_query = GroupByQuery(
            grouping_sets=ctx.query.grouping_sets,
            aggregates=tuple(ctx.query.aggregates[i] for i in indices),
        )
        with ctx.prof_aggregate:
            partial = fold_partition(sub_query, rows)
        latency = device.compute_latency(float(len(rows)))
        payload = {
            "__aggregate__": True,
            "partition_index": computer.params["partition_index"],
            "group_index": computer.params.get("group_index", 0),
            "partial": partial.to_dict(),
        }
        if generation:
            # generation 0 travels as an absent key, so original owners'
            # payloads (and their sealed sizes) carry no token at all
            payload["generation"] = generation
        ctx.simulator.schedule(
            latency,
            self._make_partial_send(device, computer, payload, generation, on_sent),
            f"{computer.op_id} partial",
        )

    def _make_partial_send(self, device, computer, payload, generation, on_sent):
        ctx = self.ctx

        def fire() -> None:
            if not ctx.network.is_online(device.device_id):
                ctx.emit(EventKind.PARTIAL_LOST, computer.op_id)
                return
            ctx.emit(
                EventKind.PARTIAL_SENT, computer.op_id,
                cell=(payload["partition_index"], payload.get("group_index", 0)),
                device=device.device_id, generation=generation,
            )
            self.ship_to_combiners(device, MessageKind.PARTIAL_RESULT, payload)
            on_sent()
        return fire

    def ship_to_combiners(
        self, device: Edgelet, kind: MessageKind, payload: dict[str, Any]
    ) -> None:
        """Send one payload to the Computing Combiner and its Active Backup."""
        ctx = self.ctx
        for name in COMBINER_NAMES:
            target = ctx.device_of(ctx.plan.operator(name))
            ctx.ship(device, target, kind, dict(payload, op_id=name), size_hint=512)

    # -- kmeans specifics ----------------------------------------------------

    def init_kmeans(
        self, device: Edgelet, computer: Operator, rows: list[dict[str, Any]]
    ) -> None:
        """Seed the per-partition K-Means state from usable feature rows."""
        ctx = self.ctx
        features = [
            [row[c] for c in ctx.feature_columns]
            if all(row.get(c) is not None for c in ctx.feature_columns)
            else None
            for row in rows
        ]
        points = [f for f in features if f is not None]
        if not points:
            ctx.emit(EventKind.NO_FEATURE_ROWS, computer.op_id)
            return
        partition_index = computer.params["partition_index"]
        self.kmeans_states[partition_index] = KMeansComputerState(
            partition=np.asarray(points, dtype=float),
            k=ctx.kmeans_k,
            seed=partition_index,
        )
        if ctx.stats_query is not None:
            self.kmeans_rows[partition_index] = rows
        ctx.emit(EventKind.KMEANS_INIT, computer.op_id, points=len(points))

    def schedule_heartbeats(self) -> None:
        """Arm the shared heartbeat cadence over the computation window."""
        ctx = self.ctx
        if ctx.heartbeats <= 0:
            from repro.core.runtime.report import ExecutionError

            raise ExecutionError("kmeans plan without heartbeats")
        window_start = ctx.collect_end
        window_end = ctx.start_time + ctx.deadline * 0.95
        interval = (window_end - window_start) / ctx.heartbeats
        for beat in range(1, ctx.heartbeats + 1):
            at = window_start + beat * interval
            last = beat == ctx.heartbeats
            ctx.simulator.schedule_at(
                at,
                self._make_heartbeat(last),
                f"heartbeat {beat}",
            )

    def _make_heartbeat(self, last: bool):
        ctx = self.ctx

        def fire() -> None:
            ctx.report.heartbeats_run += 1
            beat = ctx.report.heartbeats_run
            ctx.telemetry.tracer.event(
                "heartbeat", at=ctx.simulator.now,
                query_id=ctx.plan.query_id, beat=beat,
            )
            shifts: list[float] = []
            for computer in self.computers:
                partition_index = computer.params["partition_index"]
                state = self.kmeans_states.get(partition_index)
                if state is None:
                    continue
                device = ctx.device_of(computer)
                if not ctx.network.is_online(device.device_id):
                    continue
                previous = state.knowledge
                with ctx.prof_heartbeat:
                    knowledge = state.heartbeat()
                if previous is not None and previous.k == knowledge.k:
                    from repro.ml.metrics import centroid_matching_distance

                    shifts.append(
                        centroid_matching_distance(
                            previous.centroids, knowledge.centroids
                        )
                    )
                payload = {
                    "__aggregate__": True,
                    "partition_index": partition_index,
                    "knowledge": knowledge.to_payload(),
                }
                if last:
                    self.ship_to_combiners(device, MessageKind.KNOWLEDGE, payload)
                else:
                    for peer in self.computers:
                        if peer.op_id == computer.op_id:
                            continue
                        target = ctx.device_of(peer)
                        ctx.ship(
                            device, target, MessageKind.KNOWLEDGE,
                            dict(payload, op_id=peer.op_id), size_hint=512,
                        )
            if shifts:
                ctx.report.convergence_trace.append(
                    (beat, sum(shifts) / len(shifts))
                )
        return fire

    def on_peer_knowledge(self, op_id: str, knowledge: CentroidKnowledge) -> None:
        """Merge a gossiped sibling knowledge into the local state."""
        for computer in self.computers:
            if computer.op_id == op_id:
                state = self.kmeans_states.get(computer.params["partition_index"])
                if state is not None:
                    state.receive(knowledge)
                return

    # -- phase 2b: Group By on the resulting clusters ------------------------

    def on_final_centroids(self, device: Edgelet, payload: dict[str, Any]) -> None:
        """A Computer labels its partition with the final centroids and
        computes the grouped statistics per cluster."""
        ctx = self.ctx
        if ctx.stats_query is None:
            return
        op_id = payload.get("op_id", "")
        computer = next((c for c in self.computers if c.op_id == op_id), None)
        if computer is None:
            return
        partition_index = computer.params["partition_index"]
        rows = self.kmeans_rows.get(partition_index)
        if not rows:
            return
        centroids = np.asarray(payload["final_centroids"], dtype=float)
        labeled = []
        for row in rows:
            features = [row.get(c) for c in ctx.feature_columns]
            if any(value is None for value in features):
                continue
            point = np.asarray(features, dtype=float)
            distances = np.sum((centroids - point) ** 2, axis=1)
            labeled.append(dict(row, cluster=int(np.argmin(distances))))
        partial = fold_partition(ctx.stats_query, labeled)
        latency = device.compute_latency(float(max(len(labeled), 1)))

        def send() -> None:
            if not ctx.network.is_online(device.device_id):
                return
            self.ship_to_combiners(
                device, MessageKind.PARTIAL_RESULT,
                {
                    "__aggregate__": True,
                    "stats": True,
                    "partition_index": partition_index,
                    "group_index": 0,
                    "partial": partial.to_dict(),
                },
            )

        ctx.simulator.schedule(latency, send, f"{op_id} cluster stats")
