"""Computing Combiner runtime and its pure merge/finalize algebra.

:class:`CombinerState` is the side-effect-free algebra one combiner
instance applies — idempotent partial recording, tallying, merge /
extrapolate / stitch at the deadline.  :class:`CombinerRuntime` drives
two of them (the Computing Combiner and its Active Backup, running the
identical logic in parallel) against the network: it records inbound
partials/knowledges and, at the deadline, finalizes and ships results
to the Querier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.overcollection import (
    OvercollectionConfig,
    PartitionTally,
    worst_group_summary,
)
from repro.core.qep import OperatorRole
from repro.core.validity import (
    EXACT_TOLERANCE,
    compare_results,
    coverage_confidence,
    partial_validity_bound,
)
from repro.core.runtime.context import ExecutionContext
from repro.core.runtime.events import EventKind
from repro.core.runtime.report import CombinerRecord, ExecutionError, KMeansOutcome
from repro.devices.edgelet import Edgelet
from repro.ml.distributed_kmeans import CentroidKnowledge, merge_knowledge
from repro.network.messages import MessageKind
from repro.query.groupby import (
    GroupByQuery,
    GroupingSetsResult,
    PartialGroups,
    _encode_group_key,
    finalize_partials,
    merge_partials,
)

if TYPE_CHECKING:
    from repro.core.runtime.computer import ComputerRuntime

__all__ = ["CombinerState", "CombinerRuntime", "stitch_groups", "COMBINER_NAMES"]

COMBINER_NAMES = ("combiner", "combiner-backup")


class CombinerState:
    """Shared merge algebra of the Computing Combiner and its Active Backup."""

    def __init__(
        self,
        name: str,
        config: OvercollectionConfig,
        n_groups: int,
        query: GroupByQuery | None,
    ):
        self.name = name
        self.config = config
        self.n_groups = n_groups
        self.query = query
        self.partials: dict[tuple[int, int], PartialGroups] = {}
        self.knowledges: dict[int, CentroidKnowledge] = {}
        self.group_tallies = [PartitionTally(config) for _ in range(n_groups)]
        # the generation whose partial currently holds each cell
        self.accepted_generations: dict[tuple[int, int], int] = {}

    def record_partial(
        self,
        partition_index: int,
        group_index: int,
        partial: PartialGroups,
        generation: int = 0,
    ) -> str:
        """Accept one aggregate partial result; returns the disposition.

        Acceptance is monotone in the generation token: the first
        partial of a cell is ``"accepted"``, one of a strictly higher
        generation replaces the held one (``"replaced"``: a takeover
        fences out its predecessor), and one of an equal or lower
        generation is ``"rejected"``.
        """
        key = (partition_index, group_index)
        current = self.accepted_generations.get(key)
        if current is not None and generation <= current:
            return "rejected"
        self.partials[key] = partial
        self.accepted_generations[key] = generation
        if current is None:
            self.group_tallies[group_index].record(partition_index)
            return "accepted"
        return "replaced"

    def record_knowledge(self, partition_index: int, knowledge: CentroidKnowledge) -> None:
        """Accept one K-Means knowledge (last write wins per partition)."""
        self.knowledges[partition_index] = knowledge
        self.group_tallies[0].record(partition_index)

    def tally_summary(self) -> dict[str, Any]:
        """Worst-group tally summary (the binding constraint)."""
        return worst_group_summary(self.group_tallies)

    def conclude(self, aggregate_indices_per_group: list[list[int]]) -> CombinerRecord:
        """What a concluded execution keeps of this combiner: the facts
        the checks read and the dedup verdict, judged here.  The live
        state, partials included, stays only if that verdict is a
        breach."""
        fault = self.judge_dedup(aggregate_indices_per_group)
        return CombinerRecord(
            config=self.config,
            n_groups=self.n_groups,
            group_tallies=self.group_tallies,
            accepted_generations=self.accepted_generations,
            dedup_fault=fault,
            state=self if fault is not None else None,
        )

    def judge_dedup(
        self, aggregate_indices_per_group: list[list[int]]
    ) -> tuple[str, dict[str, Any]] | None:
        """Whether recording every held partial twice changes the final
        result — the idempotence Overcollection and Backup both lean on
        when markers are lost and duplicates reach the Combiner.

        Replays the partials, in key order, into a state that records
        each once and one that records each twice.  If the two states
        are equal — the same partial objects under the same keys in the
        same order, the same generations, the same received partitions
        per group — they finalize to the same result, because
        :meth:`finalize_aggregate` reads nothing else beside the query,
        config and indices they share; only states that differ are
        finalized and compared.  Returns ``(detail, data)`` of a breach,
        or ``None``.
        """
        if self.query is None or not self.partials:
            return None
        once = CombinerState(self.name, self.config, self.n_groups, self.query)
        twice = CombinerState(self.name, self.config, self.n_groups, self.query)
        for (partition, group), partial in sorted(self.partials.items()):
            once.record_partial(partition, group, partial)
            twice.record_partial(partition, group, partial)
            twice.record_partial(partition, group, partial)
        if once._same_state(twice):
            return None
        result_once = once.finalize_aggregate(aggregate_indices_per_group)
        result_twice = twice.finalize_aggregate(aggregate_indices_per_group)
        if (result_once is None) != (result_twice is None):
            return f"{self.name}: duplicate recording changed finalizability", {}
        if result_once is None:
            return None
        comparison = compare_results(result_once, result_twice)
        if not comparison.is_valid(EXACT_TOLERANCE):
            return (
                f"{self.name}: duplicate partial recording changed the result",
                {"comparison": comparison.summary()},
            )
        return None

    def _same_state(self, other: "CombinerState") -> bool:
        """Everything :meth:`finalize_aggregate` reads of a state, and
        the accepted generations, are equal in ``other``."""
        return (
            list(self.partials) == list(other.partials)
            and all(
                partial is other.partials[key]
                for key, partial in self.partials.items()
            )
            and self.accepted_generations == other.accepted_generations
            and [t.received for t in self.group_tallies]
            == [t.received for t in other.group_tallies]
        )

    def finalize_aggregate(
        self, aggregate_indices_per_group: list[list[int]]
    ) -> GroupingSetsResult | None:
        """Merge, extrapolate, and assemble the final aggregate rows.

        Each vertical group contributes its own aggregates; rows of the
        same grouping-set key are merged across groups.  Returns
        ``None`` when some group received zero partitions.
        """
        if self.query is None:
            raise ExecutionError("aggregate finalize without a query")
        if any(tally.received_count == 0 for tally in self.group_tallies):
            return None
        per_group_results = [
            self._group_result(g, aggregate_indices_per_group[g])
            for g in range(self.n_groups)
        ]
        return stitch_groups(self.query, per_group_results, aggregate_indices_per_group)

    def _group_result(
        self, group_index: int, indices: list[int]
    ) -> GroupingSetsResult:
        """One vertical group's merged rows, counts extrapolated over
        the partitions it lost."""
        group_query = GroupByQuery(
            grouping_sets=self.query.grouping_sets,
            aggregates=tuple(self.query.aggregates[i] for i in indices),
        )
        merged = merge_partials(
            group_query,
            (
                self.partials[(p, g)]
                for (p, g) in sorted(self.partials)
                if g == group_index
            ),
        )
        result = finalize_partials(group_query, merged)
        tally = self.group_tallies[group_index]
        if tally.lost_count > 0:
            result = result.scaled_counts(tally.scaling_factor())
        return result

    def finalize_partial(
        self, aggregate_indices_per_group: list[list[int]]
    ) -> tuple[GroupingSetsResult | None, dict[str, Any]]:
        """Best-effort finalize over the covered vertical groups only.

        The graceful-degradation path: vertical groups with zero
        received partitions are *omitted* (their aggregate columns are
        simply absent from the rows) rather than failing the whole
        query.  Returns the partial result plus a coverage annotation;
        ``(None, {})`` when nothing at all arrived.
        """
        if self.query is None:
            raise ExecutionError("aggregate finalize without a query")
        covered = [
            g
            for g in range(self.n_groups)
            if self.group_tallies[g].received_count > 0
        ]
        if not covered:
            return None, {}
        covered_indices = [aggregate_indices_per_group[g] for g in covered]
        per_group_results = [
            self._group_result(g, indices)
            for g, indices in zip(covered, covered_indices)
        ]
        # HAVING may reference aggregates of an uncovered group; with
        # partial coverage the predicate is unevaluable and skipped
        result = stitch_groups(
            self.query,
            per_group_results,
            covered_indices,
            apply_having=len(covered) == self.n_groups,
        )
        per_group_received = [t.received_count for t in self.group_tallies]
        coverage = {
            "groups_covered": len(covered),
            "groups_total": self.n_groups,
            "per_group_received": per_group_received,
            "received_fraction": coverage_confidence(
                per_group_received, self.config.total_partitions
            ),
        }
        return result, coverage

    def finalize_kmeans(self) -> KMeansOutcome | None:
        """Merge all received Computer knowledges into final centroids.

        Knowledges whose k differs (Computers on starved partitions cap
        k at their point count) cannot be barycenter-matched; the
        combiner keeps the most common k and drops the rest.
        """
        if not self.knowledges:
            return None
        ordered = [self.knowledges[i] for i in sorted(self.knowledges)]
        k_counts: dict[int, int] = {}
        for knowledge in ordered:
            k_counts[knowledge.k] = k_counts.get(knowledge.k, 0) + 1
        dominant_k = max(k_counts, key=lambda k: (k_counts[k], k))
        ordered = [kn for kn in ordered if kn.k == dominant_k]
        merged = ordered[0]
        if len(ordered) > 1:
            merged = merge_knowledge(ordered[0], ordered[1:])
        return KMeansOutcome(
            centroids=merged.centroids,
            weights=merged.weights,
            knowledges_merged=len(ordered),
        )


def stitch_groups(
    query: GroupByQuery,
    per_group: list[GroupingSetsResult],
    aggregate_indices_per_group: list[list[int]],
    apply_having: bool = True,
) -> GroupingSetsResult:
    """Assemble per-vertical-group results into one result row set."""
    stitched_sets: list[tuple[dict[str, Any], ...]] = []
    for set_index, grouping_set in enumerate(query.grouping_sets):
        merged_rows: dict[str, dict[str, Any]] = {}
        for group_index, result in enumerate(per_group):
            names = [
                query.aggregates[i].output_name
                for i in aggregate_indices_per_group[group_index]
            ]
            for row in result.per_set_rows[set_index]:
                key = _encode_group_key(tuple(row.get(c) for c in grouping_set))
                target = merged_rows.setdefault(
                    key, {c: row.get(c) for c in grouping_set}
                )
                for name in names:
                    target[name] = row.get(name)
        candidates = (merged_rows[key] for key in sorted(merged_rows))
        # HAVING applies here: only now are all of a row's aggregates
        # (possibly spread over vertical groups) present
        ordered = tuple(
            row
            for row in candidates
            if not apply_having
            or query.having is None
            or query.having.evaluate(row)
        )
        stitched_sets.append(ordered)
    return GroupingSetsResult(query, tuple(stitched_sets))


class CombinerRuntime:
    """Drives the Computing Combiner and its Active Backup."""

    role = OperatorRole.COMPUTING_COMBINER

    def __init__(self, ctx: ExecutionContext, computer: "ComputerRuntime"):
        self.ctx = ctx
        self.computer = computer
        self.states: dict[str, CombinerState] = {}
        for name in COMBINER_NAMES:
            self.states[name] = CombinerState(
                name=name,
                config=ctx.config,
                n_groups=len(ctx.column_groups),
                query=ctx.query,
            )
        self.stats_partials: dict[str, dict[int, PartialGroups]] = {
            name: {} for name in COMBINER_NAMES
        }

    # -- recording -----------------------------------------------------------

    def on_partial_result(
        self,
        device: Edgelet,
        payload: dict[str, Any],
        sender: str | None = None,
    ) -> None:
        """Record one inbound partial (aggregate or cluster-stats).

        ``sender`` is the originating device of the message (threaded
        from dispatch); it feeds the ``PARTIAL_ARRIVED`` event that the
        ``no-split-brain`` chaos invariant audits.
        """
        op_id = payload.get("op_id", "")
        state = self.states.get(op_id)
        if state is None:
            return
        partial = PartialGroups.from_dict(payload["partial"])
        if payload.get("stats"):
            self.stats_partials[op_id][payload["partition_index"]] = partial
            return
        generation = int(payload.get("generation", 0))
        disposition = state.record_partial(
            payload["partition_index"],
            payload["group_index"],
            partial,
            generation=generation,
        )
        self.ctx.emit(
            EventKind.PARTIAL_ARRIVED, op_id,
            cell=(payload["partition_index"], payload["group_index"]),
            sender=sender or "?", generation=generation, disposition=disposition,
        )

    def on_knowledge(self, device: Edgelet, payload: dict[str, Any]) -> None:
        """Record one inbound Computer knowledge (kmeans kind)."""
        if self.ctx.network.is_dead(device.device_id):
            return
        knowledge = CentroidKnowledge.from_payload(payload["knowledge"])
        self.states[payload["op_id"]].record_knowledge(
            payload["partition_index"], knowledge
        )
        self.ctx.m_knowledges.inc()

    # -- combination ---------------------------------------------------------

    def finalize(self) -> None:
        """Deadline: both combiners merge and ship the final result."""
        ctx = self.ctx
        for name in COMBINER_NAMES:
            combiner_op = ctx.plan.operator(name)
            device = ctx.device_of(combiner_op)
            if not ctx.network.is_online(device.device_id):
                ctx.emit(EventKind.COMBINER_OFFLINE, name)
                continue
            state = self.states[name]
            # graceful degradation rides with the recovery layer
            degrade = ctx.transport is not None
            if ctx.kind == "aggregate":
                with ctx.prof_combine:
                    result = state.finalize_aggregate(
                        self.computer.aggregate_indices_per_group
                    )
                degradation: dict[str, Any] = {}
                if result is None and degrade:
                    # graceful degradation: quorum unreachable for some
                    # vertical group — emit what arrived, explicitly
                    # labelled with coverage and a validity bound
                    with ctx.prof_combine:
                        result, coverage = state.finalize_partial(
                            self.computer.aggregate_indices_per_group
                        )
                    if result is not None:
                        degradation = {
                            "degraded": True,
                            "coverage": coverage,
                            "validity_bound": partial_validity_bound(
                                coverage["per_group_received"],
                                state.config.total_partitions,
                            ),
                        }
                        ctx.emit(
                            EventKind.DEGRADED, name,
                            covered=coverage["groups_covered"],
                            total=coverage["groups_total"],
                        )
                if result is None:
                    ctx.emit(EventKind.NO_PARTITIONS, name)
                    continue
                payload: dict[str, Any] = {
                    "__aggregate__": True,
                    "combiner": name,
                    "tally": state.tally_summary(),
                    "rows": [list(rows) for rows in result.per_set_rows],
                    **degradation,
                }
            else:
                with ctx.prof_combine:
                    outcome = state.finalize_kmeans()
                if outcome is None:
                    ctx.emit(EventKind.NO_KNOWLEDGES, name)
                    continue
                if ctx.stats_query is not None and name == "combiner":
                    # launch the Group-By-on-clusters round: ship the
                    # final centroids back to every Computer
                    for computer in self.computer.computers:
                        target = ctx.device_of(computer)
                        ctx.ship(
                            device, target, MessageKind.KNOWLEDGE,
                            {
                                "__aggregate__": True,
                                "op_id": computer.op_id,
                                "final_centroids": outcome.centroids.tolist(),
                            },
                            size_hint=512,
                        )
                payload = {
                    "__aggregate__": True,
                    "combiner": name,
                    "tally": state.tally_summary(),
                    "centroids": outcome.centroids.tolist(),
                    "weights": outcome.weights.tolist(),
                    "knowledges_merged": outcome.knowledges_merged,
                }
                summary = state.tally_summary()
                if degrade and not summary["complete"]:
                    # fewer knowledges than the validity condition asks
                    # for: the clustering is still usable but partial —
                    # label it instead of presenting it as complete
                    received = summary["per_group_received"]
                    payload.update(
                        degraded=True,
                        coverage={
                            "groups_covered": sum(1 for r in received if r),
                            "groups_total": len(received),
                            "per_group_received": received,
                            "received_fraction": coverage_confidence(
                                received, state.config.total_partitions
                            ),
                        },
                        validity_bound=partial_validity_bound(
                            received, state.config.total_partitions
                        ),
                    )
            querier_op = ctx.plan.operators(OperatorRole.QUERIER)[0]
            querier_device = ctx.device_of(querier_op)
            ctx.ship(
                device, querier_device, MessageKind.FINAL_RESULT, payload,
                size_hint=1024,
            )
            ctx.emit(EventKind.FINAL_SENT, name)

    def finalize_stats(self) -> None:
        """Combiners merge the per-cluster statistics and ship them."""
        ctx = self.ctx
        if ctx.stats_query is None:
            return
        for name in COMBINER_NAMES:
            device = ctx.device_of(ctx.plan.operator(name))
            if not ctx.network.is_online(device.device_id):
                continue
            partials = self.stats_partials[name]
            if not partials:
                continue
            merged = merge_partials(
                ctx.stats_query,
                (partials[key] for key in sorted(partials)),
            )
            result = finalize_partials(ctx.stats_query, merged)
            querier_device = ctx.device_of(
                ctx.plan.operators(OperatorRole.QUERIER)[0]
            )
            ctx.ship(
                device, querier_device, MessageKind.FINAL_RESULT,
                {
                    "__aggregate__": True,
                    "combiner": name,
                    "stats_rows": [list(rows) for rows in result.per_set_rows],
                },
                size_hint=1024,
            )
            ctx.emit(EventKind.STATS_SENT, name)
