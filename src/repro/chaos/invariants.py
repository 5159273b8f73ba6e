"""Property invariants checked after every chaos run.

The paper claims three properties for Edgelet query processing —
Resiliency, Validity, and Crowd Liability — and the execution machinery
implicitly relies on two more mechanical ones (Combiner partial
recording is dedup-idempotent; a backup chain never produces two
takeovers at the same rank).  This module turns each claim into an
executable check over a concluded :class:`~repro.manager.scenario.
ScenarioResult` — its report, plan and
:class:`~repro.core.runtime.ExecutionEvidence`, the same on every path —
so a campaign can assert them after every seeded run.

The checks are deliberately *one-sided*: they only flag states the
strategies promise can never happen, never mere degradation the fault
load legitimately explains.  A lossy run that misses groups is graceful
degradation; a fault-free run that fails, or a corrupted value past the
approximation bound, is a violation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.core.runtime.events import EventKind, of_kind
from repro.core.validity import compare_results
from repro.network.opnet import LOSS_COUNTERS

__all__ = [
    "Violation",
    "RunRecord",
    "no_fault_observed",
    "check_resiliency",
    "check_validity",
    "check_crowd_liability",
    "check_combiner_dedup",
    "check_no_double_takeover",
    "check_no_split_brain",
    "check_all",
    "INVARIANTS",
]

# float slack for "exact" comparisons: partial states merge in a
# different order than one centralized pass, so bit-equality is not the
# meaningful criterion (mirrors ValidityReport.exact_match)
EXACT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Violation:
    """One invariant breach found in one run."""

    invariant: str
    detail: str
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"invariant": self.invariant, "detail": self.detail, "data": self.data}


@dataclass
class RunRecord:
    """Everything the invariant checks need to know about one run.

    Attributes:
        result: the concluded, judged scenario result: report, plan,
            evidence, exposure, liability and the failure/fault logs
            (:meth:`~repro.manager.scenario.ScenarioResult.judged`).
        reference: the fault-free centralized result of the same logical
            query over the full dataset, or ``None`` for non-aggregate
            runs.
        clean: whether the run experienced *no* failure or fault of any
            kind (no crash/disconnect events, no injected message
            faults, no network loss of any category) — clean runs must
            succeed exactly.
        validity_tolerance: max relative error tolerated on shared
            cells for non-clean runs (the plan's approximation bound).
        liability_max_share: cap on a single device's share of the
            data-processor operators.
    """

    result: Any
    reference: Any = None
    clean: bool = False
    validity_tolerance: float = 0.75
    liability_max_share: float = 0.5

    @property
    def report(self) -> Any:
        """The run's sealed execution report."""
        return self.result.report

    @property
    def evidence(self) -> Any:
        """The run's :class:`~repro.core.runtime.ExecutionEvidence`
        (``None`` when the run never concluded an execution)."""
        return self.result.evidence


def no_fault_observed(
    failure_events: list[Any], fault_injector: Any, network_stats: dict[str, Any]
) -> bool:
    """The post hoc half of every driver's *clean* verdict: no failure
    event fired, no message fault was decided, no loss counter moved."""
    return (
        not failure_events
        and not (fault_injector is not None and fault_injector.decisions)
        and not any(network_stats.get(key, 0) for key in LOSS_COUNTERS)
    )


def _network_losses(report: Any) -> dict[str, float]:
    stats = report.network_stats or {}
    return {
        key: stats.get(key, 0)
        for key in (
            "lost",
            "dropped_timeout",
            "no_route",
            "to_dead_device",
            "departed",
            "fault_dropped",
            "fault_corrupted",
            "partitioned",
            "gray_lost",
        )
    }


def check_resiliency(record: RunRecord) -> Violation | None:
    """The query completes, or fails only for causes the fault load
    explains (Resiliency: "the query is executed to completion despite
    failures" — up to the plan's tolerance).

    Two violation modes:

    * a **clean** run did not succeed — nothing failed, so nothing may
      be degraded;
    * a crash-only run failed although the damage stayed within the
      plan's tolerance: the querier is alive, some combiner device is
      alive and heard at least one partial for every vertical group,
      and no message-level loss mechanism was active.
    """
    result = record.result
    report = record.report
    if report.success and report.result is not None:
        return None
    if report.success and report.result is None and report.kmeans is None:
        return Violation(
            "resiliency",
            "querier acknowledged a final result but the report carries none",
        )
    if record.clean:
        return Violation(
            "resiliency",
            "fault-free run did not complete",
            {"network": _network_losses(report)},
        )

    evidence = record.evidence
    events = result.failure_events or []
    kinds = {event.kind for event in events}
    message_level_active = (
        any(_network_losses(report).values())
        or result.fault_injector is not None
        and bool(result.fault_injector.decisions)
        or "disconnect" in kinds
    )
    if message_level_active or evidence is None:
        return None  # loss/offline windows legitimately explain failure

    from repro.core.qep import OperatorRole

    network = evidence.network
    querier_ops = result.plan.operators(OperatorRole.QUERIER)
    querier_device = querier_ops[0].assigned_to if querier_ops else None
    if querier_device is None or network.is_dead(querier_device):
        return None
    for name, state in evidence.combiners.items():
        combiner_op = result.plan.operator(name)
        if combiner_op.assigned_to is None:
            continue
        if not network.is_online(combiner_op.assigned_to):
            continue
        tallies = state.group_tallies
        if tallies and all(t.received_count > 0 for t in tallies):
            worst = min(tallies, key=lambda t: t.received_count)
            if worst.lost_count <= worst.config.m:
                return Violation(
                    "resiliency",
                    f"damage within tolerance (lost {worst.lost_count} <= "
                    f"m={worst.config.m} at live {name}) but the query failed",
                    {"combiner": name, "tally": state.tally_summary()},
                )
    return None


def check_validity(record: RunRecord) -> Violation | None:
    """The delivered result matches the centralized oracle (Validity).

    Clean runs must match exactly (up to float merge-order round-off).
    Faulty runs are held to the plan's approximation bound on the cells
    both results share; groups entirely lost to failures are graceful
    degradation, not invalidity — but a surviving cell further from the
    oracle than ``validity_tolerance`` means a wrong answer was
    delivered as if it were right.
    """
    report = record.report
    if not report.success or report.result is None or record.reference is None:
        return None
    tally = getattr(report, "tally", None)
    if not record.clean and tally and not tally.get("valid", True):
        # the combiner extrapolated past its own validity condition
        # (lost > m) and the tally labels the result invalid: it was
        # *not* delivered "as if it were right", so bounding its error
        # is the consumer's job, not a violation
        return None
    # a degraded report explicitly labels the cells it could not cover;
    # hold it to the bound only on the cells it did deliver
    comparison = compare_results(
        record.reference,
        report.result,
        ignore_missing_cells=bool(getattr(report, "degraded", False)),
    )
    if record.clean:
        if not comparison.is_valid(EXACT_TOLERANCE):
            return Violation(
                "validity",
                "fault-free result differs from the centralized oracle",
                {"comparison": comparison.summary()},
            )
        return None
    if comparison.max_relative_error > record.validity_tolerance:
        return Violation(
            "validity",
            f"shared-cell relative error {comparison.max_relative_error:.4g} "
            f"exceeds the approximation bound {record.validity_tolerance}",
            {"comparison": comparison.summary()},
        )
    return None


def check_crowd_liability(record: RunRecord) -> Violation | None:
    """No single device concentrates the processing (Crowd Liability).

    Two sub-checks: the assignment keeps every device's operator share
    under ``liability_max_share``, and no device *handled* more raw
    tuples than the plan's exposure bound allows for the operators it
    hosted (``max_raw_tuples_per_edgelet`` per raw-handling operator) —
    the final assignment's, plus each one a reprovisioning moved off it.
    """
    result = record.result
    liability = result.liability
    exposure = result.exposure
    if liability is None or exposure is None:
        return None
    if not liability.is_crowd_liable(record.liability_max_share):
        return Violation(
            "crowd_liability",
            f"one device carries {liability.max_share:.2%} of the operators "
            f"(cap {record.liability_max_share:.2%})",
            {"liability": liability.summary()},
        )
    cap_per_op = exposure.max_raw_tuples_per_edgelet
    displaced = Counter(old for _t, _op, old, _new in record.report.reprovisions)
    for device, tuples in (record.report.tuples_per_device or {}).items():
        ops = liability.operators_per_device.get(device, 0) + displaced[device]
        allowed = cap_per_op * max(ops, 0)
        if tuples > allowed:
            return Violation(
                "crowd_liability",
                f"device {device} handled {tuples} raw tuples, above its "
                f"exposure cap {allowed} ({ops} ops x {cap_per_op})",
                {"device": device, "tuples": tuples, "cap": allowed},
            )
    return None


def check_combiner_dedup(record: RunRecord) -> Violation | None:
    """Recording every received partial twice must not change the final
    result — the idempotence Overcollection and Backup both lean on
    when markers are lost and duplicates reach the Combiner.
    """
    evidence = record.evidence
    if evidence is None or evidence.kind != "aggregate" or evidence.query is None:
        return None
    from repro.core.runtime import CombinerState

    indices = evidence.aggregate_indices_per_group
    for name, state in evidence.combiners.items():
        if not state.partials:
            continue
        once = CombinerState(name, state.config, state.n_groups, evidence.query)
        twice = CombinerState(name, state.config, state.n_groups, evidence.query)
        for (partition, group), partial in sorted(state.partials.items()):
            once.record_partial(partition, group, partial)
            twice.record_partial(partition, group, partial)
            twice.record_partial(partition, group, partial)
        result_once = once.finalize_aggregate(indices)
        result_twice = twice.finalize_aggregate(indices)
        if (result_once is None) != (result_twice is None):
            return Violation(
                "combiner_dedup",
                f"{name}: duplicate recording changed finalizability",
            )
        if result_once is None:
            continue
        comparison = compare_results(result_once, result_twice)
        if not comparison.is_valid(EXACT_TOLERANCE):
            return Violation(
                "combiner_dedup",
                f"{name}: duplicate partial recording changed the result",
                {"comparison": comparison.summary()},
            )
    return None


def check_no_double_takeover(record: RunRecord) -> Violation | None:
    """A backup chain fires at most one takeover per (base, rank) — a
    duplicate means the same replica executed twice."""
    evidence = record.evidence
    if evidence is None:
        return None
    log = [
        (event.time, event.fields["base"], event.fields["rank"])
        for event in of_kind(evidence.events, EventKind.TAKEOVER)
    ]
    seen: set[tuple[str, int]] = set()
    for _time, base, rank in log:
        if (base, rank) in seen:
            return Violation(
                "no_double_takeover",
                f"replica rank {rank} of {base} took over twice",
                {"takeover_log": [list(entry) for entry in log]},
            )
        seen.add((base, rank))
    return None


def check_no_split_brain(record: RunRecord) -> Violation | None:
    """No cell is ever owned by two devices at the same generation with
    both owners' partials reaching a combiner (split-brain-safe
    takeover).

    Evidence comes from the execution's events: a ``PARTIAL_SENT``
    per partial-send fire (cell, device, generation) and a
    ``PARTIAL_ARRIVED`` per combiner-side arrival (cell, sender,
    generation, acceptance disposition).  Two violation modes:

    * two *distinct* devices fired the same cell at the *same*
      generation and both their partials arrived at one combiner — the
      combiner's pick is then arrival-order-dependent, which is exactly
      the ambiguity generation fencing exists to remove;
    * a combiner retained a *stale* generation: the generation it
      finally holds for a cell is lower than the highest generation
      that arrived there — monotone acceptance broke.

    Duplicates from a single device (retransmission, dual-combiner
    fan-out) and backup replicas firing at distinct ranks/generations
    are legitimate and never flagged.
    """
    evidence = record.evidence
    if evidence is None:
        return None
    fired = of_kind(evidence.events, EventKind.PARTIAL_SENT)
    if not fired:
        return None
    firers: dict[tuple[Any, int], set[str]] = {}
    for event in fired:
        fields = event.fields
        firers.setdefault((fields["cell"], fields["generation"]), set()).add(
            fields["device"]
        )
    arrivals: dict[tuple[str, Any], dict[int, set[str]]] = {}
    for event in of_kind(evidence.events, EventKind.PARTIAL_ARRIVED):
        fields = event.fields
        arrivals.setdefault((event.op, fields["cell"]), {}).setdefault(
            fields["generation"], set()
        ).add(fields["sender"])

    for (op_id, cell), by_generation in sorted(arrivals.items()):
        for generation, senders in sorted(by_generation.items()):
            fired = firers.get((cell, generation), set())
            if len(senders) >= 2 and len(fired) >= 2:
                return Violation(
                    "no_split_brain",
                    f"cell {cell} owned by {sorted(senders)} at the same "
                    f"generation {generation}; both partials reached "
                    f"{op_id}",
                    {
                        "cell": list(cell),
                        "generation": generation,
                        "senders": sorted(senders),
                        "combiner": op_id,
                    },
                )

    for name, state in evidence.combiners.items():
        accepted = state.accepted_generations
        for (op_id, cell), by_generation in arrivals.items():
            if op_id != name:
                continue
            held = accepted.get(cell)
            highest = max(by_generation)
            if held is not None and held < highest:
                return Violation(
                    "no_split_brain",
                    f"{name} holds cell {cell} at stale generation "
                    f"{held} although generation {highest} arrived",
                    {
                        "cell": list(cell),
                        "held": held,
                        "highest_arrived": highest,
                        "combiner": name,
                    },
                )
    return None


INVARIANTS = {
    "resiliency": check_resiliency,
    "validity": check_validity,
    "crowd_liability": check_crowd_liability,
    "combiner_dedup": check_combiner_dedup,
    "no_double_takeover": check_no_double_takeover,
    "no_split_brain": check_no_split_brain,
}


def check_all(record: RunRecord) -> list[Violation]:
    """Run every invariant; returns the violations found (often [])."""
    violations = []
    for check in INVARIANTS.values():
        violation = check(record)
        if violation is not None:
            violations.append(violation)
    return violations
