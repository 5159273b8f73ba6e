"""Crowd liability accounting.

Edgelet computing shifts liability from a single data controller to the
crowd of participants: "the liability of the processing is equally
distributed among all query participants".  This module quantifies that
distribution for a plan/execution: how much processing (operators run,
raw tuples handled) each participant carried, and how even the spread is
(Gini coefficient, max share).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.core.qep import QueryExecutionPlan

__all__ = [
    "LiabilityReport",
    "count_operators",
    "gini_coefficient",
    "liability_report",
    "measure_liability",
    "processor_assignment",
]


def gini_coefficient(values: Iterable[float]) -> float:
    """Gini coefficient of a non-negative distribution.

    0.0 means perfectly even (ideal crowd liability), values toward 1.0
    mean one participant concentrates the processing.  Empty or all-zero
    input yields 0.0.
    """
    data = sorted(float(v) for v in values)
    if any(v < 0 for v in data):
        raise ValueError("liability shares must be non-negative")
    n = len(data)
    total = sum(data)
    if n == 0 or total == 0.0:
        return 0.0
    cumulative_rank_sum = sum((i + 1) * value for i, value in enumerate(data))
    return (2.0 * cumulative_rank_sum) / (n * total) - (n + 1) / n


@dataclass(frozen=True)
class LiabilityReport:
    """Distribution of processing liability over participants.

    Attributes:
        operators_per_device: data-processor operators run per device.
        tuples_per_device: raw tuples handled per device (``None`` when
            no execution-level tally was provided).
        gini_operators: Gini coefficient of the operator distribution.
        max_share: largest single-device fraction of total operators.
    """

    operators_per_device: dict[str, int]
    tuples_per_device: dict[str, int] | None
    gini_operators: float
    max_share: float

    def is_crowd_liable(self, max_allowed_share: float = 0.2) -> bool:
        """Whether no participant exceeds ``max_allowed_share``."""
        if not 0 < max_allowed_share <= 1:
            raise ValueError("max_allowed_share must be in (0, 1]")
        return self.max_share <= max_allowed_share

    def summary(self) -> dict[str, Any]:
        """Stats line for experiment tables."""
        return {
            "participants": len(self.operators_per_device),
            "gini_operators": self.gini_operators,
            "max_share": self.max_share,
        }


def processor_assignment(plan: QueryExecutionPlan) -> dict[str, str | None]:
    """Every data-processor operator of ``plan`` (builders, computers,
    both combiners), by op id, mapped to the device it is assigned to
    (``None`` while unassigned), in plan order."""
    return {
        operator.op_id: operator.assigned_to
        for operator in plan.operators()
        if operator.role.is_data_processor
    }


def count_operators(
    assignment: Mapping[str, str | None], counts: dict[str, int]
) -> dict[str, int]:
    """Add one operator per entry of ``assignment`` (a
    :func:`processor_assignment`) to the per-device ``counts``, in
    place, and return ``counts``.  An unassigned operator raises
    ``ValueError``."""
    for op_id, device in assignment.items():
        if device is None:
            raise ValueError(f"operator {op_id} is not assigned")
        counts[device] = counts.get(device, 0) + 1
    return counts


def liability_report(
    operators_per_device: Mapping[str, int],
    tuples_per_device: dict[str, int] | None = None,
) -> LiabilityReport:
    """The distribution of per-device operator counts — one plan's, or
    a set of queries' summed — as a :class:`LiabilityReport` (the
    counts are copied)."""
    total = sum(operators_per_device.values())
    max_share = (
        max(operators_per_device.values()) / total if total else 0.0
    )
    return LiabilityReport(
        operators_per_device=dict(operators_per_device),
        tuples_per_device=dict(tuples_per_device) if tuples_per_device else None,
        gini_operators=gini_coefficient(operators_per_device.values()),
        max_share=max_share,
    )


def measure_liability(
    *plans: QueryExecutionPlan,
    tuples_per_device: dict[str, int] | None = None,
) -> LiabilityReport:
    """Measure how evenly a plan — or, cumulatively, a set of queries'
    plans — spreads processing over devices.

    Every plan must already be assigned (``assigned_to`` set on every
    data-processor operator); unassigned plans raise ``ValueError``.
    No plan at all is the empty, perfectly even distribution.
    """
    counts: dict[str, int] = {}
    for plan in plans:
        count_operators(processor_assignment(plan), counts)
    return liability_report(counts, tuples_per_device)
