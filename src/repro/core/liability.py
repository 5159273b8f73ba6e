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
from typing import Any, Iterable

from repro.core.qep import OperatorRole, QueryExecutionPlan

__all__ = ["LiabilityReport", "gini_coefficient", "measure_liability"]


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
    operators_per_device: dict[str, int] = {}
    for operator in (op for plan in plans for op in plan.operators()):
        if not operator.role.is_data_processor:
            continue
        if operator.assigned_to is None:
            raise ValueError(f"operator {operator.op_id} is not assigned")
        device = operator.assigned_to
        operators_per_device[device] = operators_per_device.get(device, 0) + 1
    total = sum(operators_per_device.values())
    max_share = (
        max(operators_per_device.values()) / total if total else 0.0
    )
    return LiabilityReport(
        operators_per_device=operators_per_device,
        tuples_per_device=dict(tuples_per_device) if tuples_per_device else None,
        gini_operators=gini_coefficient(operators_per_device.values()),
        max_share=max_share,
    )
