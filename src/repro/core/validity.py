"""Validity checking: distributed result vs. centralized oracle.

The Validity property states that "the query result is equivalent to the
one obtained in a centralized context".  For distributive aggregates
this equivalence is exact when no partition is lost; when up to ``m``
partitions are lost the surviving partitions are a representative
sample, so extrapolated counts/sums are unbiased and means converge —
the comparison then reports per-cell relative errors instead of demanding
exact equality.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from repro.query.groupby import GroupingSetsResult

# float slack for "exact" comparisons: partial states merge in a
# different order than one centralized pass, so bit-equality is not the
# meaningful criterion (mirrors ValidityReport.exact_match)
EXACT_TOLERANCE = 1e-9

__all__ = [
    "EXACT_TOLERANCE",
    "ValidityReport",
    "compare_results",
    "coverage_confidence",
    "partial_validity_bound",
]


@dataclass(frozen=True)
class ValidityReport:
    """Comparison outcome between two grouping-sets results.

    Attributes:
        exact_match: every group matches and every aggregate value
            matches up to floating-point round-off (relative error below
            1e-12 — partial states are summed in a different order than
            a single centralized pass, so bit-exactness is not the
            meaningful criterion).
        missing_groups: group keys present centrally, absent distributed.
        extra_groups: group keys present distributed, absent centrally.
        max_relative_error: worst relative error over shared cells.
        mean_relative_error: mean relative error over shared cells.
        compared_cells: number of shared (group, aggregate) cells.
    """

    exact_match: bool
    missing_groups: int
    extra_groups: int
    max_relative_error: float
    mean_relative_error: float
    compared_cells: int

    def is_valid(self, tolerance: float = 0.0) -> bool:
        """Validity with a tolerance: no structural mismatch and every
        shared cell within ``tolerance`` relative error."""
        return (
            self.missing_groups == 0
            and self.extra_groups == 0
            and self.max_relative_error <= tolerance + 1e-12
        )

    def summary(self) -> dict[str, Any]:
        """Stats line for experiment tables."""
        return {
            "exact_match": self.exact_match,
            "missing_groups": self.missing_groups,
            "extra_groups": self.extra_groups,
            "max_relative_error": self.max_relative_error,
            "mean_relative_error": self.mean_relative_error,
        }


def _index_rows(result: GroupingSetsResult) -> list[dict[str, dict[str, Any]]]:
    """For each grouping set, map canonical group key -> aggregate values."""
    indexed: list[dict[str, dict[str, Any]]] = []
    aggregate_names = {spec.output_name for spec in result.query.aggregates}
    for grouping_set, rows in zip(result.query.grouping_sets, result.per_set_rows):
        per_set: dict[str, dict[str, Any]] = {}
        for row in rows:
            key = json.dumps(
                [row.get(column) for column in grouping_set],
                separators=(",", ":"),
            )
            per_set[key] = {
                name: value for name, value in row.items() if name in aggregate_names
            }
        indexed.append(per_set)
    return indexed


def _relative_error(expected: Any, actual: Any) -> float:
    """Relative error between two aggregate values (NULL-aware).

    Histogram outputs are lists of bucket counts; their error is the
    total-variation-style relative deviation (sum of absolute bucket
    differences over the expected total).  NaN matches NaN (error 0);
    any other mismatch involving NaN or an infinity has error ``inf``.
    So no error is ever NaN: a NaN would make ``max`` over the cells
    depend on their order.
    """
    if expected is None and actual is None:
        return 0.0
    if expected is None or actual is None:
        return math.inf
    if isinstance(expected, list) or isinstance(actual, list):
        if not isinstance(expected, list) or not isinstance(actual, list):
            return math.inf
        if len(expected) != len(actual):
            return math.inf
        expected_total = sum(abs(float(v)) for v in expected)
        deviation = sum(
            abs(float(a) - float(e)) for a, e in zip(actual, expected)
        )
        if expected_total == 0.0:
            return 0.0 if deviation == 0.0 else math.inf
        return deviation / expected_total
    expected_f = float(expected)
    actual_f = float(actual)
    if expected_f == actual_f:
        return 0.0
    if not (math.isfinite(expected_f) and math.isfinite(actual_f)):
        # an infinite expected value would divide inf by inf
        return 0.0 if math.isnan(expected_f) and math.isnan(actual_f) else math.inf
    denominator = max(abs(expected_f), 1e-12)
    return abs(actual_f - expected_f) / denominator


def coverage_confidence(per_group_received: list[int], total_partitions: int) -> float:
    """Fraction of the planned partition mass that actually arrived.

    The per-vertical-group received counts are averaged over the planned
    ``n + m`` partitions; 1.0 means full coverage, 0.0 means nothing
    arrived anywhere.
    """
    if total_partitions <= 0 or not per_group_received:
        return 0.0
    mean_received = sum(per_group_received) / len(per_group_received)
    return min(1.0, mean_received / total_partitions)


def partial_validity_bound(
    per_group_received: list[int], total_partitions: int
) -> float:
    """Worst-case relative-error bound for a degraded (partial) result.

    Partitions are representative hash samples, so extrapolating a
    group's counts/sums by ``(n + m) / r`` is unbiased; the residual
    error is driven by cross-partition heterogeneity, which is bounded
    (in the relative sense used by :func:`compare_results`) by the lost
    partition mass over the received mass: ``(t - r) / r`` for the
    worst-covered group, where ``t = n + m``.  A group with zero
    received partitions makes the bound infinite — its aggregates are
    simply absent from the degraded rows, which is why degraded results
    carry this bound *and* the coverage annotation rather than either
    alone.
    """
    covered = [r for r in per_group_received if r > 0]
    if not covered or total_partitions <= 0:
        return math.inf
    worst = min(covered)
    return (total_partitions - worst) / worst


def compare_results(
    centralized: GroupingSetsResult,
    distributed: GroupingSetsResult,
    ignore_missing_cells: bool = False,
) -> ValidityReport:
    """Compare a distributed result against the centralized oracle.

    Both results must come from the same logical query (same grouping
    sets and aggregates), otherwise ``ValueError``.

    With ``ignore_missing_cells`` (the degraded-result mode) groups and
    aggregate cells that the distributed side never produced — because a
    whole vertical group's Computers were unreachable — are excluded
    from the structural counts and the error statistics instead of
    scoring as infinite error; the cells that *were* produced are still
    held to the same relative-error accounting.
    """
    if centralized.query.grouping_sets != distributed.query.grouping_sets:
        raise ValueError("results come from different grouping sets")
    central_names = [s.output_name for s in centralized.query.aggregates]
    distributed_names = [s.output_name for s in distributed.query.aggregates]
    if central_names != distributed_names:
        raise ValueError("results come from different aggregate lists")

    central_index = _index_rows(centralized)
    distributed_index = _index_rows(distributed)
    missing = 0
    extra = 0
    errors: list[float] = []
    for per_set_central, per_set_distributed in zip(central_index, distributed_index):
        central_keys = set(per_set_central)
        distributed_keys = set(per_set_distributed)
        if not ignore_missing_cells:
            missing += len(central_keys - distributed_keys)
        extra += len(distributed_keys - central_keys)
        for key in central_keys & distributed_keys:
            for name in central_names:
                if ignore_missing_cells and name not in per_set_distributed[key]:
                    continue
                errors.append(
                    _relative_error(
                        per_set_central[key].get(name),
                        per_set_distributed[key].get(name),
                    )
                )
    max_error = max(errors, default=0.0)
    mean_error = sum(errors) / len(errors) if errors else 0.0
    exact = missing == 0 and extra == 0 and max_error <= 1e-12
    return ValidityReport(
        exact_match=exact,
        missing_groups=missing,
        extra_groups=extra,
        max_relative_error=max_error,
        mean_relative_error=mean_error,
        compared_cells=len(errors),
    )
