"""The fold entry point: one partition in, one :class:`PartialGroups` out.

Two kernels compute the same fold, bit for bit: the row walk
(:func:`repro.query.groupby.evaluate_group_by`) and the vectorized
column-block fold (:func:`repro.query.columnar.evaluate_group_by_columnar`).
The row walk has no fixed cost and pays the interpreter per row per
aggregate; the vectorized fold pays a few hundred µs per call to build
and factorize its blocks, then about a tenth of the row walk's per-row
cost.  The privacy planner caps what a Data Processor may hold, so many
partitions are small — :func:`fold_partition` picks the kernel from the
partition's size and nothing else.

This is the only module that imports :mod:`repro.query.columnar`
(enforced by ``tools/check_layering.py``).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.query.columnar import evaluate_group_by_columnar
from repro.query.groupby import GroupByQuery, PartialGroups, evaluate_group_by

__all__ = ["VECTOR_FOLD_MIN_ROWS", "fold_partition"]

#: Partition size at and above which the vectorized kernel is the
#: cheaper one.  Measured, not tuned by hand: ``benchmarks/bench_columnar.py``
#: times both kernels over 4 … 4,096 rows for the demo and heavy query
#: shapes and fails if this constant drifts more than 2x from the
#: crossover it finds.
VECTOR_FOLD_MIN_ROWS = 64


def fold_partition(
    query: GroupByQuery, rows: Sequence[dict[str, Any]]
) -> PartialGroups:
    """Filter ``rows`` by ``query.where`` and fold them into partial states."""
    if len(rows) >= VECTOR_FOLD_MIN_ROWS:
        return evaluate_group_by_columnar(query, rows)
    return evaluate_group_by(query, rows)
