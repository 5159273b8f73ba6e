"""Statistical representativeness checks for partitions.

Overcollection's validity condition (1) — Section 2.2 — requires that
"each of the n+m partitions is representative and has a cardinality
C/n".  Hash partitioning gives representativeness *in expectation*; this
module tests it *in fact*, so a Snapshot Builder (or an auditor) can
flag a partition whose distribution deviates from the snapshot's —
whether by hash misfortune or by a poisoning attempt.

Per column:

* numeric columns — two-sample Kolmogorov-Smirnov test;
* text/bool columns — chi-square test on category frequencies.

A partition is judged representative when no column rejects at the
(Bonferroni-corrected) significance level.

No run path calls :func:`check_representative`, so scipy is imported
inside ``_ks_check`` / ``_chi2_check``: ``import repro`` does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.query.schema import ColumnType, Schema

__all__ = ["ColumnCheck", "RepresentativenessReport", "check_representative"]


@dataclass(frozen=True)
class ColumnCheck:
    """Outcome of one column's distribution test.

    Attributes:
        column: tested column name.
        test: ``"ks"`` or ``"chi2"`` (or ``"skipped"`` for empty data).
        p_value: the test's p-value (1.0 when skipped).
        rejected: whether the null (same distribution) was rejected at
            the corrected level.
    """

    column: str
    test: str
    p_value: float
    rejected: bool


@dataclass(frozen=True)
class RepresentativenessReport:
    """Aggregated verdict over all tested columns."""

    checks: tuple[ColumnCheck, ...]
    alpha: float

    @property
    def representative(self) -> bool:
        """True when no column rejected."""
        return not any(check.rejected for check in self.checks)

    def rejected_columns(self) -> list[str]:
        """Columns whose distribution deviates."""
        return [check.column for check in self.checks if check.rejected]


def _values(rows: list[dict[str, Any]], column: str) -> list[Any]:
    return [row[column] for row in rows if row.get(column) is not None]


def _ks_check(
    column: str, sample: list[float], reference: list[float], level: float
) -> ColumnCheck:
    if len(sample) < 5 or len(reference) < 5:
        return ColumnCheck(column, "skipped", 1.0, False)
    from scipy import stats

    result = stats.ks_2samp(sample, reference)
    return ColumnCheck(column, "ks", float(result.pvalue), bool(result.pvalue < level))


def _chi2_check(
    column: str, sample: list[Any], reference: list[Any], level: float
) -> ColumnCheck:
    if len(sample) < 5 or len(reference) < 5:
        return ColumnCheck(column, "skipped", 1.0, False)
    categories = sorted({*sample, *reference}, key=repr)
    sample_counts = [sum(1 for v in sample if v == c) for c in categories]
    reference_counts = [sum(1 for v in reference if v == c) for c in categories]
    # drop categories empty in both (cannot happen) / tiny expected cells
    table = [
        (s, r) for s, r in zip(sample_counts, reference_counts) if s + r > 0
    ]
    if len(table) < 2:
        return ColumnCheck(column, "skipped", 1.0, False)
    from scipy import stats

    contingency = list(zip(*table))
    result = stats.chi2_contingency(contingency)
    return ColumnCheck(column, "chi2", float(result.pvalue), bool(result.pvalue < level))


def check_representative(
    partition_rows: list[dict[str, Any]],
    reference_rows: list[dict[str, Any]],
    schema: Schema,
    columns: list[str] | None = None,
    alpha: float = 0.01,
) -> RepresentativenessReport:
    """Test whether a partition's distribution matches the reference.

    ``columns`` restricts the test (default: every schema column present
    in the reference).  ``alpha`` is the family-wise significance level;
    each column is tested at ``alpha / n_columns`` (Bonferroni).
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    names = columns if columns is not None else schema.column_names
    names = [name for name in names if schema.has_column(name)]
    if not names:
        raise ValueError("no testable columns")
    level = alpha / len(names)
    checks: list[ColumnCheck] = []
    for name in names:
        ctype = schema.column(name).ctype
        sample = _values(partition_rows, name)
        reference = _values(reference_rows, name)
        if ctype in (ColumnType.INT, ColumnType.FLOAT):
            checks.append(_ks_check(name, sample, reference, level))
        else:
            checks.append(_chi2_check(name, sample, reference, level))
    return RepresentativenessReport(checks=tuple(checks), alpha=alpha)
