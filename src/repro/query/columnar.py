"""The vectorized fold kernel: group-by/aggregate over numpy column blocks.

The row kernel (:func:`repro.query.groupby.evaluate_group_by`) walks
Python dicts one row at a time; :func:`evaluate_group_by_columnar`
computes the same fold over numpy-backed column blocks and is the
cheaper of the two from a few dozen rows up.  Callers never choose:
:func:`repro.query.fold.fold_partition` selects the kernel by partition
size.  The contract is strict *bit-identity* with the row kernel: the
:class:`~repro.query.groupby.PartialGroups` it returns must serialize
to the same bytes, because envelope sizes feed latency draws and the
``report_fingerprint`` discipline hashes result values verbatim.

The design choices below exist to honour that contract:

* A :class:`ColumnBatch` holds **object-dtype** blocks retaining the
  original Python values; float64 views are derived for compute only.
* Per-group sums use ``np.add.at`` — the unbuffered ufunc applies
  updates sequentially in row order, which is bitwise-identical to the
  row kernel's ``total += float(value)`` fold (numpy's pairwise
  ``np.sum``/``reduceat`` is not, and is therefore never used here).
* Comparisons take the float64 fast path only when it is exact (no
  integers beyond 2**53 on either side); otherwise they fall back to
  element-wise Python semantics, matching ``repro.query.expressions``.
* ``-0.0`` and NaN inputs route min/max folding through a sequential
  fallback, because ``np.minimum``/``np.maximum`` resolve sign-of-zero
  ties and NaN propagation differently from the row kernel's
  first-wins ``<`` comparisons.

Scan/filter/project, partition projection and partial merging have no
vectorized form here: each was measured slower than its row form at
every size the system produces (DESIGN.md, "Vectorized execution").

Layering: numpy usage within ``repro.query`` is confined to this
module, and only :mod:`repro.query.fold` imports it (both enforced by
``tools/check_layering.py``).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.query.aggregates import (
    DISTINCT_PRECISION,
    AggregateSpec,
    AggregateState,
)
from repro.query.expressions import (
    COMPARATORS,
    AndExpr,
    ColumnRef,
    CompareExpr,
    Expression,
    InExpr,
    Literal,
    NotExpr,
    OrExpr,
)
from repro.query.groupby import GroupByQuery, PartialGroups, _encode_group_key
# benchmarks/perf/adapter.py (frozen) wraps ``merge_partials_columnar`` by
# module attribute, so the name stays until a benchmark PR drops that target
from repro.query.groupby import merge_partials as merge_partials_columnar
from repro.query.sketches import _hash64

__all__ = [
    "ColumnBatch",
    "predicate_mask",
    "evaluate_group_by_columnar",
    "merge_partials_columnar",
]

Row = dict[str, Any]

#: Largest integer magnitude exactly representable as a float64; the
#: comparison fast path is only exact below it.
_FLOAT_EXACT_INT = 2**53

_NP_COMPARATORS = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def _is_nan(value: Any) -> bool:
    return isinstance(value, float) and value != value


class ColumnBatch:
    """A batch of rows stored column-wise.

    Blocks are object-dtype arrays holding the *original* Python
    values, so :meth:`to_rows` materializes exactly the dicts the row
    engine would carry.  Null masks and float64 numeric views are
    derived lazily and cached per column.
    """

    def __init__(self, columns: Sequence[str], data: dict[str, np.ndarray], length: int):
        self.columns = list(columns)
        self._data = data
        self.length = length
        self._null_masks: dict[str, np.ndarray] = {}
        self._numeric: dict[str, np.ndarray] = {}
        self._compare_safe: dict[str, bool] = {}

    @classmethod
    def from_rows(cls, rows: Sequence[Row], columns: Sequence[str]) -> "ColumnBatch":
        """Build a batch from row dicts (the scan operator).

        ``columns`` fixes the block set and ordering.  Missing values
        become ``None``, matching ``row.get``.
        """
        n = len(rows)
        data = {
            name: np.fromiter(
                (row.get(name) for row in rows), dtype=object, count=n
            )
            for name in columns
        }
        return cls(columns, data, n)

    def to_rows(self) -> list[Row]:
        """Materialize row dicts (what a row-wise predicate fallback reads)."""
        arrays = [self._data[name] for name in self.columns]
        names = self.columns
        return [dict(zip(names, values)) for values in zip(*arrays)] if arrays else [
            {} for _ in range(self.length)
        ]

    def column(self, name: str) -> np.ndarray:
        """The object-dtype block of one column (all-None if absent)."""
        block = self._data.get(name)
        if block is None:
            block = np.full(self.length, None, dtype=object)
            self._data[name] = block
        return block

    def null_mask(self, name: str) -> np.ndarray:
        """Boolean mask, ``True`` where the value is ``None``."""
        mask = self._null_masks.get(name)
        if mask is None:
            block = self.column(name)
            # elementwise == against None in one C loop; cell values are
            # JSON scalars, for which ``x == None`` is True iff x is None
            mask = np.asarray(np.equal(block, None), dtype=bool)
            self._null_masks[name] = mask
        return mask

    def numeric(self, name: str) -> np.ndarray:
        """Float64 view of one column, NaN at nulls.

        Conversion goes through ``float(value)`` element-wise (object
        astype), so it rounds exactly as the row engine's
        ``AggregateState.update`` does — including large integers.
        """
        view = self._numeric.get(name)
        if view is None:
            block = self.column(name)
            valid = ~self.null_mask(name)
            view = np.full(self.length, np.nan, dtype=np.float64)
            if valid.any():
                view[valid] = block[valid].astype(np.float64)
            self._numeric[name] = view
        return view

    def compare_safe(self, name: str) -> bool:
        """Whether float64 comparisons on this column are exact.

        True when every non-null value is a bool/int/float with integer
        magnitudes at most 2**53; beyond that, Python compares
        int-vs-float exactly while float64 rounds, so the fast path
        would diverge from the row engine.
        """
        safe = self._compare_safe.get(name)
        if safe is None:
            block = self._data.get(name)
            values = block.tolist() if block is not None else []
            types = set(map(type, values))
            safe = types <= {type(None), bool, int, float} and (
                int not in types
                or all(
                    -_FLOAT_EXACT_INT <= value <= _FLOAT_EXACT_INT
                    for value in values
                    if type(value) is int
                )
            )
            self._compare_safe[name] = safe
        return safe

    def filter(self, mask: np.ndarray) -> "ColumnBatch":
        """Rows where ``mask`` is True (the vectorized filter)."""
        data = {name: self._data[name][mask] for name in self._data}
        return ColumnBatch(self.columns, data, int(np.count_nonzero(mask)))


# -- vectorized predicates --------------------------------------------------


def _literal_scalar(expr: Expression) -> tuple[bool, Any]:
    if isinstance(expr, Literal):
        return True, expr.value
    return False, None


def _numeric_literal_safe(value: Any) -> bool:
    if isinstance(value, bool):
        return True
    if isinstance(value, int):
        return -_FLOAT_EXACT_INT <= value <= _FLOAT_EXACT_INT
    return isinstance(value, float)


def _rowwise_mask(expr: Expression, batch: ColumnBatch) -> np.ndarray:
    """Fallback: evaluate the expression row by row (exact by definition)."""
    return np.fromiter(
        map(bool, map(expr.evaluator, batch.to_rows())),
        dtype=bool,
        count=batch.length,
    )


def _compare_mask(expr: CompareExpr, batch: ColumnBatch) -> np.ndarray:
    left, right = expr.left, expr.right
    left_lit, left_value = _literal_scalar(left)
    right_lit, right_value = _literal_scalar(right)
    comparator = expr.comparator

    if left_lit and right_lit:
        if left_value is None or right_value is None:
            return np.zeros(batch.length, dtype=bool)
        result = bool(COMPARATORS[comparator](left_value, right_value))
        return np.full(batch.length, result, dtype=bool)

    if isinstance(left, ColumnRef) and right_lit:
        return _column_vs_scalar(batch, left.name, comparator, right_value, False)
    if left_lit and isinstance(right, ColumnRef):
        return _column_vs_scalar(batch, right.name, comparator, left_value, True)
    if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
        return _column_vs_column(batch, left.name, comparator, right.name)
    return _rowwise_mask(expr, batch)


def _column_vs_scalar(
    batch: ColumnBatch,
    name: str,
    comparator: str,
    scalar: Any,
    reversed_operands: bool,
) -> np.ndarray:
    if scalar is None:
        return np.zeros(batch.length, dtype=bool)
    valid = ~batch.null_mask(name)
    if batch.compare_safe(name) and _numeric_literal_safe(scalar):
        view = batch.numeric(name)
        op = _NP_COMPARATORS[comparator]
        with np.errstate(invalid="ignore"):
            mask = (
                op(float(scalar), view) if reversed_operands else op(view, float(scalar))
            )
        return mask & valid
    compare = COMPARATORS[comparator]
    block = batch.column(name)
    out = np.zeros(batch.length, dtype=bool)
    for index in np.flatnonzero(valid):
        value = block[index]
        out[index] = (
            compare(scalar, value) if reversed_operands else compare(value, scalar)
        )
    return out


def _column_vs_column(
    batch: ColumnBatch, left: str, comparator: str, right: str
) -> np.ndarray:
    valid = ~batch.null_mask(left) & ~batch.null_mask(right)
    if batch.compare_safe(left) and batch.compare_safe(right):
        op = _NP_COMPARATORS[comparator]
        with np.errstate(invalid="ignore"):
            mask = op(batch.numeric(left), batch.numeric(right))
        return mask & valid
    compare = COMPARATORS[comparator]
    left_block = batch.column(left)
    right_block = batch.column(right)
    out = np.zeros(batch.length, dtype=bool)
    for index in np.flatnonzero(valid):
        out[index] = compare(left_block[index], right_block[index])
    return out


def _in_mask(expr: InExpr, batch: ColumnBatch) -> np.ndarray:
    if not isinstance(expr.operand, ColumnRef):
        return _rowwise_mask(expr, batch)
    name = expr.operand.name
    choices = expr.choices
    valid = ~batch.null_mask(name)
    numeric_choices = all(_numeric_literal_safe(c) for c in choices) and not any(
        _is_nan(c) for c in choices
    )
    if batch.compare_safe(name) and numeric_choices:
        view = batch.numeric(name)
        targets = np.array([float(c) for c in choices], dtype=np.float64)
        with np.errstate(invalid="ignore"):
            mask = np.isin(view, targets)
        return mask & valid
    block = batch.column(name)
    out = np.zeros(batch.length, dtype=bool)
    for index in np.flatnonzero(valid):
        out[index] = block[index] in choices
    return out


def predicate_mask(expr: Expression, batch: ColumnBatch) -> np.ndarray:
    """Boolean mask of ``expr`` over ``batch``.

    Exactly equal, element for element, to evaluating the expression
    against each materialized row — nulls compare false, ``NOT`` of a
    null comparison is therefore true, and so on.
    """
    if isinstance(expr, AndExpr):
        mask = np.ones(batch.length, dtype=bool)
        for operand in expr.operands:
            mask &= predicate_mask(operand, batch)
        return mask
    if isinstance(expr, OrExpr):
        mask = np.zeros(batch.length, dtype=bool)
        for operand in expr.operands:
            mask |= predicate_mask(operand, batch)
        return mask
    if isinstance(expr, NotExpr):
        return ~predicate_mask(expr.operand, batch)
    if isinstance(expr, CompareExpr):
        return _compare_mask(expr, batch)
    if isinstance(expr, InExpr):
        return _in_mask(expr, batch)
    return _rowwise_mask(expr, batch)


# -- vectorized group-by / aggregation --------------------------------------


def _factorize(block: np.ndarray) -> tuple[np.ndarray, list[Any]]:
    """Integer codes + representative values for one grouping column.

    Values are keyed by ``(type, repr)``: the same discrimination the
    row engine's JSON group-key encoding applies (``5`` ≠ ``5.0`` ≠
    ``True``, and ``-0.0`` ≠ ``0.0``).
    """
    mapping: dict[Any, int] = {}
    uniques: list[Any] = []
    codes: list[int] = []
    append = codes.append
    for value in block.tolist():
        cls = value.__class__
        # str/int/bool/None hash by value with no collisions across
        # types (the cls in the key discriminates True vs 1); floats go
        # through repr so -0.0 != 0.0 and all NaNs collapse, exactly as
        # the row engine's JSON key encoding behaves
        if cls is str or cls is int or cls is bool or value is None:
            key = (cls, value)
        else:
            key = (cls, repr(value))
        code = mapping.get(key)
        if code is None:
            code = len(uniques)
            mapping[key] = code
            uniques.append(value)
        append(code)
    return np.array(codes, dtype=np.int64), uniques


def _group_codes(
    batch: ColumnBatch,
    grouping_set: tuple[str, ...],
    factorized: dict[str, tuple[np.ndarray, list[Any]]],
) -> tuple[np.ndarray, list[str]]:
    """Per-row group codes and the encoded key of each group."""
    if not grouping_set:
        return (
            np.zeros(batch.length, dtype=np.int64),
            [_encode_group_key(())],
        )
    per_column = []
    for name in grouping_set:
        if name not in factorized:
            factorized[name] = _factorize(batch.column(name))
        per_column.append(factorized[name])
    if len(per_column) == 1:
        codes, uniques = per_column[0]
        keys = [_encode_group_key((value,)) for value in uniques]
        return codes, keys
    stacked = np.stack([codes for codes, _ in per_column], axis=1)
    unique_rows, inverse = np.unique(stacked, axis=0, return_inverse=True)
    keys = [
        _encode_group_key(
            tuple(
                per_column[column][1][int(code)]
                for column, code in enumerate(row)
            )
        )
        for row in unique_rows
    ]
    return inverse.astype(np.int64, copy=False), keys


def _sequential_min_max(
    codes: np.ndarray, values: np.ndarray, n_groups: int
) -> tuple[list[float | None], list[float | None]]:
    """Row-order first-wins min/max — the exact row-engine fold.

    Used when the column contains ``-0.0`` or NaN, where the numpy
    reductions resolve ties/propagation differently.
    """
    minima: list[float | None] = [None] * n_groups
    maxima: list[float | None] = [None] * n_groups
    for code, value in zip(codes.tolist(), values.tolist()):
        current_min = minima[code]
        if current_min is None or value < current_min:
            minima[code] = value
        current_max = maxima[code]
        if current_max is None or value > current_max:
            maxima[code] = value
    return minima, maxima


class _SegmentIndex:
    """Stable row order grouped into contiguous per-group runs.

    One sort per grouping set, shared by every aggregate column: it
    turns scattered ``ufunc.at`` updates into per-group C-speed folds
    while preserving row order within each group (stable sort), which
    is what keeps the segment folds bit-identical to the row engine.
    Only built when groups are few relative to rows — the regime where
    the segment walk wins.
    """

    __slots__ = ("order", "starts", "ends", "groups")

    def __init__(self, codes: np.ndarray):
        self.order = np.argsort(codes, kind="stable")
        sorted_codes = codes[self.order]
        cuts = np.flatnonzero(sorted_codes[1:] != sorted_codes[:-1]) + 1
        self.starts = np.concatenate(([0], cuts)).tolist()
        self.ends = np.append(cuts, len(sorted_codes)).tolist()
        self.groups = sorted_codes[self.starts].tolist()

    @classmethod
    def build(cls, codes: np.ndarray, n_groups: int) -> "_SegmentIndex | None":
        if len(codes) == 0 or n_groups > max(64, len(codes) >> 6):
            return None
        return cls(codes)

    def segments(
        self, values: np.ndarray, valid: np.ndarray
    ) -> list[tuple[int, np.ndarray]]:
        """Per-group value runs with nulls dropped, row order kept."""
        sorted_values = values[self.order]
        sorted_valid = valid[self.order]
        out: list[tuple[int, np.ndarray]] = []
        for group, start, end in zip(self.groups, self.starts, self.ends):
            segment = sorted_values[start:end]
            mask = sorted_valid[start:end]
            if not mask.all():
                segment = segment[mask]
                if len(segment) == 0:
                    continue
            out.append((group, segment))
        return out


def _needs_sequential(values: np.ndarray) -> bool:
    with np.errstate(invalid="ignore"):
        if np.isnan(values).any():
            return True
        return bool(np.any((values == 0.0) & np.signbit(values)))


class _AggColumn:
    """Column-block partial states of one aggregate over G groups."""

    __slots__ = (
        "spec", "counts", "totals", "total_sqs", "minima", "maxima",
        "registers", "buckets",
    )

    def __init__(self, spec: AggregateSpec, n_groups: int):
        self.spec = spec
        self.counts = np.zeros(n_groups, dtype=np.int64)
        self.totals = np.zeros(n_groups, dtype=np.float64)
        self.total_sqs = np.zeros(n_groups, dtype=np.float64)
        # minima/maxima as object arrays of float-or-None: the exact
        # tri-state the row engine keeps
        self.minima: list[float | None] = [None] * n_groups
        self.maxima: list[float | None] = [None] * n_groups
        self.registers: np.ndarray | None = (
            np.zeros((n_groups, 1 << DISTINCT_PRECISION), dtype=np.int64)
            if spec.function == "distinct"
            else None
        )
        self.buckets: np.ndarray | None = (
            np.zeros((n_groups, int(spec.params[2])), dtype=np.int64)
            if spec.function == "hist"
            else None
        )

    # -- folding -------------------------------------------------------------

    def fold(
        self,
        batch: ColumnBatch,
        codes: np.ndarray,
        n_groups: int,
        index: "_SegmentIndex | None" = None,
    ) -> None:
        spec = self.spec
        if spec.column is None:
            # count(*): every row counts, nothing else moves
            self.counts += np.bincount(codes, minlength=n_groups)
            return
        valid = ~batch.null_mask(spec.column)
        if not valid.any():
            return
        sel_codes = codes[valid]
        self.counts += np.bincount(sel_codes, minlength=n_groups)
        if spec.function == "distinct":
            self._fold_distinct(batch.column(spec.column)[valid], sel_codes)
            return
        if spec.function == "hist":
            self._fold_hist(batch, valid, sel_codes)
            return
        if index is not None:
            values_all = batch.numeric(spec.column)
            self._fold_numeric_segments(
                index.segments(values_all, valid),
                bool(_needs_sequential(values_all[valid])),
            )
            return
        values = batch.numeric(spec.column)[valid]
        totals = np.zeros(n_groups, dtype=np.float64)
        np.add.at(totals, sel_codes, values)
        self.totals += totals
        squares = np.zeros(n_groups, dtype=np.float64)
        np.add.at(squares, sel_codes, values * values)
        self.total_sqs += squares
        if _needs_sequential(values):
            self.minima, self.maxima = _sequential_min_max(
                sel_codes, values, n_groups
            )
            return
        minima = np.full(n_groups, np.inf)
        np.minimum.at(minima, sel_codes, values)
        maxima = np.full(n_groups, -np.inf)
        np.maximum.at(maxima, sel_codes, values)
        touched = np.bincount(sel_codes, minlength=n_groups) > 0
        for group in np.flatnonzero(touched):
            self.minima[group] = float(minima[group])
            self.maxima[group] = float(maxima[group])

    def _fold_numeric_segments(
        self,
        segments: list[tuple[int, np.ndarray]],
        sequential_min_max: bool,
    ) -> None:
        """Per-group contiguous fold (the few-groups fast path).

        ``np.add.accumulate`` is a strict left-to-right fold, so each
        segment total carries the row engine's exact bit pattern; the
        stable sort behind the segments preserves row order within each
        group.  Min/max over a clean segment is order-free, but -0.0 or
        NaN anywhere routes min/max through the first-wins walk.
        """
        # overflow saturates to ±inf exactly as the row engine's
        # Python-float arithmetic does; keep numpy quiet about it
        with np.errstate(over="ignore", invalid="ignore"):
            for group, segment in segments:
                self.totals[group] += (
                    np.add.accumulate(segment)[-1]
                    if len(segment) > 1
                    else segment[0]
                )
                squares = segment * segment
                self.total_sqs[group] += (
                    np.add.accumulate(squares)[-1]
                    if len(squares) > 1
                    else squares[0]
                )
                if sequential_min_max:
                    for value in segment.tolist():
                        current_min = self.minima[group]
                        if current_min is None or value < current_min:
                            self.minima[group] = value
                        current_max = self.maxima[group]
                        if current_max is None or value > current_max:
                            self.maxima[group] = value
                else:
                    self.minima[group] = float(np.min(segment))
                    self.maxima[group] = float(np.max(segment))

    def _fold_distinct(self, values: np.ndarray, sel_codes: np.ndarray) -> None:
        cache: dict[Any, tuple[int, int]] = {}
        indices: list[int] = []
        ranks: list[int] = []
        index_append = indices.append
        rank_append = ranks.append
        shift = 64 - DISTINCT_PRECISION
        low_mask = (1 << shift) - 1
        for value in values.tolist():
            # same cache-key discrimination as _factorize: exact-typed
            # hashables key by value, floats (and anything else) by repr
            cls = value.__class__
            if cls is str or cls is int or cls is bool or value is None:
                key = (cls, value)
            else:
                key = (cls, repr(value))
            cached = cache.get(key)
            if cached is None:
                hashed = _hash64(value)
                cached = (
                    hashed >> shift,
                    shift - (hashed & low_mask).bit_length() + 1,
                )
                cache[key] = cached
            index_append(cached[0])
            rank_append(cached[1])
        np.maximum.at(
            self.registers,
            (sel_codes, np.array(indices, dtype=np.int64)),
            np.array(ranks, dtype=np.int64),
        )

    def _fold_hist(
        self, batch: ColumnBatch, valid: np.ndarray, sel_codes: np.ndarray
    ) -> None:
        lower, upper, n_buckets = self.spec.params
        n_buckets = int(n_buckets)
        width = (upper - lower) / n_buckets
        values = batch.numeric(self.spec.column)[valid]
        if np.isnan(values).any():
            # int(nan) raises in the row engine; replicate its walk
            block = batch.column(self.spec.column)[valid]
            for code, value in zip(sel_codes.tolist(), block):
                index = int((float(value) - lower) / width)
                index = min(max(index, 0), n_buckets - 1)
                self.buckets[code, index] += 1
            return
        quotients = (values - lower) / width
        # int() truncates toward zero; clip before the cast so huge
        # magnitudes cannot overflow int64
        indices = np.clip(np.trunc(quotients), -1.0, float(n_buckets)).astype(
            np.int64
        )
        indices = np.clip(indices, 0, n_buckets - 1)
        # integer counting is order-free and exact; bincount over the
        # flattened (group, bucket) index beats a scattered add.at
        n_groups = self.buckets.shape[0]
        flat = sel_codes * n_buckets + indices
        self.buckets += np.bincount(
            flat, minlength=n_groups * n_buckets
        ).reshape(n_groups, n_buckets)

    # -- state materialization ----------------------------------------------

    def state(self, group: int) -> AggregateState:
        spec = self.spec
        state = AggregateState(
            count=int(self.counts[group]),
            total=float(self.totals[group]),
            total_sq=float(self.total_sqs[group]),
            minimum=self.minima[group],
            maximum=self.maxima[group],
        )
        if self.registers is not None:
            state.registers = self.registers[group].tolist()
        if self.buckets is not None:
            state.buckets = self.buckets[group].tolist()
        return state


def evaluate_group_by_columnar(
    query: GroupByQuery, rows: Sequence[Row]
) -> PartialGroups:
    """Vectorized twin of :func:`repro.query.groupby.evaluate_group_by`.

    Scans the row dicts into a batch, applies ``query.where``, folds
    every grouping set, and returns a bit-identical
    :class:`PartialGroups` (groups in first-appearance order).
    """
    batch = ColumnBatch.from_rows(rows, query.input_columns())
    if query.where is not None:
        batch = batch.filter(predicate_mask(query.where, batch))
    partial = PartialGroups(
        n_sets=len(query.grouping_sets), n_aggs=len(query.aggregates)
    )
    if batch.length == 0:
        return partial
    factorized: dict[str, tuple[np.ndarray, list[Any]]] = {}
    for set_index, grouping_set in enumerate(query.grouping_sets):
        codes, keys = _group_codes(batch, grouping_set, factorized)
        n_groups = len(keys)
        index = _SegmentIndex.build(codes, n_groups)
        columns = [_AggColumn(spec, n_groups) for spec in query.aggregates]
        for column in columns:
            column.fold(batch, codes, n_groups, index)
        bucket = partial.groups[set_index]
        for group, key in enumerate(keys):
            bucket[key] = [column.state(group) for column in columns]
    return partial

