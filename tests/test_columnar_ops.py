"""Operator-level equivalence of the vectorized fold kernel vs the row kernel.

Hypothesis drives both kernels with adversarial inputs — nulls, mixed
types, signed zeros, NaN, integers past 2**53, huge float magnitudes,
empty batches — and asserts *serialized* equality: the JSON encoding
of a partial state is what rides a sealed envelope, so two states are
interchangeable only if their JSON bytes match (float bit patterns
included).

The boundary block drives :func:`repro.query.fold.fold_partition` — the
one kernel-selection site — one row either side of its threshold.
"""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.query.aggregates import AggregateSpec
from repro.query import fold
from repro.query.columnar import (
    ColumnBatch,
    evaluate_group_by_columnar,
    predicate_mask,
)
from repro.query.fold import VECTOR_FOLD_MIN_ROWS, fold_partition
from repro.query.groupby import (
    GroupByQuery,
    PartialGroups,
    evaluate_group_by,
    merge_partials,
)

from tests.differential.strategies import (
    COLUMNS,
    equality_predicates,
    group_by_queries,
    numeric_scalars,
    predicates,
    rows,
)

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


#: Group-key hazards for the row kernel's key memo, pinned as examples:
#: equal values that must still land in different groups.
_KEY_QUERY = GroupByQuery(
    (("a",), ("a", "b"), ()),
    (AggregateSpec("count", alias="agg_0"), AggregateSpec("sum", "b", alias="agg_1")),
)


def _dumps(partial: PartialGroups) -> str:
    """The envelope serialization — byte equality is the contract."""
    return json.dumps(partial.to_dict(), sort_keys=True, separators=(",", ":"))


class TestPredicateEquivalence:
    @PROPERTY_SETTINGS
    @given(data=rows(cells=numeric_scalars), expr=predicates())
    def test_mask_matches_row_evaluate(self, data, expr):
        batch = ColumnBatch.from_rows(data, sorted(set(COLUMNS) | expr.columns()))
        mask = predicate_mask(expr, batch)
        assert mask.tolist() == [bool(expr.evaluate(row)) for row in data]

    @PROPERTY_SETTINGS
    @given(data=rows(), expr=equality_predicates())
    def test_mask_matches_on_mixed_types(self, data, expr):
        batch = ColumnBatch.from_rows(data, sorted(set(COLUMNS) | expr.columns()))
        mask = predicate_mask(expr, batch)
        assert mask.tolist() == [bool(expr.evaluate(row)) for row in data]


class TestGroupByEquivalence:
    @PROPERTY_SETTINGS
    @given(data=rows(cells=numeric_scalars), query=group_by_queries())
    @example(data=[{"a": 0.0}, {"a": -0.0}, {"a": 0.0}], query=_KEY_QUERY)
    @example(
        data=[{"a": 1, "b": 2}, {"a": True, "b": 2}, {"a": 1.0, "b": 2}, {"a": 1}],
        query=_KEY_QUERY,
    )
    @example(
        data=[{"a": math.nan, "b": 1}, {"a": math.nan, "b": 1}, {"a": None}],
        query=_KEY_QUERY,
    )
    def test_partial_states_serialize_identically(self, data, query):
        row_partial = evaluate_group_by(query, data)
        columnar_partial = evaluate_group_by_columnar(query, data)
        assert _dumps(columnar_partial) == _dumps(row_partial)

    @PROPERTY_SETTINGS
    @given(
        data=rows(cells=numeric_scalars), query=group_by_queries(with_where=True)
    )
    def test_where_clause_agrees(self, data, query):
        assert _dumps(evaluate_group_by_columnar(query, data)) == _dumps(
            evaluate_group_by(query, data)
        )

    @PROPERTY_SETTINGS
    @given(data=rows(min_size=0, max_size=0), query=group_by_queries())
    def test_empty_batch_edge(self, data, query):
        assert _dumps(evaluate_group_by_columnar(query, data)) == _dumps(
            evaluate_group_by(query, data)
        )

    @PROPERTY_SETTINGS
    @given(data=rows())
    def test_distinct_over_arbitrary_values(self, data):
        query = GroupByQuery.single(
            ["a"],
            [AggregateSpec("count"), AggregateSpec("distinct", "b", alias="d")],
        )
        assert _dumps(evaluate_group_by_columnar(query, data)) == _dumps(
            evaluate_group_by(query, data)
        )

    def test_signed_zero_and_nan_min_max(self):
        """±0.0 ties keep the first-seen zero; NaN sticks only when it
        arrives first — first-wins fold semantics, not IEEE min/max."""
        nan = float("nan")
        cases = [
            [0.0, -0.0],
            [-0.0, 0.0],
            [1.0, nan, 2.0],
            [nan, 1.0],
            [-0.0, nan, 0.0],
        ]
        query = GroupByQuery.single(
            [], [AggregateSpec("min", "x"), AggregateSpec("max", "x")]
        )
        for values in cases:
            data = [{"x": v} for v in values]
            assert _dumps(evaluate_group_by_columnar(query, data)) == _dumps(
                evaluate_group_by(query, data)
            ), f"min/max diverge on {values!r}"


class TestSummationOrder:
    """Satellite: the row engine's left-to-right fold is the pinned
    reduction order.  ``np.sum`` is pairwise and would diverge at
    adversarial magnitudes; the columnar fold must not."""

    def test_adversarial_magnitudes_keep_row_order_bits(self):
        rng = random.Random(17)
        values = []
        for _ in range(400):
            values.append(rng.choice([1e16, 1.0, -1e16, 1e-8, 0.1, -1.0]))
        sequential = 0.0
        for value in values:
            sequential += value
        query = GroupByQuery.single([], [AggregateSpec("sum", "x")])
        data = [{"x": v} for v in values]
        row_state = evaluate_group_by(query, data).groups[0]["[]"][0]
        col_state = evaluate_group_by_columnar(query, data).groups[0]["[]"][0]
        # all three folds agree bit for bit — and differ from pairwise
        assert row_state.total == sequential
        assert math.copysign(1.0, col_state.total) == math.copysign(
            1.0, sequential
        )
        assert col_state.total == sequential
        assert _dumps(evaluate_group_by_columnar(query, data)) == _dumps(
            evaluate_group_by(query, data)
        )


class TestMergeAcrossKernels:
    """A combiner merges whatever partials arrive; which kernel folded
    them must not show in the merged bytes."""

    QUERY = GroupByQuery(
        (("a",), ()),
        (
            AggregateSpec("count"),
            AggregateSpec("sum", "b", alias="s"),
            AggregateSpec("min", "b", alias="lo"),
            AggregateSpec("max", "b", alias="hi"),
            AggregateSpec("var", "b", alias="v"),
            AggregateSpec("distinct", "c", alias="d"),
            AggregateSpec("hist", "b", alias="h", params=(-50.0, 50.0, 4)),
        ),
    )

    def _partials(self, seed: int, kernel) -> list[PartialGroups]:
        rng = random.Random(seed)
        partials = []
        for _ in range(rng.randint(1, 5)):
            data = [
                {
                    "a": rng.choice(("x", "y", None)),
                    "b": None if rng.random() < 0.15 else rng.uniform(-80, 80),
                    "c": rng.choice("pqrst"),
                }
                for _ in range(rng.randint(0, 30))
            ]
            partials.append(kernel(self.QUERY, data))
        return partials

    @pytest.mark.parametrize("seed", range(10))
    def test_vector_folded_partials_merge_like_row_folded(self, seed):
        row_merge = merge_partials(
            self.QUERY, self._partials(seed, evaluate_group_by)
        )
        vector_merge = merge_partials(
            self.QUERY, self._partials(seed, evaluate_group_by_columnar)
        )
        assert _dumps(vector_merge) == _dumps(row_merge)


class TestKernelSelectionBoundary:
    """``fold_partition`` one row below, at, and one row above the
    threshold: the kernel changes, the bytes do not."""

    SIZES = (
        VECTOR_FOLD_MIN_ROWS - 1,
        VECTOR_FOLD_MIN_ROWS,
        VECTOR_FOLD_MIN_ROWS + 1,
    )

    @PROPERTY_SETTINGS
    @given(
        data=rows(
            cells=numeric_scalars,
            min_size=VECTOR_FOLD_MIN_ROWS + 1,
            max_size=VECTOR_FOLD_MIN_ROWS + 1,
        ),
        query=group_by_queries(with_where=True),
    )
    def test_partial_bytes_equal_across_the_threshold(self, data, query):
        for size in self.SIZES:
            partition = data[:size]
            assert _dumps(fold_partition(query, partition)) == _dumps(
                evaluate_group_by(query, partition)
            )

    def test_selection_is_by_partition_size_alone(self, monkeypatch):
        used = []
        monkeypatch.setattr(
            fold, "evaluate_group_by", lambda q, r: used.append("row")
        )
        monkeypatch.setattr(
            fold, "evaluate_group_by_columnar", lambda q, r: used.append("vector")
        )
        query = GroupByQuery.single([], [AggregateSpec("count")])
        for size in self.SIZES:
            fold_partition(query, [{"x": 1}] * size)
        assert used == ["row", "vector", "vector"]
