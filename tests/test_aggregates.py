"""Tests for distributive aggregates — the algebraic core of
Overcollection.  The key property: merging partial states over any
partitioning of the rows gives the same final value as one pass."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.aggregates import (
    AggregateSpec,
    AggregateState,
    finalize_state,
    make_state,
    merge_states,
)


class TestAggregateSpec:
    def test_unsupported_function_rejected(self):
        with pytest.raises(ValueError):
            AggregateSpec("median", "age")

    def test_non_count_requires_column(self):
        with pytest.raises(ValueError):
            AggregateSpec("sum")

    def test_output_names(self):
        assert AggregateSpec("count").output_name == "count"
        assert AggregateSpec("avg", "age").output_name == "avg_age"
        assert AggregateSpec("avg", "age", alias="mean").output_name == "mean"

    def test_serialization_round_trip(self):
        spec = AggregateSpec("sum", "bmi", alias="total")
        assert AggregateSpec.from_dict(spec.to_dict()) == spec


class TestSingleState:
    def test_count_star_counts_nulls(self):
        spec = AggregateSpec("count")
        state = make_state(spec, [{"age": 1}, {"age": None}, {}])
        assert finalize_state(spec, state) == 3

    def test_column_aggregates_skip_nulls(self):
        spec = AggregateSpec("avg", "age")
        state = make_state(spec, [{"age": 10}, {"age": None}, {"age": 20}])
        assert finalize_state(spec, state) == pytest.approx(15.0)

    def test_sum_min_max(self):
        rows = [{"v": 3}, {"v": -1}, {"v": 7}]
        assert finalize_state(AggregateSpec("sum", "v"), make_state(AggregateSpec("sum", "v"), rows)) == 9
        assert finalize_state(AggregateSpec("min", "v"), make_state(AggregateSpec("min", "v"), rows)) == -1
        assert finalize_state(AggregateSpec("max", "v"), make_state(AggregateSpec("max", "v"), rows)) == 7

    def test_var_std(self):
        rows = [{"v": 2}, {"v": 4}, {"v": 4}, {"v": 4}, {"v": 5}, {"v": 5}, {"v": 7}, {"v": 9}]
        var_spec = AggregateSpec("var", "v")
        std_spec = AggregateSpec("std", "v")
        assert finalize_state(var_spec, make_state(var_spec, rows)) == pytest.approx(4.0)
        assert finalize_state(std_spec, make_state(std_spec, rows)) == pytest.approx(2.0)

    def test_empty_input_sql_semantics(self):
        assert finalize_state(AggregateSpec("count"), AggregateState()) == 0
        for fn in ("sum", "min", "max", "avg", "var", "std"):
            assert finalize_state(AggregateSpec(fn, "v"), AggregateState()) is None


class TestMerging:
    def test_merge_two_states(self):
        spec = AggregateSpec("avg", "v")
        left = make_state(spec, [{"v": 10}, {"v": 20}])
        right = make_state(spec, [{"v": 30}])
        merged = left.merge(right)
        assert finalize_state(spec, merged) == pytest.approx(20.0)

    def test_merge_with_empty_is_identity(self):
        spec = AggregateSpec("sum", "v")
        state = make_state(spec, [{"v": 5}])
        merged = merge_states([state, AggregateState()])
        assert finalize_state(spec, merged) == 5

    def test_merge_preserves_min_max_through_nulls(self):
        spec = AggregateSpec("min", "v")
        left = make_state(spec, [{"v": None}])
        right = make_state(spec, [{"v": 3}])
        assert finalize_state(spec, merge_states([left, right])) == 3

    def test_copy_owns_its_scalars_and_shares_its_sketches(self):
        state = make_state(AggregateSpec("distinct", "v"), [{"v": 1}])
        state.update(4.0)
        copy = state.copy()
        assert copy == state and copy is not state
        assert copy.registers is state.registers
        copy.update(9.0)
        assert (state.count, state.total, state.maximum) == (2, 4.0, 4.0)
        assert (copy.count, copy.total, copy.maximum) == (3, 13.0, 9.0)

    def test_state_is_slotted(self):
        assert not hasattr(AggregateState(), "__dict__")

    def test_serialization_round_trip(self):
        spec = AggregateSpec("var", "v")
        state = make_state(spec, [{"v": 1.5}, {"v": 2.5}])
        rebuilt = AggregateState.from_dict(state.to_dict())
        assert finalize_state(spec, rebuilt) == finalize_state(spec, state)


values_strategy = st.lists(
    st.one_of(
        st.none(),
        st.integers(min_value=-1000, max_value=1000),
        st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    ),
    max_size=60,
)


@st.composite
def rows_and_split(draw):
    values = draw(values_strategy)
    rows = [{"v": value} for value in values]
    n_parts = draw(st.integers(min_value=1, max_value=5))
    assignment = [draw(st.integers(min_value=0, max_value=n_parts - 1)) for _ in rows]
    parts = [[] for _ in range(n_parts)]
    for row, part in zip(rows, assignment):
        parts[part].append(row)
    return rows, parts


class TestDistributivityProperty:
    """merge(partials over any split) == single pass over all rows."""

    @given(data=rows_and_split())
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_single_pass(self, data):
        rows, parts = data
        for function in ("count", "sum", "min", "max", "avg", "var", "std"):
            spec = AggregateSpec(function, None if function == "count" else "v")
            whole = finalize_state(spec, make_state(spec, rows))
            merged = finalize_state(
                spec, merge_states(make_state(spec, part) for part in parts)
            )
            if whole is None:
                assert merged is None
            else:
                assert merged == pytest.approx(whole, rel=1e-9, abs=1e-7)

    @given(data=rows_and_split())
    @settings(max_examples=30, deadline=None)
    def test_merge_commutative(self, data):
        _, parts = data
        spec = AggregateSpec("avg", "v")
        states = [make_state(spec, part) for part in parts]
        forward = finalize_state(spec, merge_states(states))
        backward = finalize_state(spec, merge_states(reversed(states)))
        if forward is None:
            assert backward is None
        else:
            assert backward == pytest.approx(forward, rel=1e-9, abs=1e-9)
