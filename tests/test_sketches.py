"""Tests for the HyperLogLog sketch."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.sketches import HyperLogLog


class TestHyperLogLog:
    def test_empty_estimate_zero(self):
        assert HyperLogLog().estimate() == pytest.approx(0.0, abs=1.0)

    def test_small_cardinality_near_exact(self):
        sketch = HyperLogLog(precision=10)
        sketch.update(range(50))
        assert sketch.estimate() == pytest.approx(50, abs=5)

    def test_large_cardinality_within_error(self):
        sketch = HyperLogLog(precision=12)
        sketch.update(range(20_000))
        error = abs(sketch.estimate() - 20_000) / 20_000
        assert error < 4 * sketch.relative_error()

    def test_duplicates_cost_nothing(self):
        sketch = HyperLogLog(precision=10)
        for _ in range(10):
            sketch.update(range(100))
        assert sketch.estimate() == pytest.approx(100, rel=0.15)

    def test_merge_is_union(self):
        left = HyperLogLog(precision=10)
        right = HyperLogLog(precision=10)
        left.update(range(0, 500))
        right.update(range(250, 750))  # overlapping
        merged = left.merge(right)
        assert merged.estimate() == pytest.approx(750, rel=0.15)

    def test_merge_precision_mismatch(self):
        with pytest.raises(ValueError):
            HyperLogLog(precision=10).merge(HyperLogLog(precision=11))

    def test_merge_equals_single_sketch(self):
        whole = HyperLogLog(precision=10)
        whole.update(range(1000))
        parts = [HyperLogLog(precision=10) for _ in range(4)]
        for i in range(1000):
            parts[i % 4].add(i)
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merge(part)
        assert merged.registers == whole.registers  # exactly

    def test_serialization_round_trip(self):
        sketch = HyperLogLog(precision=8)
        sketch.update(range(100))
        rebuilt = HyperLogLog.from_dict(sketch.to_dict())
        assert rebuilt.registers == sketch.registers
        assert rebuilt.estimate() == sketch.estimate()

    def test_precision_validation(self):
        with pytest.raises(ValueError):
            HyperLogLog(precision=3)
        with pytest.raises(ValueError):
            HyperLogLog(precision=19)
        with pytest.raises(ValueError):
            HyperLogLog(precision=8, registers=[0] * 10)

    def test_string_values(self):
        sketch = HyperLogLog(precision=10)
        sketch.update(f"patient-{i}" for i in range(300))
        assert sketch.estimate() == pytest.approx(300, rel=0.15)

    @given(st.sets(st.integers(), min_size=1, max_size=400))
    @settings(max_examples=20, deadline=None)
    def test_estimate_scales_with_true_cardinality(self, values):
        sketch = HyperLogLog(precision=12)
        sketch.update(values)
        sketch.update(values)  # idempotent under re-insertion
        assert sketch.estimate() == pytest.approx(len(values), rel=0.25, abs=5)
