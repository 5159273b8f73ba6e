"""Tests for HyperLogLog and Bloom filter sketches."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.sketches import BloomFilter, HyperLogLog, _hash64


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


class TestBloomFilter:
    def test_inserted_values_found(self):
        bloom = BloomFilter(capacity=100)
        for i in range(100):
            bloom.add(f"item-{i}")
        assert all(f"item-{i}" in bloom for i in range(100))

    def test_false_positive_rate_bounded(self):
        bloom = BloomFilter(capacity=1000, error_rate=0.01)
        for i in range(1000):
            bloom.add(f"in-{i}")
        false_positives = sum(1 for i in range(10_000) if f"out-{i}" in bloom)
        assert false_positives / 10_000 < 0.05

    def test_add_if_new(self):
        bloom = BloomFilter(capacity=10)
        assert bloom.add_if_new("x") is True
        assert bloom.add_if_new("x") is False

    def test_fill_ratio_grows(self):
        bloom = BloomFilter(capacity=100)
        empty_ratio = bloom.fill_ratio()
        for i in range(100):
            bloom.add(i)
        assert bloom.fill_ratio() > empty_ratio
        assert bloom.fill_ratio() <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(capacity=0)
        with pytest.raises(ValueError):
            BloomFilter(capacity=10, error_rate=1.0)

    def test_inserted_counter(self):
        bloom = BloomFilter(capacity=10)
        bloom.add("a")
        bloom.add("b")
        assert bloom.inserted == 2

    @given(st.sets(st.text(max_size=10), min_size=1, max_size=50))
    @settings(max_examples=25, deadline=None)
    def test_no_false_negatives_property(self, values):
        bloom = BloomFilter(capacity=100, error_rate=0.01)
        for value in values:
            bloom.add(value)
        assert all(value in bloom for value in values)

    @given(
        st.lists(
            st.one_of(st.text(max_size=4), st.integers(-40, 40)), max_size=120
        ),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_add_if_new_is_in_then_add(self, values, capacity):
        # small capacities saturate the filter, so false positives (a new
        # value reported as seen) are exercised too
        fused = BloomFilter(capacity=capacity, error_rate=0.05)
        reference = BloomFilter(capacity=capacity, error_rate=0.05)
        for value in values:
            new = value not in reference
            if new:
                reference.add(value)
            assert fused.add_if_new(value) is new
            assert fused.inserted == reference.inserted
        assert fused._bits == reference._bits

    @given(st.lists(st.text(max_size=8), max_size=20), st.integers(1, 500))
    @settings(max_examples=50, deadline=None)
    def test_positions_are_the_double_hashing_formula(self, values, capacity):
        bloom = BloomFilter(capacity=capacity, error_rate=0.01)
        for value in values:
            h1 = _hash64(value, salt="bloom-1")
            h2 = _hash64(value, salt="bloom-2") | 1
            assert bloom._positions(value) == [
                (h1 + i * h2) % bloom.n_bits for i in range(bloom.n_hashes)
            ]
