"""Distributive aggregates with mergeable partial states.

The Overcollection strategy (Section 2.2 of the paper) only applies to
*distributive* processing: each Computer aggregates its partition into a
small partial state, and the Computing Combiner merges the states it
receives.  Losing up to ``m`` of ``n + m`` partitions leaves a valid
result over a representative sample.

The states here are algebraic in the classical sense — COUNT, SUM, MIN,
MAX are distributive; AVG, VAR, STD are algebraic (constant-size partial
state: sum / sum of squares / count).  All states round-trip through
JSON so they can travel inside sealed envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable

__all__ = [
    "AggregateSpec",
    "AggregateState",
    "SUPPORTED_FUNCTIONS",
    "fold_value",
    "make_state",
    "merge_states",
    "new_state",
    "finalize_state",
]

#: ``distinct`` is approximate COUNT DISTINCT via HyperLogLog registers —
#: the only way to make distinct-counting distributive (duplicates across
#: partitions must cost nothing under Overcollection).  ``hist`` builds a
#: fixed-range equi-width histogram (bucket-wise sums merge exactly) —
#: the distributive route to quantiles, which read off its counts.
SUPPORTED_FUNCTIONS = (
    "count", "sum", "min", "max", "avg", "var", "std", "distinct", "hist",
)

#: HyperLogLog precision used by ``distinct`` states (2**8 registers ≈
#: 6.5% standard error — constant, envelope-friendly state size).
DISTINCT_PRECISION = 8


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in a query's SELECT list.

    Attributes:
        function: one of :data:`SUPPORTED_FUNCTIONS`.
        column: the aggregated column, or ``None`` for ``count(*)``.
        alias: output column name (defaults to ``function_column``).
        params: function parameters — for ``hist``, the required
            ``(lower, upper, n_buckets)`` of the fixed bucket grid
            (values outside the range clamp into the edge buckets).
    """

    function: str
    column: str | None = None
    alias: str | None = None
    params: tuple = ()

    def __post_init__(self) -> None:
        if self.function not in SUPPORTED_FUNCTIONS:
            raise ValueError(
                f"unsupported aggregate {self.function!r}; "
                f"supported: {', '.join(SUPPORTED_FUNCTIONS)}"
            )
        if self.function != "count" and self.column is None:
            raise ValueError(f"{self.function} requires a column")
        if self.function == "hist":
            if len(self.params) != 3:
                raise ValueError("hist requires params (lower, upper, n_buckets)")
            lower, upper, n_buckets = self.params
            if not lower < upper:
                raise ValueError("hist requires lower < upper")
            if int(n_buckets) <= 0 or int(n_buckets) != n_buckets:
                raise ValueError("hist requires a positive integer bucket count")
        elif self.params:
            raise ValueError(f"{self.function} takes no parameters")

    @property
    def output_name(self) -> str:
        """Name of this aggregate in result rows."""
        if self.alias:
            return self.alias
        if self.column is None:
            return "count"
        return f"{self.function}_{self.column}"

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation."""
        return {
            "function": self.function,
            "column": self.column,
            "alias": self.alias,
            "params": list(self.params),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AggregateSpec":
        """Inverse of :meth:`to_dict`."""
        return cls(
            data["function"],
            data.get("column"),
            data.get("alias"),
            tuple(data.get("params", ())),
        )


@dataclass(slots=True)
class AggregateState:
    """Constant-size mergeable partial state.

    The same state shape serves every supported function:
    ``(count, total, total_sq, minimum, maximum)`` plus optional
    HyperLogLog ``registers`` for ``distinct``; finalization picks the
    pieces each function needs.  NULL inputs are skipped, matching SQL
    semantics (except ``count(*)`` which counts every row).  Slotted:
    a run holds one per group and aggregate in every partial in flight
    and in every combiner state a concluded unit keeps.
    """

    count: int = 0
    total: float = 0.0
    total_sq: float = 0.0
    minimum: float | None = None
    maximum: float | None = None
    registers: list[int] | None = None
    buckets: list[int] | None = None

    def update(self, value: Any, count_star: bool = False) -> None:
        """Fold one numeric input value into the state."""
        if count_star:
            self.count += 1
            return
        if value is None:
            return
        number = float(value)
        self.count += 1
        self.total += number
        self.total_sq += number * number
        if self.minimum is None or number < self.minimum:
            self.minimum = number
        if self.maximum is None or number > self.maximum:
            self.maximum = number

    def update_distinct(self, value: Any) -> None:
        """Fold one value into the HyperLogLog registers (in place)."""
        from repro.query.sketches import _hash64

        if value is None:
            return
        if self.registers is None:
            self.registers = [0] * (1 << DISTINCT_PRECISION)
        hashed = _hash64(value)
        index = hashed >> (64 - DISTINCT_PRECISION)
        remaining = hashed & ((1 << (64 - DISTINCT_PRECISION)) - 1)
        rank = (64 - DISTINCT_PRECISION) - remaining.bit_length() + 1
        if self.registers[index] < rank:
            self.registers[index] = rank
        self.count += 1

    def update_hist(self, value: Any, params: tuple) -> None:
        """Fold one value into the fixed-grid histogram buckets."""
        if value is None:
            return
        lower, upper, n_buckets = params
        n_buckets = int(n_buckets)
        if self.buckets is None:
            self.buckets = [0] * n_buckets
        width = (upper - lower) / n_buckets
        index = int((float(value) - lower) / width)
        index = min(max(index, 0), n_buckets - 1)  # clamp out-of-range
        self.buckets[index] += 1
        self.count += 1

    def copy(self) -> "AggregateState":
        """A shallow copy: the scalars are the copy's own, ``registers``
        and ``buckets`` stay shared with this state."""
        return AggregateState(
            self.count,
            self.total,
            self.total_sq,
            self.minimum,
            self.maximum,
            self.registers,
            self.buckets,
        )

    def merge(self, other: "AggregateState") -> "AggregateState":
        """Combine two partial states (associative, commutative)."""
        merged = AggregateState(
            count=self.count + other.count,
            total=self.total + other.total,
            total_sq=self.total_sq + other.total_sq,
        )
        # what min / max over the non-None pair return: the first of
        # equal (or unordered, NaN) values
        low, high = self.minimum, self.maximum
        if low is None or (other.minimum is not None and other.minimum < low):
            low = other.minimum
        if high is None or (other.maximum is not None and other.maximum > high):
            high = other.maximum
        merged.minimum = low
        merged.maximum = high
        if self.registers is not None or other.registers is not None:
            left = self.registers or [0] * (1 << DISTINCT_PRECISION)
            right = other.registers or [0] * (1 << DISTINCT_PRECISION)
            merged.registers = [max(a, b) for a, b in zip(left, right)]
        if self.buckets is not None or other.buckets is not None:
            size = len(self.buckets or other.buckets)
            left_buckets = self.buckets or [0] * size
            right_buckets = other.buckets or [0] * size
            if len(left_buckets) != len(right_buckets):
                raise ValueError("cannot merge histograms with different grids")
            merged.buckets = [a + b for a, b in zip(left_buckets, right_buckets)]
        return merged

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation."""
        return {
            "count": self.count,
            "total": self.total,
            "total_sq": self.total_sq,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "registers": self.registers,
            "buckets": self.buckets,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AggregateState":
        """Inverse of :meth:`to_dict`."""
        return cls(
            count=data["count"],
            total=data["total"],
            total_sq=data["total_sq"],
            minimum=data["minimum"],
            maximum=data["maximum"],
            registers=data.get("registers"),
            buckets=data.get("buckets"),
        )


def new_state(spec: AggregateSpec) -> AggregateState:
    """Create the empty partial state appropriate for ``spec``."""
    if spec.function == "distinct":
        return AggregateState(registers=[0] * (1 << DISTINCT_PRECISION))
    if spec.function == "hist":
        return AggregateState(buckets=[0] * int(spec.params[2]))
    return AggregateState()


def fold_value(spec: AggregateSpec, state: AggregateState, row: dict[str, Any]) -> None:
    """Fold one row into ``state`` according to ``spec``."""
    if spec.column is None:
        state.update(None, count_star=True)
    elif spec.function == "distinct":
        state.update_distinct(row.get(spec.column))
    elif spec.function == "hist":
        state.update_hist(row.get(spec.column), spec.params)
    else:
        state.update(row.get(spec.column))


def make_state(spec: AggregateSpec, rows: Iterable[dict[str, Any]]) -> AggregateState:
    """Build the partial state of ``spec`` over an iterable of rows."""
    state = new_state(spec)
    for row in rows:
        fold_value(spec, state, row)
    return state


def merge_states(states: Iterable[AggregateState]) -> AggregateState:
    """Merge any number of partial states (empty input → empty state)."""
    merged = AggregateState()
    for state in states:
        merged = merged.merge(state)
    return merged


def finalize_state(spec: AggregateSpec, state: AggregateState) -> Any:
    """Produce the final aggregate value from a (merged) state.

    Empty-input semantics follow SQL: ``count`` is 0, everything else is
    ``None``.
    """
    if spec.function == "count":
        return state.count
    if spec.function == "distinct":
        from repro.query.sketches import HyperLogLog

        if state.count == 0 or state.registers is None:
            return 0
        return round(HyperLogLog(DISTINCT_PRECISION, state.registers).estimate())
    if spec.function == "hist":
        if state.buckets is None:
            return [0] * int(spec.params[2])
        return list(state.buckets)
    if state.count == 0:
        return None
    if spec.function == "sum":
        return state.total
    if spec.function == "min":
        return state.minimum
    if spec.function == "max":
        return state.maximum
    if spec.function == "avg":
        return state.total / state.count
    # population variance / standard deviation
    mean = state.total / state.count
    variance = max(state.total_sq / state.count - mean * mean, 0.0)
    if spec.function == "var":
        return variance
    return math.sqrt(variance)
