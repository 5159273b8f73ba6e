"""Overcollection strategy configuration and validity accounting.

The Overcollection principle (Section 2.2, Figure 3): instead of
executing a distributive operator on single edgelets, distribute it over
``n + m`` edgelets, each processing one hash partition of the dataset,
where ``n`` is the minimum number of partitions to collect and ``m`` the
overcollection margin.  Validity holds as long as (1) each partition is
representative with cardinality ``C / n`` and (2) at most ``m``
partitions are lost.

:class:`OvercollectionConfig` carries the parameters; the tally class
tracks which partitions actually arrived and decides completion,
scaling, and validity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

__all__ = ["OvercollectionConfig", "PartitionTally", "worst_group_summary"]


@dataclass(frozen=True)
class OvercollectionConfig:
    """Parameters of one overcollected operator.

    Attributes:
        n: minimum number of partitions that must be collected.
        m: overcollection degree (extra partitions).
        snapshot_cardinality: the target snapshot size ``C``; each
            partition holds ``C / n`` tuples.
    """

    n: int
    m: int
    snapshot_cardinality: int

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("n must be positive")
        if self.m < 0:
            raise ValueError("m must be non-negative")
        if self.snapshot_cardinality <= 0:
            raise ValueError("snapshot_cardinality must be positive")

    @property
    def total_partitions(self) -> int:
        """``n + m``."""
        return self.n + self.m

    @property
    def partition_cardinality(self) -> int:
        """Tuples per partition, ``ceil(C / n)``."""
        return math.ceil(self.snapshot_cardinality / self.n)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation (stored in plan metadata)."""
        return {
            "n": self.n,
            "m": self.m,
            "snapshot_cardinality": self.snapshot_cardinality,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "OvercollectionConfig":
        """Inverse of :meth:`to_dict`."""
        return cls(
            n=data["n"], m=data["m"], snapshot_cardinality=data["snapshot_cardinality"]
        )


@dataclass
class PartitionTally:
    """Tracks partition arrivals at a Combiner (or Active Backup).

    Attributes:
        config: the overcollection parameters.
        received: indices of partitions whose partial results arrived.
    """

    config: OvercollectionConfig
    received: set[int] = field(default_factory=set)

    def record(self, partition_index: int) -> None:
        """Mark a partition's partial result as received (idempotent)."""
        if not 0 <= partition_index < self.config.total_partitions:
            raise ValueError(
                f"partition index {partition_index} outside "
                f"[0, {self.config.total_partitions})"
            )
        self.received.add(partition_index)

    @property
    def received_count(self) -> int:
        """Distinct partitions received so far."""
        return len(self.received)

    @property
    def lost_count(self) -> int:
        """Partitions still missing."""
        return self.config.total_partitions - self.received_count

    def is_complete(self) -> bool:
        """Whether the minimum ``n`` partitions have arrived."""
        return self.received_count >= self.config.n

    def is_valid(self) -> bool:
        """Validity condition (2): at most ``m`` partitions lost."""
        return self.lost_count <= self.config.m

    def scaling_factor(self) -> float:
        """Extrapolation factor for count/sum aggregates.

        Partitions are representative hash samples, so when only
        ``r <= n + m`` arrived, multiplying counts by ``(n + m) / r``
        yields unbiased totals over the full snapshot.
        """
        if self.received_count == 0:
            raise ValueError("cannot scale with zero received partitions")
        return self.config.total_partitions / self.received_count

    def summary(self) -> dict[str, Any]:
        """Stats line for traces and experiment tables."""
        return {
            "n": self.config.n,
            "m": self.config.m,
            "received": self.received_count,
            "lost": self.lost_count,
            "complete": self.is_complete(),
            "valid": self.is_valid(),
        }


def worst_group_summary(tallies: Sequence[PartitionTally]) -> dict[str, Any]:
    """The summary of the group that received fewest partitions (the
    binding constraint), plus every group's received count."""
    summaries = [tally.summary() for tally in tallies]
    worst = min(summaries, key=lambda s: s["received"])
    worst["per_group_received"] = [s["received"] for s in summaries]
    return worst
