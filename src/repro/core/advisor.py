"""Strategy advisor: which resiliency strategy fits which query.

The companion paper [14] gives a taxonomy of the two strategies; the
demo paper summarizes it: *"the Overcollection strategy is best adapted
to any use case where performance matters and approximate results are
acceptable (e.g., statistics, machine learning processes)"* and *"the
Overcollection strategy only applies if the processing is distributive;
otherwise, the Backup strategy can be used at the price of a higher
complexity and lower performance."*

:func:`recommend_strategy` encodes that decision procedure and returns
an explained recommendation, including the quantitative trade-off the
Q-GEN bench measures (extra devices vs. extra latency).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.resiliency import minimum_overcollection, worst_case_delay

__all__ = [
    "NO_GOSSIP_HISTORY",
    "QueryProperties",
    "StrategyRecommendation",
    "properties_for",
    "recommend_strategy",
]


#: Why Backup cannot cover heartbeat-cadenced (iterative) operators.
NO_GOSSIP_HISTORY = (
    "a promoted passive replica has no gossip history to resume from"
)


@dataclass(frozen=True)
class QueryProperties:
    """The facets of a query that drive the strategy choice.

    Attributes:
        distributive: whether the processing decomposes into mergeable
            partial states (aggregates, grouped aggregates, sketches).
        iterative: whether the algorithm exchanges partial results over
            several rounds (K-Means and friends).
        exact_result_required: ``True`` when the consumer cannot accept
            an approximate/extrapolated result.
    """

    distributive: bool
    iterative: bool = False
    exact_result_required: bool = False


@dataclass(frozen=True)
class StrategyRecommendation:
    """An explained strategy choice.

    Attributes:
        strategy: ``"overcollection"`` or ``"backup"``.
        heartbeat_execution: whether the iterative heartbeat method of
            Section 2.2 applies on top of the chosen strategy.
        reasons: human-readable justification, one clause per line.
        extra_devices: devices the strategy spends beyond the minimum
            (m partitions, or replica count per processor).
        worst_extra_latency: worst-case added latency in virtual
            seconds (0 for Overcollection; sequential takeovers for
            Backup).
    """

    strategy: str
    heartbeat_execution: bool
    reasons: tuple[str, ...]
    extra_devices: int
    worst_extra_latency: float


def properties_for(kind: str) -> QueryProperties:
    """The :class:`QueryProperties` of a built-in query kind.

    Both executable kinds are distributive (grouped aggregates merge
    partial states; K-Means merges weighted centroid sets), and K-Means
    is the iterative one — the facts the compile pipeline feeds the
    advisor so its verdict and the runtime's capabilities agree.
    """
    if kind == "kmeans":
        return QueryProperties(distributive=True, iterative=True)
    if kind == "aggregate":
        return QueryProperties(distributive=True)
    raise ValueError(f"unknown query kind {kind!r}")


def recommend_strategy(
    properties: QueryProperties,
    n: int,
    fault_rate: float,
    target_success: float = 0.99,
    replicas: int = 1,
) -> StrategyRecommendation:
    """Pick the resiliency strategy for a query.

    ``n`` is the horizontal partitioning degree and ``fault_rate`` the
    presumed per-partition fault probability; both are needed to
    quantify the cost of each branch.  ``replicas`` is the Backup
    chain a Backup verdict would spend, priced by
    :func:`~repro.core.resiliency.worst_case_delay`.

    Iterative processing is checked first: the Backup strategy cannot
    cover heartbeat-cadenced operators (:data:`NO_GOSSIP_HISTORY`), so
    for iterative queries Overcollection with heartbeat execution is
    the only runnable answer — matching what the compile pipeline
    accepts.
    """
    reasons: list[str] = []

    if properties.iterative:
        m = minimum_overcollection(n, fault_rate, target_success)
        reasons.append(
            f"iterative algorithm: {NO_GOSSIP_HISTORY}, so Backup does not apply"
        )
        reasons.append(
            "heartbeat-cadenced execution with resampling tolerates "
            "per-round message loss (Mini-batch-style)"
        )
        reasons.append(
            f"overcollection degree m={m} reaches P(success) >= {target_success}"
        )
        return StrategyRecommendation(
            strategy="overcollection",
            heartbeat_execution=True,
            reasons=tuple(reasons),
            extra_devices=m,
            worst_extra_latency=0.0,
        )

    if not properties.distributive:
        reasons.append(
            "processing is not distributive: Overcollection's partial-state "
            "merge does not apply"
        )
        reasons.append(
            f"Backup covers any operator at the price of up to "
            f"{worst_case_delay(replicas):.0f}s of sequential takeovers"
        )
        return StrategyRecommendation(
            strategy="backup",
            heartbeat_execution=False,
            reasons=tuple(reasons),
            extra_devices=replicas,
            worst_extra_latency=worst_case_delay(replicas),
        )

    if properties.exact_result_required:
        reasons.append(
            "an exact result is required: Overcollection may lose up to m "
            "partitions and extrapolate, Backup re-executes the identical input"
        )
        return StrategyRecommendation(
            strategy="backup",
            heartbeat_execution=False,
            reasons=tuple(reasons),
            extra_devices=replicas,
            worst_extra_latency=worst_case_delay(replicas),
        )

    m = minimum_overcollection(n, fault_rate, target_success)
    reasons.append("processing is distributive: partial states merge at the combiner")
    reasons.append("deadline-sensitive: Overcollection adds no takeover latency")
    reasons.append(
        f"overcollection degree m={m} reaches P(success) >= {target_success}"
    )
    return StrategyRecommendation(
        strategy="overcollection",
        heartbeat_execution=False,
        reasons=tuple(reasons),
        extra_devices=m,
        worst_extra_latency=0.0,
    )
