"""Property-based tests over the compile pipeline.

`hypothesis` drives the cost-based optimizer across the (query shape x
substrate x knob) space and asserts the planner's promises hold for
*every* input:

* determinism — the decision is a pure function of (spec, substrate,
  weights): recompiling yields the identical winner and costs;
* enumeration-order invariance — shuffling the candidate enumeration
  never changes the winner (the choice is ``min`` over a canonical
  ``(total, key)``, not "first feasible wins");
* the strategy decision table — a backup-planned aggregate carries
  replica ranks, a backup-planned k-means is refused, and everything
  else carries none, whatever the fault rate and cardinality.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.advisor import properties_for, recommend_strategy
from repro.core.planner import (
    PlanningError,
    PrivacyParameters,
    QuerySpec,
    ResiliencyParameters,
)
from repro.core.resiliency import replicas_for
from repro.plan.builder import scan
from repro.plan.compile import compile_query
from repro.plan.optimizer import PhysicalOptimizer
from repro.plan.substrate import SUBSTRATE_PROFILES
from repro.query.sql import parse_query

SQL = (
    "SELECT count(*), avg(age), avg(bmi) FROM health WHERE age > 65 "
    "GROUP BY GROUPING SETS ((region), ())"
)

profiles = st.sampled_from(sorted(SUBSTRATE_PROFILES))
# bounded so the partition degree n = ceil(C / cap) stays small enough
# for a fast (sub-second) optimize per example
cardinalities = st.integers(min_value=20, max_value=240)
caps = st.integers(min_value=8, max_value=64)


def _spec(cardinality: int) -> QuerySpec:
    return QuerySpec(
        query_id="prop-q",
        kind="aggregate",
        snapshot_cardinality=cardinality,
        group_by=parse_query(SQL).query,
    )


class _ShuffledOptimizer(PhysicalOptimizer):
    """Same search space, adversarial enumeration order."""

    def __init__(self, substrate, shuffle_seed: int):
        super().__init__(substrate)
        self._shuffle_seed = shuffle_seed

    def candidates(self, spec, privacy):
        points = super().candidates(spec, privacy)
        random.Random(self._shuffle_seed).shuffle(points)
        return points


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(profile=profiles, cardinality=cardinalities, cap=caps)
def test_optimizer_is_deterministic(profile, cardinality, cap):
    substrate = SUBSTRATE_PROFILES[profile]
    privacy = PrivacyParameters(max_raw_per_edgelet=cap)
    first = PhysicalOptimizer(substrate).optimize(
        _spec(cardinality), privacy=privacy
    )
    second = PhysicalOptimizer(substrate).optimize(
        _spec(cardinality), privacy=privacy
    )
    assert first.candidate == second.candidate
    assert first.cost == second.cost
    assert [
        (r.key, r.feasible, r.cost.total if r.cost else None)
        for r in first.reports
    ] == [
        (r.key, r.feasible, r.cost.total if r.cost else None)
        for r in second.reports
    ]


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(profile=profiles, cardinality=cardinalities, cap=caps,
       shuffle_seed=st.integers(min_value=0, max_value=2**16))
def test_winner_is_invariant_to_enumeration_order(
    profile, cardinality, cap, shuffle_seed
):
    substrate = SUBSTRATE_PROFILES[profile]
    privacy = PrivacyParameters(max_raw_per_edgelet=cap)
    canonical = PhysicalOptimizer(substrate).optimize(
        _spec(cardinality), privacy=privacy
    )
    shuffled = _ShuffledOptimizer(substrate, shuffle_seed).optimize(
        _spec(cardinality), privacy=privacy
    )
    assert shuffled.candidate == canonical.candidate
    assert shuffled.cost.total == canonical.cost.total
    # the audit trail is re-sorted into key order regardless
    assert [r.key for r in shuffled.reports] == [
        r.key for r in canonical.reports
    ]


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["aggregate", "kmeans"]),
    strategy=st.sampled_from(["overcollection", "backup"]),
    fault_rate=st.floats(min_value=0.01, max_value=0.5),
    cardinality=st.integers(min_value=20, max_value=200),
)
def test_strategy_runtime_follows_the_decision_table(
    kind, strategy, fault_rate, cardinality
):
    """Replica ranks run only for a backup-planned aggregate; a
    backup-planned k-means is refused (a promoted replica would have no
    gossip history), every other pair carries no replica — and the
    built plan's metadata says the same."""
    if kind == "kmeans":
        source = scan("health").cluster(k=3, features=("bmi", "glucose"))
    else:
        source = SQL

    options = dict(
        query_id="prop-rt",
        snapshot_cardinality=cardinality,
        resiliency=ResiliencyParameters(
            fault_rate=fault_rate, replicas=replicas_for(strategy)
        ),
    )
    if (strategy, kind) == ("backup", "kmeans"):
        with pytest.raises(PlanningError):
            compile_query(source, **options)
        return
    plan = compile_query(source, **options).build_qep(n_contributors=16)
    assert plan.replicas == (1 if strategy == "backup" else 0)
    assert (plan.metadata["kind"], plan.metadata.get("strategy")) == (
        kind, strategy
    )


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["aggregate", "kmeans"]),
    n=st.integers(min_value=1, max_value=40),
    fault_rate=st.floats(min_value=0.01, max_value=0.5),
)
def test_advisor_recommendation_is_always_executable(kind, n, fault_rate):
    """The advisor never recommends a strategy the compile pipeline
    would refuse or override: following its recommendation end-to-end
    yields a plan whose replica ranks match the verdict."""
    advice = recommend_strategy(properties_for(kind), n=n, fault_rate=fault_rate)
    if kind == "kmeans":
        source = scan("health").cluster(k=3, features=("bmi", "glucose"))
    else:
        source = SQL
    compiled = compile_query(
        source,
        query_id="prop-adv",
        snapshot_cardinality=max(8, 4 * n),
        resiliency=ResiliencyParameters(
            fault_rate=fault_rate, replicas=replicas_for(advice.strategy)
        ),
    )
    plan = compiled.build_qep(n_contributors=max(8, 4 * n))
    assert (plan.replicas > 0) == (advice.strategy == "backup")
