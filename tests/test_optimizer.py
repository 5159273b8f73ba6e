"""Cost-based physical optimizer: enumeration, scoring, determinism."""

from __future__ import annotations

import pytest

from repro.core.planner import (
    PlanningError,
    PrivacyParameters,
    QuerySpec,
    ResiliencyParameters,
)
from repro.plan.compile import OPTIMIZER_COST, compile_query
from repro.plan.cost import CostWeights
from repro.plan.optimizer import PhysicalCandidate, PhysicalOptimizer
from repro.plan.substrate import SUBSTRATE_PROFILES, SubstrateProfile
from repro.query.sql import parse_query

SQL = (
    "SELECT count(*), avg(age), avg(bmi) FROM health WHERE age > 65 "
    "GROUP BY GROUPING SETS ((region), ())"
)


def aggregate_spec(cardinality: int = 300) -> QuerySpec:
    return QuerySpec(
        query_id="opt-test",
        kind="aggregate",
        snapshot_cardinality=cardinality,
        group_by=parse_query(SQL).query,
    )


def kmeans_spec() -> QuerySpec:
    return QuerySpec(
        query_id="opt-km",
        kind="kmeans",
        snapshot_cardinality=200,
        kmeans_k=3,
        feature_columns=("bmi", "glucose"),
    )


@pytest.fixture
def substrate() -> SubstrateProfile:
    return SUBSTRATE_PROFILES["residential"]


class TestEnumeration:
    def test_aggregate_space_covers_both_strategies_and_verticals(
        self, substrate
    ):
        optimizer = PhysicalOptimizer(substrate)
        points = optimizer.candidates(
            aggregate_spec(), PrivacyParameters(max_raw_per_edgelet=100)
        )
        verticals = {p.vertical for p in points}
        raws = {p.max_raw for p in points}
        assert verticals == {"packed", "split"}
        assert raws == {100, 50, 25}
        assert {p.replicas for p in points} == {0, 1, 2}

    def test_kmeans_space_is_overcollection_packed_only(self, substrate):
        optimizer = PhysicalOptimizer(substrate)
        points = optimizer.candidates(
            kmeans_spec(), PrivacyParameters(max_raw_per_edgelet=80)
        )
        assert {p.replicas for p in points} == {0}
        assert {p.vertical for p in points} == {"packed"}

    def test_candidates_sorted_by_canonical_key(self, substrate):
        optimizer = PhysicalOptimizer(substrate)
        points = optimizer.candidates(
            aggregate_spec(), PrivacyParameters(max_raw_per_edgelet=100)
        )
        keys = [p.key for p in points]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_candidate_key_is_canonical(self):
        point = PhysicalCandidate(max_raw=50, replicas=2, vertical="split")
        assert point.key == "backup/raw50/r2/split"
        assert PhysicalCandidate(12, 0, "packed").key == (
            "overcollection/raw12/r0/packed"
        )


class TestOptimize:
    def test_exactly_one_chosen_and_it_is_the_cheapest_feasible(
        self, substrate
    ):
        result = PhysicalOptimizer(substrate).optimize(
            aggregate_spec(),
            privacy=PrivacyParameters(max_raw_per_edgelet=100),
        )
        chosen = [r for r in result.reports if r.chosen]
        assert len(chosen) == 1
        assert chosen[0].key == result.candidate.key
        cheapest = min(
            (r for r in result.reports if r.feasible and r.cost is not None),
            key=lambda r: (r.cost.total, r.key),
        )
        assert cheapest.key == result.candidate.key
        assert "lowest total cost" in chosen[0].reason

    def test_reports_cover_every_candidate_in_key_order(self, substrate):
        optimizer = PhysicalOptimizer(substrate)
        privacy = PrivacyParameters(max_raw_per_edgelet=100)
        result = optimizer.optimize(aggregate_spec(), privacy=privacy)
        expected = [p.key for p in optimizer.candidates(
            aggregate_spec(), privacy
        )]
        assert [r.key for r in result.reports] == expected

    def test_resolved_fault_rate_comes_from_the_substrate(self, substrate):
        result = PhysicalOptimizer(substrate).optimize(aggregate_spec())
        assert result.resiliency.fault_rate == pytest.approx(
            substrate.planning_fault_rate()
        )

    def test_split_candidate_separates_aggregate_columns(self, substrate):
        optimizer = PhysicalOptimizer(substrate)
        split = PhysicalCandidate(max_raw=50, replicas=0, vertical="split")
        privacy, _ = optimizer._parameters_for(
            split, aggregate_spec(), PrivacyParameters(),
            ResiliencyParameters(),
        )
        assert ("age", "bmi") in privacy.separated_pairs

    def test_advisor_disagreement_is_recorded(self, substrate):
        result = PhysicalOptimizer(substrate).optimize(
            aggregate_spec(),
            privacy=PrivacyParameters(max_raw_per_edgelet=100),
        )
        losing_backups = [
            r for r in result.reports
            if r.candidate.replicas and r.feasible and not r.chosen
        ]
        assert losing_backups
        assert all(
            "advisor prefers overcollection" in r.reason
            for r in losing_backups
        )

    def test_every_reference_profile_yields_a_feasible_plan(self):
        for profile in SUBSTRATE_PROFILES.values():
            result = PhysicalOptimizer(profile).optimize(
                aggregate_spec(),
                privacy=PrivacyParameters(max_raw_per_edgelet=60),
            )
            assert result.cost.total > 0
            assert result.cost.success_probability > 0.5

    def test_kmeans_optimizes_to_overcollection(self, substrate):
        result = PhysicalOptimizer(substrate).optimize(kmeans_spec())
        assert result.resiliency.replicas == 0

    def test_infeasible_everything_raises_planning_error(self, substrate):
        # separating two grouping columns is unplannable (both must
        # accompany every aggregate), so every candidate is infeasible
        spec = QuerySpec(
            query_id="opt-bad",
            kind="aggregate",
            snapshot_cardinality=100,
            group_by=parse_query(
                "SELECT count(*) FROM health "
                "GROUP BY GROUPING SETS ((region, sex))"
            ).query,
        )
        with pytest.raises(PlanningError, match="no feasible"):
            PhysicalOptimizer(substrate).optimize(
                spec,
                privacy=PrivacyParameters(
                    separated_pairs=(("region", "sex"),)
                ),
            )


class TestDeterminism:
    def test_same_inputs_same_decision_and_costs(self, substrate):
        runs = [
            PhysicalOptimizer(substrate).optimize(
                aggregate_spec(),
                privacy=PrivacyParameters(max_raw_per_edgelet=100),
            )
            for _ in range(3)
        ]
        keys = {r.candidate.key for r in runs}
        totals = {r.cost.total for r in runs}
        assert len(keys) == 1
        assert len(totals) == 1
        first = [
            (rep.key, rep.cost.total if rep.cost else None)
            for rep in runs[0].reports
        ]
        for other in runs[1:]:
            assert first == [
                (rep.key, rep.cost.total if rep.cost else None)
                for rep in other.reports
            ]

    def test_weights_change_the_tradeoff_not_the_audit(self, substrate):
        # a crushing latency weight penalizes the backup chain's
        # takeover delay; reports still cover the same key set
        base = PhysicalOptimizer(substrate).optimize(aggregate_spec())
        latency_heavy = PhysicalOptimizer(
            substrate, weights=CostWeights(latency_weight=1e9)
        ).optimize(aggregate_spec())
        assert {r.key for r in base.reports} == {
            r.key for r in latency_heavy.reports
        }
        assert latency_heavy.resiliency.replicas == 0


class TestPinnedIsTheOneCandidateCase:
    @pytest.mark.parametrize("replicas", [0, 1, 2])
    def test_a_key_scores_the_same_total_in_both_modes(
        self, substrate, replicas
    ):
        """Pinned mode scores its candidate with the optimizer's own
        evaluator, so a Backup chain pays its takeover delay there too."""
        spec = aggregate_spec()
        privacy = PrivacyParameters(max_raw_per_edgelet=100)
        costed = {
            report.key: report.cost.total
            for report in compile_query(
                spec, privacy=privacy, optimizer=OPTIMIZER_COST,
                substrate=substrate,
            ).explain.candidates
        }
        # the fault rate cost mode plans with, so both build one plan
        pinned = compile_query(
            spec, privacy=privacy, substrate=substrate,
            resiliency=ResiliencyParameters(
                fault_rate=substrate.planning_fault_rate(), replicas=replicas
            ),
        ).explain.chosen
        assert pinned.key in costed
        assert pinned.cost.total == costed[pinned.key]

    def test_without_a_substrate_the_candidate_is_unscored(self):
        chosen = compile_query(
            aggregate_spec(), resiliency=ResiliencyParameters(replicas=1),
        ).explain.chosen
        assert chosen.key == "backup/raw10000/r1/packed"
        assert chosen.cost is None
