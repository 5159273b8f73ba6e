"""Tests for the privacy/resiliency-aware planner (demo Part 1)."""

from __future__ import annotations

import pytest

from repro.core.planner import (
    EdgeletPlanner,
    PlanningError,
    PrivacyParameters,
    QuerySpec,
    ResiliencyParameters,
)
from repro.core.qep import OperatorRole
from repro.core.resiliency import minimum_overcollection, replicas_for
from repro.query.aggregates import AggregateSpec
from repro.query.groupby import GroupByQuery


def _aggregate_spec(**kwargs) -> QuerySpec:
    query = GroupByQuery(
        grouping_sets=(("region",), ()),
        aggregates=(
            AggregateSpec("count"),
            AggregateSpec("avg", "age"),
            AggregateSpec("avg", "bmi"),
        ),
    )
    defaults = dict(
        query_id="plan-test", kind="aggregate", snapshot_cardinality=1000,
        group_by=query,
    )
    defaults.update(kwargs)
    return QuerySpec(**defaults)


def _kmeans_spec(**kwargs) -> QuerySpec:
    defaults = dict(
        query_id="plan-kmeans", kind="kmeans", snapshot_cardinality=1000,
        kmeans_k=3, feature_columns=("bmi", "systolic_bp", "glucose"),
        heartbeats=5,
    )
    defaults.update(kwargs)
    return QuerySpec(**defaults)


class TestQuerySpec:
    def test_aggregate_requires_group_by(self):
        with pytest.raises(ValueError):
            QuerySpec(query_id="x", kind="aggregate", snapshot_cardinality=10)

    def test_kmeans_requires_features(self):
        with pytest.raises(ValueError):
            QuerySpec(query_id="x", kind="kmeans", snapshot_cardinality=10)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            QuerySpec(query_id="x", kind="join", snapshot_cardinality=10)

    def test_collected_columns(self):
        assert _aggregate_spec().collected_columns() == ["age", "bmi", "region"]
        assert _kmeans_spec().collected_columns() == [
            "bmi", "glucose", "systolic_bp",
        ]


class TestHorizontalPartitioning:
    def test_n_from_max_raw(self):
        planner = EdgeletPlanner(privacy=PrivacyParameters(max_raw_per_edgelet=100))
        assert planner.horizontal_degree(_aggregate_spec()) == 10

    def test_n_at_least_one(self):
        planner = EdgeletPlanner(privacy=PrivacyParameters(max_raw_per_edgelet=10**6))
        assert planner.horizontal_degree(_aggregate_spec()) == 1

    def test_smaller_max_raw_more_partitions(self):
        loose = EdgeletPlanner(privacy=PrivacyParameters(max_raw_per_edgelet=500))
        tight = EdgeletPlanner(privacy=PrivacyParameters(max_raw_per_edgelet=50))
        assert tight.horizontal_degree(_aggregate_spec()) > loose.horizontal_degree(
            _aggregate_spec()
        )


class TestVerticalPartitioning:
    def test_no_constraints_single_group(self):
        planner = EdgeletPlanner()
        groups = planner.vertical_groups(_aggregate_spec())
        assert len(groups) == 1
        assert set(groups[0]) == {"age", "bmi", "region"}

    def test_separated_aggregates_split(self):
        planner = EdgeletPlanner(
            privacy=PrivacyParameters(separated_pairs=(("age", "bmi"),))
        )
        groups = planner.vertical_groups(_aggregate_spec())
        assert len(groups) == 2
        for group in groups:
            assert not {"age", "bmi"} <= set(group)
            assert "region" in group  # grouping column everywhere

    def test_grouping_column_separation_unsatisfiable(self):
        planner = EdgeletPlanner(
            privacy=PrivacyParameters(separated_pairs=(("region", "age"),))
        )
        with pytest.raises(PlanningError):
            planner.vertical_groups(_aggregate_spec())

    def test_kmeans_features_not_splittable(self):
        planner = EdgeletPlanner(
            privacy=PrivacyParameters(separated_pairs=(("bmi", "glucose"),))
        )
        with pytest.raises(PlanningError):
            planner.vertical_groups(_kmeans_spec())

    def test_kmeans_unrelated_separation_allowed(self):
        planner = EdgeletPlanner(
            privacy=PrivacyParameters(separated_pairs=(("age", "zipcode"),))
        )
        groups = planner.vertical_groups(_kmeans_spec())
        assert len(groups) == 1

    def test_self_separation_rejected(self):
        with pytest.raises(ValueError):
            PrivacyParameters(separated_pairs=(("age", "age"),))


class TestOvercollectionPlans:
    def _plan(self, fault_rate=0.1, max_raw=200, n_contributors=50):
        planner = EdgeletPlanner(
            privacy=PrivacyParameters(max_raw_per_edgelet=max_raw),
            resiliency=ResiliencyParameters(fault_rate=fault_rate, target_success=0.99),
        )
        return planner.plan(_aggregate_spec(), n_contributors=n_contributors)

    def test_plan_validates(self):
        self._plan().validate()

    def test_builder_count_is_n_plus_m(self):
        plan = self._plan()
        meta = plan.metadata["overcollection"]
        builders = plan.operators(OperatorRole.SNAPSHOT_BUILDER)
        assert len(builders) == meta["n"] + meta["m"]
        assert meta["m"] == minimum_overcollection(meta["n"], 0.1, 0.99)

    def test_computer_count_partitions_times_groups(self):
        plan = self._plan()
        meta = plan.metadata["overcollection"]
        n_groups = len(plan.metadata["column_groups"])
        computers = plan.operators(OperatorRole.COMPUTER)
        assert len(computers) == (meta["n"] + meta["m"]) * n_groups

    def test_higher_fault_rate_bigger_plan(self):
        small = self._plan(fault_rate=0.05)
        large = self._plan(fault_rate=0.4)
        assert len(large.operators(OperatorRole.SNAPSHOT_BUILDER)) > len(
            small.operators(OperatorRole.SNAPSHOT_BUILDER)
        )

    def test_active_backup_mirrors_combiner(self):
        plan = self._plan()
        backups = plan.operators(OperatorRole.ACTIVE_BACKUP)
        assert len(backups) == 1
        assert backups[0].params["mirrors"] == "combiner"

    def test_contributors_routed_to_builders(self):
        plan = self._plan(n_contributors=30)
        for contributor in plan.operators(OperatorRole.DATA_CONTRIBUTOR):
            consumers = plan.consumers_of(contributor.op_id)
            assert len(consumers) == 1
            assert consumers[0].role == OperatorRole.SNAPSHOT_BUILDER

    def test_count_star_in_first_group_only(self):
        planner = EdgeletPlanner(
            privacy=PrivacyParameters(
                max_raw_per_edgelet=500, separated_pairs=(("age", "bmi"),)
            )
        )
        plan = planner.plan(_aggregate_spec(), n_contributors=5)
        computers = plan.operators(OperatorRole.COMPUTER)
        count_idx = 0  # AggregateSpec("count") is index 0
        for computer in computers:
            indices = computer.params["aggregate_indices"]
            if computer.params["group_index"] == 0:
                assert count_idx in indices
            else:
                assert count_idx not in indices

    def test_contributor_ids_required(self):
        planner = EdgeletPlanner()
        with pytest.raises(PlanningError):
            planner.plan(_aggregate_spec())

    def test_kmeans_plan_metadata(self):
        planner = EdgeletPlanner(
            privacy=PrivacyParameters(max_raw_per_edgelet=500)
        )
        plan = planner.plan(_kmeans_spec(), n_contributors=10)
        plan.validate()
        assert plan.metadata["kind"] == "kmeans"
        assert plan.metadata["kmeans_k"] == 3
        assert plan.metadata["heartbeats"] == 5


class TestBackupPlans:
    def _plan(self, replicas=1):
        planner = EdgeletPlanner(
            privacy=PrivacyParameters(max_raw_per_edgelet=500),
            resiliency=ResiliencyParameters(replicas=replicas),
        )
        return planner.plan(_aggregate_spec(), n_contributors=10)

    def test_plan_validates(self):
        self._plan().validate()

    def test_replica_operators_created(self):
        plan = self._plan(replicas=2)
        builders = plan.operators(OperatorRole.SNAPSHOT_BUILDER)
        # n=2 partitions, each with primary + 2 replicas
        assert len(builders) == 2 * 3
        ranks = sorted(b.params["backup_rank"] for b in builders)
        assert ranks == [0, 0, 1, 1, 2, 2]

    def test_contributors_feed_all_replicas(self):
        plan = self._plan(replicas=1)
        for contributor in plan.operators(OperatorRole.DATA_CONTRIBUTOR):
            consumers = plan.consumers_of(contributor.op_id)
            assert len(consumers) == 2  # primary + replica

    def test_no_overcollection_margin(self):
        plan = self._plan()
        assert plan.metadata["overcollection"]["m"] == 0
        assert plan.metadata["strategy"] == "backup"


class TestParameterValidation:
    def test_privacy_validation(self):
        with pytest.raises(ValueError):
            PrivacyParameters(max_raw_per_edgelet=0)

    def test_resiliency_validation(self):
        with pytest.raises(ValueError):
            ResiliencyParameters(fault_rate=1.0)
        with pytest.raises(ValueError):
            ResiliencyParameters(target_success=1.0)
        with pytest.raises(ValueError):
            replicas_for("quorum")
        with pytest.raises(ValueError):
            ResiliencyParameters(replicas=-1)
