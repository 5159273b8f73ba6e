"""Tests for the textual dashboard (plan tree + report scoreboard)."""

from __future__ import annotations

from repro.core.planner import (
    EdgeletPlanner,
    PrivacyParameters,
    QuerySpec,
    ResiliencyParameters,
)
from repro.data.health import generate_health_rows
from repro.manager.dashboard import render_plan, render_report
from repro.manager.scenario import Scenario, ScenarioConfig
from repro.data.health import HEALTH_SCHEMA
from repro.query.sql import parse_query

SQL = "SELECT count(*), avg(age) FROM health GROUP BY GROUPING SETS ((region), ())"


def _plan(n_contributors=30):
    planner = EdgeletPlanner(
        privacy=PrivacyParameters(max_raw_per_edgelet=300,
                                  separated_pairs=()),
        resiliency=ResiliencyParameters(fault_rate=0.1),
    )
    spec = QuerySpec(
        query_id="dash", kind="aggregate", snapshot_cardinality=900,
        group_by=parse_query(SQL).query,
    )
    return planner.plan(spec, n_contributors=n_contributors)


class TestRenderPlan:
    def test_shows_all_stages(self):
        text = render_plan(_plan())
        for label in ("Data Contributors", "Snapshot Builders", "Computers",
                      "Computing Combiner", "Active Backup", "Querier"):
            assert label in text

    def test_shows_overcollection_params(self):
        text = render_plan(_plan())
        assert "n=3" in text
        assert "C=900" in text

    def test_elides_long_stages(self):
        text = render_plan(_plan(n_contributors=50), max_per_stage=4)
        assert "... and 46 more" in text

    def test_shows_assignments(self):
        plan = _plan()
        plan.operator("combiner").assigned_to = "device-x"
        assert "@ device-x" in render_plan(plan)

    def test_vertical_groups_displayed(self):
        planner = EdgeletPlanner(
            privacy=PrivacyParameters(separated_pairs=(("age", "bmi"),)),
        )
        sql = ("SELECT count(*), avg(age), avg(bmi) FROM health "
               "GROUP BY GROUPING SETS ((region), ())")
        spec = QuerySpec(
            query_id="dash-v", kind="aggregate", snapshot_cardinality=100,
            group_by=parse_query(sql).query,
        )
        text = render_plan(planner.plan(spec, n_contributors=5))
        assert "vertical groups" in text


class TestRenderReport:
    def _result(self):
        rows = generate_health_rows(60, seed=3)
        config = ScenarioConfig(
            n_contributors=30, n_processors=15, rows=rows,
            schema=HEALTH_SCHEMA, device_mix=(1.0, 0.0, 0.0), seed=3,
        )
        scenario = Scenario(config)
        spec = QuerySpec(
            query_id="dash-run", kind="aggregate",
            snapshot_cardinality=50, group_by=parse_query(SQL).query,
        )
        return scenario.run_query(spec)

    def test_success_scoreboard(self):
        result = self._result()
        text = render_report(result.report)
        assert "SUCCESS" in text
        assert "tally" in text
        assert "network" in text
        assert "result" in text

    def test_result_rows_elided(self):
        result = self._result()
        text = render_report(result.report, result_rows=1)
        assert "... and" in text

    def test_failure_scoreboard(self):
        from repro.core.runtime import ExecutionReport

        report = ExecutionReport(query_id="failed-q")
        text = render_report(report)
        assert "FAILURE" in text

    def test_kmeans_scoreboard(self):
        import numpy as np

        from repro.core.runtime import ExecutionReport, KMeansOutcome

        report = ExecutionReport(query_id="km")
        report.success = True
        report.heartbeats_run = 4
        report.kmeans = KMeansOutcome(
            centroids=np.zeros((3, 2)), weights=np.ones(3), knowledges_merged=5
        )
        text = render_report(report)
        assert "kmeans: 3 centroids from 5 knowledges" in text


class TestRenderPlanVariants:
    def test_backup_plan_shows_replica_ranks(self):
        from repro.core.planner import ResiliencyParameters

        planner = EdgeletPlanner(
            privacy=PrivacyParameters(max_raw_per_edgelet=500),
            resiliency=ResiliencyParameters(replicas=1),
        )
        spec = QuerySpec(
            query_id="dash-bak", kind="aggregate", snapshot_cardinality=900,
            group_by=parse_query(SQL).query,
        )
        text = render_plan(planner.plan(spec, n_contributors=5))
        assert "replica rank 1" in text
        assert "[backup]" in text

    def test_kmeans_plan_renders(self):
        planner = EdgeletPlanner(privacy=PrivacyParameters(max_raw_per_edgelet=500))
        spec = QuerySpec(
            query_id="dash-km", kind="kmeans", snapshot_cardinality=900,
            kmeans_k=3, feature_columns=("bmi", "glucose"), heartbeats=4,
        )
        text = render_plan(planner.plan(spec, n_contributors=5))
        assert "Computers" in text
        assert "cols[bmi,glucose]" in text


class TestDotRendering:
    def _plan(self, n_contributors=5):
        from repro.core.planner import EdgeletPlanner, PrivacyParameters, QuerySpec
        from repro.query.sql import parse_query

        planner = EdgeletPlanner(privacy=PrivacyParameters(max_raw_per_edgelet=100))
        spec = QuerySpec(
            query_id="dot", kind="aggregate", snapshot_cardinality=200,
            group_by=parse_query("SELECT count(*) FROM t GROUP BY region").query,
        )
        return planner.plan(spec, n_contributors=n_contributors)

    def test_dot_structure(self):
        from repro.manager.dashboard import render_dot

        dot = render_dot(self._plan())
        assert dot.startswith("digraph qep {")
        assert dot.rstrip().endswith("}")
        assert '"combiner"' in dot
        assert '"querier"' in dot
        assert "->" in dot

    def test_dot_collapses_many_contributors(self):
        from repro.manager.dashboard import render_dot

        dot = render_dot(self._plan(n_contributors=50), max_contributors=10)
        assert "50 Data Contributors" in dot
        assert dot.count("contrib[") == 0

    def test_dot_small_plans_not_collapsed(self):
        from repro.manager.dashboard import render_dot

        dot = render_dot(self._plan(n_contributors=3), max_contributors=10)
        assert dot.count("contrib[") >= 3
