"""compile_query parity: pinned mode must be byte-identical to the
legacy hand-assembled path, under every fold kernel."""

from __future__ import annotations

import pytest

from repro.chaos.campaign import RunSpec, TopologySpec, run_single
from repro.core.planner import (
    PlanningError,
    PrivacyParameters,
    QuerySpec,
    ResiliencyParameters,
)
from repro.core.resiliency import replicas_for
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.manager.scenario import Scenario, ScenarioConfig
from repro.plan.builder import col, scan
from repro.plan.compile import OPTIMIZER_COST, compile_query
from repro.plan.substrate import SUBSTRATE_PROFILES
from repro.query.sql import parse_query
from repro.telemetry import Telemetry
from repro.workload.fingerprint import report_fingerprint
from tests.differential.harness import (
    assert_identical_under_every_kernel,
    scenario_fingerprint,
)

SQL = (
    "SELECT count(*), avg(age), avg(bmi) FROM health WHERE age > 65 "
    "GROUP BY GROUPING SETS ((region), ())"
)


def hand_spec(query_id: str = "par-q", cardinality: int = 60) -> QuerySpec:
    return QuerySpec(
        query_id=query_id,
        kind="aggregate",
        snapshot_cardinality=cardinality,
        group_by=parse_query(SQL).query,
    )


class TestSpecParity:
    def test_compiled_spec_equals_hand_assembled(self):
        compiled = compile_query(SQL, query_id="par-q", snapshot_cardinality=60)
        assert compiled.spec == hand_spec()

    def test_the_engine_option_is_gone(self):
        with pytest.raises(TypeError):
            QuerySpec(
                query_id="par-q", kind="aggregate", snapshot_cardinality=60,
                group_by=parse_query(SQL).query, engine="row",
            )
        with pytest.raises(TypeError):
            compile_query(
                SQL, query_id="par-q", snapshot_cardinality=60,
                engine="columnar",
            )

    def test_builder_spec_equals_hand_assembled(self):
        compiled = compile_query(
            scan("health")
            .where(col("age") > 65)
            .group_by(("region",), ())
            .aggregate(("count", None), ("avg", "age"), ("avg", "bmi")),
            query_id="par-q",
            snapshot_cardinality=60,
        )
        assert compiled.spec == hand_spec()

    def test_query_spec_source_is_used_verbatim(self):
        spec = hand_spec()
        compiled = compile_query(spec)
        assert compiled.spec is spec

    def test_kmeans_builder_spec_equals_hand_assembled(self):
        compiled = compile_query(
            scan("health").cluster(
                k=3, features=("bmi", "systolic_bp", "glucose"), heartbeats=4
            ),
            query_id="par-km",
            snapshot_cardinality=50,
        )
        assert compiled.spec == QuerySpec(
            query_id="par-km",
            kind="kmeans",
            snapshot_cardinality=50,
            kmeans_k=3,
            feature_columns=("bmi", "systolic_bp", "glucose"),
            heartbeats=4,
        )

    def test_conflicting_query_id_is_rejected(self):
        with pytest.raises(ValueError, match="conflicts"):
            compile_query(hand_spec(), query_id="other-id")

    def test_query_body_requires_id_and_cardinality(self):
        with pytest.raises(ValueError, match="required"):
            compile_query(SQL)

    def test_cost_mode_requires_a_substrate(self):
        with pytest.raises(ValueError, match="substrate"):
            compile_query(
                SQL, query_id="q", snapshot_cardinality=60,
                optimizer=OPTIMIZER_COST,
            )

    def test_unknown_optimizer_mode_is_rejected(self):
        with pytest.raises(ValueError, match="optimizer"):
            compile_query(
                SQL, query_id="q", snapshot_cardinality=60, optimizer="magic"
            )


class TestKMeansReplicas:
    def test_backup_planned_kmeans_is_refused(self):
        """A k-means replica could never run (no gossip history to resume
        from), so compiling one fails instead of planning idle devices."""
        source = scan("health").cluster(k=3, features=("bmi",))
        with pytest.raises(PlanningError, match="no gossip history"):
            compile_query(
                source, query_id="q", snapshot_cardinality=60,
                resiliency=ResiliencyParameters(replicas=1),
            )
        compiled = compile_query(
            source, query_id="q", snapshot_cardinality=60,
            resiliency=ResiliencyParameters(),
        )
        assert compiled.build_qep(n_contributors=8).replicas == 0


class TestExecutionFingerprintParity:
    """The acceptance gate: a fixed-seed execution driven by the
    compile pipeline is byte-identical to one driven by a
    hand-assembled QuerySpec."""

    def _scenario(self, strategy: str) -> Scenario:
        rows = generate_health_rows(80, seed=3)
        config = ScenarioConfig(
            n_contributors=20,
            n_processors=24,
            rows=rows,
            schema=HEALTH_SCHEMA,
            device_mix=(1.0, 0.0, 0.0),
            seed=3,
            scenario_tag=f"par-{strategy}",
        )
        return Scenario(config, telemetry=Telemetry())

    @pytest.mark.parametrize("strategy", ["overcollection", "backup"])
    def test_sql_compile_matches_hand_assembly(self, strategy, fold_kernel):
        privacy = PrivacyParameters(max_raw_per_edgelet=20)
        resiliency = ResiliencyParameters(
            fault_rate=0.1, replicas=replicas_for(strategy)
        )

        legacy = self._scenario(strategy).run_query(
            hand_spec(), privacy=privacy, resiliency=resiliency,
        )
        compiled = compile_query(
            SQL, query_id="par-q", snapshot_cardinality=60,
            privacy=privacy, resiliency=resiliency,
        )
        piped = self._scenario(strategy).run_compiled(compiled)
        assert report_fingerprint(piped.report) == report_fingerprint(
            legacy.report
        )

    def test_fold_kernels_agree_on_the_parity_scenario(self, monkeypatch):
        assert_identical_under_every_kernel(
            monkeypatch, lambda: scenario_fingerprint(SQL, seed=3, tag="par-x")
        )

    def test_kmeans_compile_matches_hand_assembly(self):
        privacy = PrivacyParameters(max_raw_per_edgelet=20)
        resiliency = ResiliencyParameters(fault_rate=0.15)
        spec = QuerySpec(
            query_id="par-km", kind="kmeans", snapshot_cardinality=50,
            kmeans_k=3, feature_columns=("bmi", "systolic_bp", "glucose"),
            heartbeats=4,
        )
        legacy = self._scenario("km").run_query(
            spec, privacy=privacy, resiliency=resiliency
        )
        compiled = compile_query(
            scan("health").cluster(
                k=3, features=("bmi", "systolic_bp", "glucose"), heartbeats=4
            ),
            query_id="par-km", snapshot_cardinality=50,
            privacy=privacy, resiliency=resiliency,
        )
        piped = self._scenario("km").run_compiled(compiled)
        assert report_fingerprint(piped.report) == report_fingerprint(
            legacy.report
        )


class TestChaosCostMode:
    def test_run_spec_round_trips_the_optimizer_field(self):
        spec = RunSpec(seed=1, tag="t", optimizer="cost")
        assert RunSpec.from_dict(spec.to_dict()).optimizer == "cost"
        legacy = dict(RunSpec(seed=1, tag="t").to_dict())
        legacy.pop("optimizer")
        assert RunSpec.from_dict(legacy).optimizer == "pinned"

    def test_cost_mode_passes_the_invariant_suite(self):
        spec = RunSpec(
            seed=11,
            tag="cost-inv",
            replicas=1,  # the optimizer may override this
            topology=TopologySpec(
                n_contributors=16, n_processors=14, n_rows=32
            ),
            cardinality=64,
            optimizer="cost",
        )
        outcome = run_single(spec)
        assert outcome.violations == []
        assert outcome.result.report.success

    def test_cost_and_pinned_runs_are_each_deterministic(self):
        spec = RunSpec(
            seed=5, tag="det",
            topology=TopologySpec(n_contributors=12, n_processors=10,
                                  n_rows=24),
            cardinality=48, optimizer="cost",
        )
        first = run_single(spec)
        second = run_single(spec)
        assert report_fingerprint(first.result.report) == report_fingerprint(
            second.result.report
        )


class TestCostModeScenario:
    def test_scenario_substrate_profile_reflects_config(self):
        rows = generate_health_rows(40, seed=1)
        config = ScenarioConfig(
            n_contributors=10, n_processors=8, rows=rows,
            schema=HEALTH_SCHEMA, device_mix=(1.0, 0.0, 0.0),
            message_loss=0.05, seed=1, scenario_tag="sub",
        )
        scenario = Scenario(config, telemetry=Telemetry())
        profile = scenario.substrate_profile(fault_rate=0.2)
        assert profile.n_contributors == 10
        assert profile.message_loss == pytest.approx(0.05)
        assert profile.planning_fault_rate() > 0.2

    def test_cost_compiled_query_executes_on_reference_profile(self):
        substrate = SUBSTRATE_PROFILES["dense-campus"]
        compiled = compile_query(
            SQL, query_id="cost-run", snapshot_cardinality=60,
            privacy=PrivacyParameters(max_raw_per_edgelet=30),
            optimizer=OPTIMIZER_COST, substrate=substrate,
        )
        assert compiled.explain.mode == "cost"
        assert compiled.explain.chosen is not None
        rows = generate_health_rows(80, seed=9)
        config = ScenarioConfig(
            n_contributors=20, n_processors=24, rows=rows,
            schema=HEALTH_SCHEMA, device_mix=(1.0, 0.0, 0.0),
            seed=9, scenario_tag="cost-run",
        )
        result = Scenario(config, telemetry=Telemetry()).run_compiled(compiled)
        assert result.report.success
