"""Integration tests for the scenario manager (demo Part 2)."""

from __future__ import annotations

import itertools
from dataclasses import replace

import pytest

from repro.core.planner import PrivacyParameters, QuerySpec, ResiliencyParameters
from repro.core.runtime.events import EventKind, of_kind
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.data.polling import POLLING_SCHEMA, generate_polling_rows
from repro.devices.profiles import PC_SGX
from repro.errors import SpecError
from repro.manager.scenario import Scenario, ScenarioConfig
from repro.manager.trace import format_trace, phase_timeline
from repro.manager.verification import verify_against_centralized
from repro.network.topology import LinkQuality
from repro.query.relation import Relation
from repro.query.sql import parse_query


def _config(**kwargs) -> ScenarioConfig:
    defaults = dict(
        n_contributors=50,
        n_processors=25,
        rows=generate_health_rows(120, seed=5),
        schema=HEALTH_SCHEMA,
        device_mix=(1.0, 0.0, 0.0),  # PC-only: fast, near-lossless links
        collection_window=20.0,
        deadline=70.0,
        seed=5,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def _aggregate_spec(rows, sql=None) -> QuerySpec:
    sql = sql or (
        "SELECT count(*), avg(age) FROM health "
        "GROUP BY GROUPING SETS ((region), ())"
    )
    return QuerySpec(
        query_id="scenario-q", kind="aggregate",
        snapshot_cardinality=len(rows), group_by=parse_query(sql).query,
    )


class TestScenarioConstruction:
    def test_swarm_sizes(self):
        scenario = Scenario(_config())
        assert len(scenario.contributors) == 50
        assert len(scenario.processors) == 25
        assert len(scenario.devices) == 76  # + querier

    def test_data_dealt_to_contributors(self):
        scenario = Scenario(_config())
        total = sum(len(d.datastore) for d in scenario.contributors)
        assert total == 120

    def test_device_mix_respected(self):
        scenario = Scenario(_config(device_mix=(0.0, 0.0, 1.0)))
        assert all(
            d.profile.name == "home-box-tpm" for d in scenario.contributors
        )

    def test_attestation_round(self):
        scenario = Scenario(_config())
        assert len(scenario.attest_processors()) == 25

    def test_rogue_processors_fail_attestation(self):
        scenario = Scenario(_config(rogue_processors=5))
        attested = scenario.attest_processors()
        assert len(attested) == 20
        rogue_ids = {d.device_id for d in scenario.processors[:5]}
        assert rogue_ids.isdisjoint({d.device_id for d in attested})

    def test_attestation_gating_excludes_rogues_from_plans(self):
        config = _config(rogue_processors=5, require_attestation=True)
        scenario = Scenario(config)
        result = scenario.run_query(_aggregate_spec(config.rows))
        assert result.report.success
        rogue_ids = {d.device_id for d in scenario.processors[:5]}
        assigned = set(result.plan.assigned_devices().values())
        assert rogue_ids.isdisjoint(assigned)

    def test_caregiver_rounds_config(self):
        config = _config(
            caregiver_period=30.0, caregiver_visit=10.0,
            collection_window=40.0, deadline=90.0,
        )
        scenario = Scenario(config)
        result = scenario.run_query(_aggregate_spec(config.rows))
        assert result.report.success
        # with a 1/3 duty cycle, not every contribution gets out
        total = result.report.result.rows_for(())[0]["count"]
        assert total < len(config.rows)

    def test_pair_quality_does_not_depend_on_when_a_device_joined(self, monkeypatch):
        # two device classes whose radios tie on base_latency: the bulk
        # build used to keep the earlier-listed device's link, a spawn
        # the newcomer's
        lossy = replace(
            PC_SGX, name="lossy",
            link=LinkQuality(base_latency=1.0, loss_probability=0.2),
        )
        jittery = replace(
            PC_SGX, name="jittery",
            link=LinkQuality(base_latency=1.0, latency_jitter=0.6, bandwidth=9e9),
        )
        draws = itertools.cycle([jittery, lossy])
        monkeypatch.setattr(
            Scenario, "_pick_profile", lambda self, rng=None: next(draws)
        )
        scenario = Scenario(_config(n_contributors=4, n_processors=2))
        spawned = [scenario.spawn_contributor(4), scenario.spawn_processor(2)]
        swarm = [*scenario.contributors, *scenario.processors]
        assert {d.profile.name for d in spawned} == {"lossy", "jittery"}
        topology = scenario.network.topology
        for a, b in itertools.permutations(swarm, 2):
            expected = (
                jittery.link
                if a.profile is jittery and b.profile is jittery
                else lossy.link
            )
            assert topology.quality(a.device_id, b.device_id) is expected

    def test_caregiver_config_validation(self):
        with pytest.raises(ValueError):
            _config(caregiver_period=-1.0)
        with pytest.raises(ValueError):
            _config(caregiver_period=10.0, caregiver_visit=20.0)
        with pytest.raises(ValueError):
            _config(rogue_processors=100)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _config(n_contributors=0)
        with pytest.raises(ValueError):
            _config(n_processors=0)
        with pytest.raises(ValueError):
            _config(device_mix=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            _config(compromised_processors=-1)
        # checked where declared, before any swarm or network is built
        for options in (
            dict(message_loss=1.5),
            dict(crash_probability=-0.1),
            dict(disconnect_duration=0.0),
            dict(collection_window=30.0, deadline=30.0),
        ):
            with pytest.raises(SpecError):
                _config(**options)


class TestScenarioExecution:
    def test_aggregate_query_end_to_end(self):
        config = _config()
        scenario = Scenario(config)
        result = scenario.run_query(_aggregate_spec(config.rows))
        assert result.report.success
        assert result.exposure is not None
        assert result.liability is not None

    def test_verification_against_centralized(self):
        config = _config()
        scenario = Scenario(config)
        spec = _aggregate_spec(config.rows)
        result = scenario.run_query(spec)
        outcome = verify_against_centralized(
            result.report, spec.group_by, Relation(HEALTH_SCHEMA, config.rows)
        )
        # PC-only links still lose ~1% of messages; allow small error
        assert outcome.validity.missing_groups == 0
        assert outcome.validity.mean_relative_error < 0.5

    def test_kmeans_query_end_to_end(self):
        config = _config()
        scenario = Scenario(config)
        spec = QuerySpec(
            query_id="scenario-kmeans", kind="kmeans",
            snapshot_cardinality=len(config.rows), kmeans_k=3,
            feature_columns=("bmi", "systolic_bp", "glucose"), heartbeats=4,
        )
        result = scenario.run_query(
            spec, privacy=PrivacyParameters(max_raw_per_edgelet=40)
        )
        assert result.report.success
        assert result.report.kmeans.centroids.shape == (3, 3)

    def test_failure_injection_with_overcollection_survives(self):
        config = _config(crash_probability=0.002, seed=9)
        scenario = Scenario(config)
        result = scenario.run_query(
            _aggregate_spec(config.rows),
            privacy=PrivacyParameters(max_raw_per_edgelet=30),
            resiliency=ResiliencyParameters(fault_rate=0.3, target_success=0.99),
        )
        assert result.report.success

    def test_second_query_draws_over_the_live_processors_only(self):
        # each query resolves the failure slider at its own install; a
        # processor an earlier query's draws killed stays out of the pool
        config = _config(crash_probability=0.02, seed=9)
        scenario = Scenario(config)
        options = dict(
            privacy=PrivacyParameters(max_raw_per_edgelet=30),
            resiliency=ResiliencyParameters(fault_rate=0.3, target_success=0.99),
        )
        spec = _aggregate_spec(config.rows)
        first = scenario.run_query(spec, **options)
        dead = {e.device_id for e in first.failure_events if e.kind == "crash"}
        assert dead
        second = scenario.run_query(replace(spec, query_id="second"), **options)
        crashed = [e.device_id for e in second.failure_events if e.kind == "crash"]
        assert crashed and not dead & set(crashed)

    def test_polling_scenario(self):
        rows = generate_polling_rows(100, seed=2)
        config = _config(rows=rows, schema=POLLING_SCHEMA)
        scenario = Scenario(config)
        sql = "SELECT count(*), avg(spending) FROM polling GROUP BY interest"
        spec = QuerySpec(
            query_id="poll", kind="aggregate",
            snapshot_cardinality=len(rows), group_by=parse_query(sql).query,
        )
        result = scenario.run_query(spec)
        assert result.report.success

    def test_compromised_processors_record_exposure(self):
        config = _config(compromised_processors=25, secure_channels=True,
                         n_contributors=15, rows=generate_health_rows(30, seed=5))
        scenario = Scenario(config)
        spec = _aggregate_spec(config.rows)
        result = scenario.run_query(
            spec, privacy=PrivacyParameters(max_raw_per_edgelet=10)
        )
        assert result.report.success
        from repro.core.privacy import observed_exposure

        observed = observed_exposure(scenario.observer)
        assert observed.max_tuples > 0
        # sealed-glass observation never exceeds the plan-level bound
        assert observed.max_tuples <= result.exposure.max_raw_tuples_per_edgelet

    def test_centralized_result_helper(self):
        config = _config()
        scenario = Scenario(config)
        spec = _aggregate_spec(config.rows)
        central = scenario.centralized_result(spec)
        assert central.rows_for(())[0]["count"] == len(config.rows)


class TestTraceRendering:
    def test_format_trace(self):
        config = _config(n_contributors=10, rows=generate_health_rows(20, seed=5))
        scenario = Scenario(config)
        result = scenario.run_query(_aggregate_spec(config.rows))
        report = result.report
        assert of_kind(report.events, EventKind.SNAPSHOT_FROZEN)
        assert of_kind(report.events, EventKind.FINAL_SENT)
        assert format_trace(report).splitlines() == [
            f"t={event.time:10.3f}  {event.render()}"
            for event in report.events
            if event.kind is not EventKind.PARTIAL_ARRIVED
        ]

    def test_format_trace_limit(self):
        config = _config(n_contributors=10, rows=generate_health_rows(20, seed=5))
        scenario = Scenario(config)
        result = scenario.run_query(_aggregate_spec(config.rows))
        report = result.report
        (time, line), *rest = report.trace
        assert format_trace(report, limit=1).splitlines() == [
            f"t={time:10.3f}  {line}", f"... {len(rest)} more events",
        ]

    def test_phase_timeline(self):
        config = _config(n_contributors=10, rows=generate_health_rows(20, seed=5))
        scenario = Scenario(config)
        result = scenario.run_query(_aggregate_spec(config.rows))
        timeline = phase_timeline(result.report)
        assert timeline["collection_end"] is not None
        assert timeline["completion"] is not None
        assert timeline["collection_end"] <= timeline["completion"]
