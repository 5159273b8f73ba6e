"""Tests for query-level recovery: watchdogs, reprovisioning, degradation."""

from __future__ import annotations

import pytest

from repro.chaos.campaign import RunSpec
from repro.core.planner import PrivacyParameters, QuerySpec
from repro.core.qep import OperatorRole
from repro.core.runtime import ExecutionCoordinator
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.manager.scenario import Scenario, ScenarioConfig
from repro.network.failures import FailurePlan
from repro.network.reliable import ReliableTransport
from repro.plan.compile import compile_query
from repro.query.sql import parse_query
from repro.telemetry import Telemetry
from tests.evidence_logs import arrivals, fires

ROWS = generate_health_rows(60, seed=5)
SQL = "SELECT count(*), avg(age), avg(bmi) FROM health GROUP BY region"
PRIVACY = PrivacyParameters(
    max_raw_per_edgelet=20, separated_pairs=(("age", "bmi"),)
)


def _spec() -> QuerySpec:
    return QuerySpec(
        query_id="recovery-q", kind="aggregate",
        snapshot_cardinality=len(ROWS), group_by=parse_query(SQL).query,
    )


def _config(**kwargs) -> ScenarioConfig:
    defaults = dict(
        n_contributors=25,
        n_processors=20,
        rows=ROWS,
        schema=HEALTH_SCHEMA,
        device_mix=(1.0, 0.0, 0.0),
        collection_window=20.0,
        deadline=80.0,
        seed=11,
        scenario_tag="rec",
        reliability=True,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def _probe():
    """Dry-run the swarm to learn the deterministic assignment.

    Device identities and operator placement are a pure function of
    (scenario_tag, seed), so a second scenario built from the same
    config rebuilds the exact same swarm — the failure plans below can
    therefore target devices learned from this probe run.
    """
    scenario = Scenario(_config())
    result = scenario.run_query(_spec(), privacy=PRIVACY)
    assert result.report.success
    group1 = sorted(
        op.assigned_to
        for op in result.plan.operators()
        if op.role == OperatorRole.COMPUTER
        and op.params.get("group_index") == 1
        and op.params.get("backup_rank", 0) == 0
    )
    assigned = {
        op.assigned_to for op in result.plan.operators() if op.assigned_to
    }
    standbys = [
        d.device_id for d in scenario.processors if d.device_id not in assigned
    ]
    return group1, standbys


class TestPhaseDeadline:
    def test_scenario_phase_deadline_validation(self):
        with pytest.raises(ValueError):
            _config(phase_deadline=-5.0)

    @pytest.mark.parametrize("value", [0.0, -5.0])
    def test_run_spec_rejects_a_non_positive_phase_deadline(self, value):
        # fail where the spec is built or loaded, not midway through
        # the run that uses it
        with pytest.raises(ValueError, match="phase_deadline must be positive"):
            RunSpec(seed=1, tag="x", reliability=True, phase_deadline=value)
        data = RunSpec(seed=1, tag="x", reliability=True).to_dict()
        data["phase_deadline"] = value
        with pytest.raises(ValueError, match="phase_deadline must be positive"):
            RunSpec.from_dict(data)


class TestOneReliabilityDecision:
    """A transport is the one switch: given one, the coordinator arms the
    recovery watchdog; given none, it arms nothing."""

    def _run(self, reliable: bool) -> ExecutionCoordinator:
        scenario = Scenario(_config(reliability=False), telemetry=Telemetry())
        plan = compile_query(_spec(), privacy=PRIVACY).build_qep(
            contributor_ids=[d.device_id for d in scenario.contributors]
        )
        scenario.assign_query(plan, scenario.eligible_processor_ids())
        transport = None
        if reliable:
            transport = ReliableTransport(scenario.network, seed=1)
        executor = ExecutionCoordinator(
            scenario.simulator, scenario.network, scenario.devices, plan,
            collection_window=20.0, deadline=80.0, secure_channels=False,
            transport=transport,
        )
        scenario.simulator.run_until(executor.start())
        return executor

    def test_a_transport_arms_the_watchdog(self):
        executor = self._run(reliable=True)
        assert executor.recovery is not None
        assert executor.recovery.checks_run > 0

    def test_no_transport_arms_nothing(self):
        executor = self._run(reliable=False)
        assert executor.recovery is None
        metrics = executor.telemetry.metrics
        assert metrics.value("exec.watchdog_checks", query="recovery-q") == 0


class TestReliabilityRescue:
    def test_transport_rescues_a_run_that_fails_blind(self):
        # at this loss rate the single blind contribution copy is not
        # enough; the ACK/retransmission transport must recover it
        base = dict(
            n_contributors=30, n_processors=15,
            rows=generate_health_rows(80, seed=5), schema=HEALTH_SCHEMA,
            device_mix=(1.0, 0.0, 0.0), message_loss=0.3, seed=0,
            collection_window=20.0, deadline=70.0, scenario_tag="rescue",
        )
        sql = "SELECT count(*), avg(age) FROM health GROUP BY region"
        spec = QuerySpec(
            query_id="rescue-q", kind="aggregate",
            snapshot_cardinality=80, group_by=parse_query(sql).query,
        )
        privacy = PrivacyParameters(max_raw_per_edgelet=20)

        blind = Scenario(ScenarioConfig(**base, reliability=False))
        assert not blind.run_query(spec, privacy=privacy).report.success

        reliable = Scenario(ScenarioConfig(**base, reliability=True))
        result = reliable.run_query(spec, privacy=privacy)
        assert result.report.success
        assert result.report.transport_stats["retransmissions"] > 0


class TestReprovisioning:
    def test_watchdog_recruits_standbys_for_dead_computers(self):
        group1, _standbys = _probe()
        # kill 3 of the 5 group-1 computers right as collection closes,
        # before the builders ship — more damage than the m=2 extra
        # partitions can absorb, so recovery must step in
        plan = FailurePlan()
        for device_id in group1[:3]:
            plan.crash(device_id, 20.0)
        scenario = Scenario(_config(failure_plan=plan))
        report = scenario.run_query(_spec(), privacy=PRIVACY).report
        assert report.success
        assert not report.degraded
        assert len(report.reprovisions) == 3
        dead = set(group1[:3])
        for _when, _op, old_id, new_id in report.reprovisions:
            assert old_id in dead
            assert new_id not in dead

    def test_reprovisioned_result_matches_centralized(self):
        group1, _standbys = _probe()
        plan = FailurePlan()
        for device_id in group1[:3]:
            plan.crash(device_id, 20.0)
        scenario = Scenario(_config(failure_plan=plan))
        result = scenario.run_query(_spec(), privacy=PRIVACY)
        assert result.report.success
        from repro.core.validity import compare_results

        reference = scenario.centralized_result(_spec())
        comparison = compare_results(reference, result.report.result)
        assert comparison.missing_groups == 0

    @pytest.mark.parametrize("replicas", [1, 2])
    def test_a_starved_replica_cell_is_reprovisioned_above_its_ranks(
        self, replicas
    ):
        from repro.chaos.campaign import RunSpec, run_single

        outcome = run_single(
            RunSpec(
                seed=2, tag="wd-bk", replicas=replicas, reliability=True,
                crash_probability=0.004,
            )
        )
        assert outcome.ok, [str(v) for v in outcome.violations]
        result = outcome.result
        # the crashed primary's cell goes to a standby under a token
        # that outranks every replica rank, fired or not
        assert [
            (op, old) for _t, op, old, _new in result.report.reprovisions
        ] == [("computer[6,g0]", "wd-bk-proc-00002")]
        (_t, _op, _old, standby), = result.report.reprovisions
        cell, generation = (6, 0), replicas + 1
        assert result.executor.ctx.generations == {cell: generation}
        assert (cell, standby, generation) in {
            (c, dev, gen) for _t, c, dev, gen in fires(result.evidence)
        }
        assert any(
            c == cell and sender == standby and gen == generation
            and disposition in ("accepted", "replaced")
            for _t, c, _op, sender, gen, disposition
            in arrivals(result.evidence)
        )


class TestGracefulDegradation:
    def _degraded_result(self):
        group1, standbys = _probe()
        # kill every group-1 computer AND every standby: the vertical
        # group is unrecoverable and the combiner must degrade
        plan = FailurePlan()
        for device_id in [*group1, *standbys]:
            plan.crash(device_id, 20.0)
        scenario = Scenario(_config(failure_plan=plan))
        return scenario.run_query(_spec(), privacy=PRIVACY)

    def test_partial_result_is_explicitly_labelled(self):
        report = self._degraded_result().report
        assert report.success
        assert report.degraded
        assert report.coverage["groups_covered"] == 1
        assert report.coverage["groups_total"] == 2
        assert report.coverage["per_group_received"] == [5, 0]
        assert report.coverage["received_fraction"] == pytest.approx(0.5)
        assert report.validity_bound is not None

    def test_degraded_result_covers_only_surviving_groups(self):
        report = self._degraded_result().report
        rows = report.result.all_rows()
        assert rows  # the covered group's aggregates are still served
        for row in rows:
            assert "avg_age" in row
            assert "avg_bmi" not in row  # the lost group's slice

    def test_degradation_is_gated_on_recovery(self):
        # without the recovery layer the same failure fails hard —
        # legacy behaviour is preserved bit-for-bit when the flag is off
        group1, standbys = _probe()
        plan = FailurePlan()
        for device_id in [*group1, *standbys]:
            plan.crash(device_id, 20.0)
        scenario = Scenario(_config(failure_plan=plan, reliability=False))
        report = scenario.run_query(_spec(), privacy=PRIVACY).report
        assert not report.success
        assert not report.degraded


class TestDeterminism:
    def _run(self):
        config = _config(message_loss=0.2, scenario_tag="det", seed=4)
        scenario = Scenario(config)
        result = scenario.run_query(_spec(), privacy=PRIVACY)
        receipts = [
            (r.transfer_id, r.kind, r.outcome, r.attempts)
            for r in result.transport.receipts
        ]
        rows = result.report.result.all_rows() if result.report.result else None
        return result.report.success, rows, receipts, result.report.coverage

    def test_same_seed_same_report_and_receipts(self):
        assert self._run() == self._run()
