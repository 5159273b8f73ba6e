"""Tests for chaos campaigns over concurrent workloads.

The chaos `workload` mode runs N queries in flight over one shared
swarm while faults hit the shared substrate, then holds **each** query
individually to the existing Resiliency / Validity / Crowd-Liability /
dedup / no-double-takeover invariants, plus the workload-level
conservation identity.  The shrinking test reduces a noisy failing
schedule for a 3-query workload to a minimal scripted FailurePlan.
"""

from __future__ import annotations

import pytest

from repro.chaos import (
    parse_fault_mix,
    run_workload,
    shrink_workload_plan,
    workload_failure_predicate,
)
from repro.chaos.workload import _check_conservation
from repro.network.failures import FailurePlan, Partition
from repro.workload import WorkloadSpec
from repro.workload.engine import WorkloadResult


def _n_atoms(plan: FailurePlan) -> int:
    return len(plan.crashes) + sum(
        len(windows) for windows in plan.disconnections.values()
    )


class TestCleanWorkload:
    def test_clean_workload_holds_every_invariant(self):
        spec = WorkloadSpec(
            n_queries=3, arrival_process="poisson", arrival_rate=2.0,
            max_concurrent=3, queue_capacity=3, seed=1,
        )
        outcome = run_workload(spec)
        assert outcome.clean
        assert outcome.ok
        assert outcome.result.completed == 3
        assert all(q.outcome == "completed" for q in outcome.units)
        assert all(q.success for q in outcome.units)

    def test_substrate_loss_demotes_clean_for_every_query(self):
        # seed 7's run loses one message on the (lossy-by-design)
        # shared network: no query may then be held to the exact bar
        spec = WorkloadSpec(
            n_queries=4, arrival_process="poisson", arrival_rate=2.0,
            max_concurrent=3, queue_capacity=4, seed=7,
        )
        outcome = run_workload(spec)
        assert not outcome.clean
        assert outcome.ok

    def test_conservation_violation_is_reported(self):
        result = WorkloadResult(
            spec=WorkloadSpec(n_queries=3), records=[], elapsed=1.0,
            arrivals=3, admitted=3, queued=0, shed=0, completed=2,
            succeeded=2, degraded=0, latency_percentiles={}, utilization=0.0,
        )
        pseudo = _check_conservation(result)
        assert pseudo is not None
        assert pseudo.violations[0].invariant == "workload_conservation"


class TestFaultyWorkload:
    def test_stochastic_crashes_checked_per_query(self):
        spec = WorkloadSpec(
            n_queries=4, arrival_process="poisson", arrival_rate=2.0,
            max_concurrent=3, queue_capacity=4, seed=7,
        )
        outcome = run_workload(spec, crash_probability=0.004)
        assert not outcome.clean
        assert outcome.failure_events
        assert len(outcome.units) == 4
        # every completed query got its own invariant verdict, and the
        # one-sided checks never blame legitimate fault damage
        assert outcome.ok
        assert outcome.result.shed + outcome.result.completed == 4

    def test_message_faults_checked_per_query(self):
        spec = WorkloadSpec(
            n_queries=3, arrival_process="uniform", arrival_rate=2.0,
            max_concurrent=3, queue_capacity=3, seed=3,
        )
        outcome = run_workload(spec, fault_specs=parse_fault_mix("drop=0.1"))
        assert not outcome.clean
        assert outcome.ok

    def test_scripted_partition_over_a_workload(self):
        # topology atoms ride in the one scripted plan, so workload chaos
        # can cut the shared swarm without any outage-specific knob
        spec = WorkloadSpec(
            n_queries=3, arrival_process="uniform", arrival_rate=2.0,
            max_concurrent=3, queue_capacity=3, seed=3,
        )
        island = (f"wl{spec.seed}-proc-00002", f"wl{spec.seed}-proc-00005")
        plan = FailurePlan(
            partitions=[Partition(start=2.0, end=12.0, islands=(island,))]
        )
        outcome = run_workload(spec, failure_plan=plan)
        assert not outcome.clean
        assert [(e.time, e.device_id, e.kind) for e in outcome.failure_events] == [
            (2.0, island[0], "partition_start"),
            (2.0, island[1], "partition_start"),
            (12.0, island[0], "partition_heal"),
            (12.0, island[1], "partition_heal"),
        ]
        assert outcome.result.shed + outcome.result.completed == 3

    def test_same_seed_reproduces_verdicts(self):
        spec = WorkloadSpec(
            n_queries=3, arrival_process="poisson", arrival_rate=2.0,
            max_concurrent=2, queue_capacity=3, seed=11,
        )
        first = run_workload(spec, crash_probability=0.003)
        second = run_workload(spec, crash_probability=0.003)
        assert first.result.fingerprints() == second.result.fingerprints()
        assert [
            (q.unit_id, q.outcome, q.success, len(q.violations))
            for q in first.units
        ] == [
            (q.unit_id, q.outcome, q.success, len(q.violations))
            for q in second.units
        ]
        assert len(first.failure_events) == len(second.failure_events)


class TestShrinking:
    def test_minimal_failing_plan_for_three_query_workload(self):
        # all three queries in flight at once, disjoint leases
        spec = WorkloadSpec(
            n_queries=3, arrival_process="closed", target_in_flight=3,
            max_concurrent=3, queue_capacity=0, seed=3,
        )
        # dry run: learn the middle query's leased devices (leases are
        # a pure function of the spec, so they hold under the plan too)
        dry = run_workload(spec)
        assert dry.result.completed == 3
        target = dry.result.records[1]
        assert target.started_at is not None

        leased_anywhere = set()
        for record in dry.result.records:
            leased_anywhere.update(record.leased)
        noise_ids = [
            f"wl{spec.seed}-proc-{i:05d}" for i in range(35, 38)
        ]
        assert not (set(noise_ids) & leased_anywhere)

        # kill every device the target query leased, plus pure noise:
        # crashes and offline windows on devices no query ever leased
        plan = FailurePlan()
        for device in target.leased:
            plan.crash(device, target.started_at + 1.0)
        for device in noise_ids:
            plan.crash(device, 2.0)
        plan.disconnect(f"wl{spec.seed}-proc-{38:05d}", 1.0, 4.0)
        plan.disconnect(f"wl{spec.seed}-proc-{39:05d}", 2.0, 6.0)
        initial_atoms = _n_atoms(plan)

        outcome = run_workload(spec, failure_plan=plan)
        failed = [q for q in outcome.units if q.success is False]
        assert failed, "the scripted crashes must sink the target query"
        # the untouched queries still run to completion on their own
        # leases — faults on one query's devices stay that query's
        assert sum(1 for q in outcome.units if q.success) == 2

        shrunk = shrink_workload_plan(outcome, max_attempts=24)
        assert _n_atoms(shrunk) < initial_atoms
        # the noise never survives shrinking
        assert not (set(shrunk.crashes) & set(noise_ids))
        assert not shrunk.disconnections
        # and the minimal plan still sinks a query on a fresh replay
        predicate = workload_failure_predicate(outcome)
        assert predicate(shrunk)

    def test_message_fault_violation_shrinks_to_its_rule(self):
        # the corrupting rule is one atom of the installed plan, beside
        # the slider's crashes: the minimal plan is that rule alone
        spec = WorkloadSpec(
            n_queries=2, arrival_process="uniform", arrival_rate=2.0,
            max_concurrent=2, queue_capacity=2, seed=3,
        )
        rule = parse_fault_mix("partial_result:corrupt=0.6,corrupt_scale=50")
        outcome = run_workload(spec, fault_specs=rule, crash_probability=0.002)
        assert {v.invariant for _unit, v in outcome.violations} == {"validity"}
        installed = outcome.installed_plan
        assert installed.crashes
        assert [m.spec for m in installed.message_faults] == list(rule)

        shrunk = shrink_workload_plan(outcome, max_attempts=8)
        assert [kind for kind, *_ in shrunk.atoms()] == ["message_fault"]
        assert shrunk.message_faults == installed.message_faults
        assert workload_failure_predicate(outcome)(shrunk)
