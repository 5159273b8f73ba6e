"""Edge-case tests for the Backup strategy's takeover machinery.

Three failure shapes the happy-path tests never exercise:

* every ``shipped`` CONTROL marker is lost in transit — all replicas
  fire, and the consumers' dedup (first partition wins, idempotent
  partial recording) must keep the result exact;
* a replica crashes inside its *own* takeover window, handing the base
  to the next rank;
* :meth:`Simulator.reset` fires mid-window — armed takeover timers
  belong to the old timeline and must not execute on the new one (the
  epoch fence).
"""

from __future__ import annotations

from collections import Counter

from repro.core.runtime import ExecutionCoordinator
from repro.core.validity import compare_results
from repro.data.health import HEALTH_SCHEMA
from repro.query.engine import CentralizedEngine
from repro.query.relation import Relation

from tests.evidence_logs import takeovers
from tests.test_backup_execution import _backup_plan, _swarm


def _centralized(spec, rows):
    engine = CentralizedEngine()
    engine.register("data", Relation(HEALTH_SCHEMA, rows))
    return engine.execute_logical("data", spec.group_by)


class _ControlBlackhole:
    """Message-fault hook dropping every CONTROL message (all markers)."""

    def __init__(self):
        self.decisions = []

    def on_send(self, message):
        from repro.network.faults import FaultDecision

        drop = message.kind.value == "control"
        decision = FaultDecision(
            message_id=message.message_id,
            kind=message.kind.value,
            drop=drop,
        )
        if drop:
            self.decisions.append(decision)
        return decision

    def corrupt_payload(self, payload):
        return payload


class TestAllMarkersLost:
    def test_every_replica_fires_and_result_stays_exact(self):
        sim, net, devices, contribs, procs, querier, rows = _swarm()
        plan, spec = _backup_plan(contribs, procs, querier, rows, replicas=1)
        net.install_faults(_ControlBlackhole())
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=15.0, deadline=90.0, secure_channels=False,
        )
        report = executor.run()
        assert report.success
        assert net.faults.decisions, "no CONTROL marker was even sent"
        # with no markers heard, every rank-1 replica believes its
        # primary silent and takes over
        fired = {base for _, base, _ in takeovers(executor.evidence())}
        assert fired == set(executor.strategy.ranks_by_base)
        # no (base, rank) pair fired twice
        per_pair = Counter(
            (base, rank) for _, base, rank in takeovers(executor.evidence())
        )
        assert all(count == 1 for count in per_pair.values())
        # duplicated partitions / partials were all deduplicated
        assert compare_results(
            _centralized(spec, rows), report.result
        ).exact_match


class TestReplicaCrashMidTakeover:
    def test_next_rank_takes_over_when_replica_dies_in_its_window(self):
        sim, net, devices, contribs, procs, querier, rows = _swarm(
            n_processors=30
        )
        plan, spec = _backup_plan(contribs, procs, querier, rows, replicas=2)
        primary = plan.operator("builder[0]").assigned_to
        first_replica = plan.operator("builder[0].b1").assigned_to
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=15.0, deadline=120.0, secure_channels=False,
        )
        # primary dies during collection; rank 1 dies *inside its own
        # takeover window* (collection ends at 15, rank-1 fires at 20)
        sim.schedule(1.0, lambda: net.kill(primary))
        sim.schedule(17.0, lambda: net.kill(first_replica))
        report = executor.run()
        assert report.success
        ranks = {
            rank for _, base, rank in takeovers(executor.evidence())
            if base == "builder[0]"
        }
        # rank 1 logged its (doomed) takeover, rank 2 completed the job;
        # each at most once
        assert 2 in ranks
        per_pair = Counter(
            (base, rank) for _, base, rank in takeovers(executor.evidence())
        )
        assert all(count == 1 for count in per_pair.values())
        assert compare_results(
            _centralized(spec, rows), report.result
        ).exact_match


class TestResetFencesTakeoverTimers:
    def test_armed_timer_does_not_fire_across_reset(self):
        sim, net, devices, contribs, procs, querier, rows = _swarm()
        plan, _ = _backup_plan(contribs, procs, querier, rows, replicas=1)
        primary = plan.operator("builder[0]").assigned_to
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=15.0, deadline=80.0, secure_channels=False,
        )
        sim.schedule(1.0, lambda: net.kill(primary))
        # drive the run()-prologue by hand so we can stop the clock
        # mid-takeover-window: collection ends at 15.0, the rank-1
        # builder timer is armed for 20.0
        executor.attach_handlers()
        executor.contributor.schedule_contributions()
        sim.schedule_at(
            executor.collect_end, executor.end_collection, "end-collection"
        )
        sim.run_until(16.0)
        # capture a fire closure under the old epoch — the same closure
        # the armed timer holds
        stale = executor.strategy._make_takeover(
            plan.operator("builder[0].b1"), executor.builder.run
        )
        epoch_before = sim.epoch
        sim.reset()
        assert sim.epoch == epoch_before + 1
        assert takeovers(executor.evidence()) == []
        fresh_epoch = sim.epoch

        def rearm():
            # simulates a queue that survived reset: directly invoke a
            # closure captured under the previous epoch
            stale()

        sim.schedule(1.0, rearm)
        sim.run_until(30.0)
        assert takeovers(executor.evidence()) == []
        assert sim.epoch == fresh_epoch

    def test_fence_allows_timers_of_current_epoch(self):
        sim, net, devices, contribs, procs, querier, rows = _swarm()
        plan, _ = _backup_plan(contribs, procs, querier, rows, replicas=1)
        primary = plan.operator("builder[0]").assigned_to
        executor = ExecutionCoordinator(
            sim, net, devices, plan,
            collection_window=15.0, deadline=80.0, secure_channels=False,
        )
        sim.schedule(1.0, lambda: net.kill(primary))
        report = executor.run()
        # sanity: without a reset the same timers do fire
        assert report.success
        assert any(
            base == "builder[0]" for _, base, _ in takeovers(executor.evidence())
        )
