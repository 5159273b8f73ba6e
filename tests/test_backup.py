"""Tests for the Backup strategy's runtime replica chain.

A chain is one base operator (``builder[0]``, ``computer[0,g0]``) at
ranks ``0..replicas``; the primary runs the same path as an
Overcollection primary and each replica takes over
``rank * TAKEOVER_TIMEOUT`` later unless a lower rank already shipped.
Its ``TAKEOVER`` events are the promotion record.
"""

from __future__ import annotations

from repro.cli import main
from repro.core.planner import PrivacyParameters, ResiliencyParameters
from repro.core.qep import rank_of
from repro.core.resiliency import TAKEOVER_TIMEOUT, worst_case_delay
from repro.core.runtime import ExecutionCoordinator
from repro.core.runtime.events import EventKind, of_kind
from repro.core.runtime.strategy import base_op_id
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.manager.scenario import Scenario, ScenarioConfig
from repro.network.failures import FailurePlan
from repro.network.messages import MessageKind
from repro.plan.compile import OPTIMIZER_COST, compile_query
from repro.plan.substrate import SUBSTRATE_PROFILES

from tests.evidence_logs import takeovers
from tests.test_backup_execution import _backup_plan, _swarm

COLLECT = 15.0


def _run(replicas: int = 2, kill_ranks: tuple[int, ...] = (), kill_at: float = 1.0):
    """One Backup execution killing ``builder[0]``'s devices at ``kill_ranks``."""
    sim, net, devices, contribs, procs, querier, rows = _swarm(n_processors=30)
    plan, _ = _backup_plan(contribs, procs, querier, rows, replicas=replicas)
    executor = ExecutionCoordinator(
        sim, net, devices, plan,
        collection_window=COLLECT, deadline=100.0, secure_channels=False,
    )
    for rank in kill_ranks:
        suffix = "" if rank == 0 else f".b{rank}"
        victim = plan.operator(f"builder[0]{suffix}").assigned_to
        sim.schedule(kill_at, lambda victim=victim: net.kill(victim))
    return executor, executor.run()


def _frozen_by(report, base: str) -> list[str]:
    """Op ids that froze a snapshot of ``base``, in order."""
    return [
        event.op for event in of_kind(report.events, EventKind.SNAPSHOT_FROZEN)
        if base_op_id(event.op) == base
    ]


class TestBackupChain:
    def test_primary_active_initially(self):
        executor, report = _run()
        assert report.success
        assert takeovers(executor.evidence()) == []
        assert _frozen_by(report, "builder[0]") == ["builder[0]"]

    def test_rank_bounds_checked(self):
        executor, _ = _run(replicas=2)
        chains = executor.strategy.ranks_by_base
        assert chains
        for ops in chains.values():
            assert [rank_of(op) for op in ops] == [0, 1, 2]

    def test_promotion_sequence(self):
        for killed, active in (((0,), 1), ((0, 1), 2)):
            executor, report = _run(kill_ranks=killed)
            assert report.success
            assert _frozen_by(report, "builder[0]") == [f"builder[0].b{active}"]
            ranks = [
                rank for _, base, rank in takeovers(executor.evidence())
                if base == "builder[0]"
            ]
            assert ranks == list(range(1, active + 1))

    def test_promotion_records(self):
        executor, _ = _run(replicas=1, kill_ranks=(0,))
        records = [
            record for record in takeovers(executor.evidence())
            if record[1] == "builder[0]"
        ]
        assert records == [(COLLECT + TAKEOVER_TIMEOUT, "builder[0]", 1)]

    def test_checkpoint_replicated_to_all_ranks(self):
        executor, _ = _run(replicas=2)
        buckets = executor.builder.buckets
        for partition_index in executor.builder_rows:
            primary = buckets[f"builder[{partition_index}]"]
            assert primary
            for rank in (1, 2):
                assert buckets[f"builder[{partition_index}].b{rank}"] == primary

    def test_replica_resumes_from_checkpoint(self):
        # the primary dies once collection is over, holding every row
        executor, report = _run(replicas=1, kill_ranks=(0,), kill_at=COLLECT - 0.1)
        assert report.success
        buckets = executor.builder.buckets
        assert buckets["builder[0].b1"] == buckets["builder[0]"]
        frozen = [
            event.fields["rows"]
            for event in of_kind(report.events, EventKind.SNAPSHOT_FROZEN)
            if event.op == "builder[0].b1"
        ]
        assert frozen == [len(executor.builder_rows[0])]

    def test_failure_after_exhaustion_stays_none(self):
        executor, report = _run(kill_ranks=(0, 1, 2))
        assert _frozen_by(report, "builder[0]") == []
        ranks = [
            rank for _, base, rank in takeovers(executor.evidence())
            if base == "builder[0]"
        ]
        assert ranks == [1, 2]
        dead = [
            event.op for event in of_kind(report.events, EventKind.BUILDER_DEAD)
            if base_op_id(event.op) == "builder[0]"
        ]
        assert len(dead) == 3


def _ship_schedule(resiliency: ResiliencyParameters) -> dict[int, tuple]:
    """Fault-free run: per partition, (freeze time, first ship time,
    the rank-0 builder's compute latency)."""
    sim, net, devices, contribs, procs, querier, rows = _swarm()
    plan, _ = _backup_plan(contribs, procs, querier, rows, resiliency=resiliency)
    executor = ExecutionCoordinator(
        sim, net, devices, plan,
        collection_window=COLLECT, deadline=60.0, secure_channels=False,
    )
    ships: dict[int, float] = {}
    ship = executor.ctx.ship

    def recording_ship(sender, target, kind, payload, **options):
        if kind is MessageKind.PARTITION:
            ships.setdefault(payload["partition_index"], sim.now)
        return ship(sender, target, kind, payload, **options)

    executor.ctx.ship = recording_ship
    report = executor.run()
    assert report.success
    schedule = {}
    for partition_index, builder in executor.builder.builder_by_partition.items():
        [frozen_at] = [
            event.time
            for event in of_kind(report.events, EventKind.SNAPSHOT_FROZEN)
            if event.op == builder.op_id
        ]
        rows = executor.builder_rows[partition_index]
        latency = executor.ctx.device_of(builder).compute_latency(float(len(rows)))
        schedule[partition_index] = (frozen_at, ships[partition_index], latency)
    return schedule


class TestRankZeroIsOnePath:
    def test_backup_primaries_freeze_and_ship_like_overcollection(self):
        backup = _ship_schedule(
            ResiliencyParameters(replicas=1)
        )
        overcollection = _ship_schedule(ResiliencyParameters(fault_rate=0.0))
        assert backup == overcollection
        for frozen_at, shipped_at, latency in backup.values():
            assert frozen_at == COLLECT
            assert latency > 0
            assert shipped_at == COLLECT + latency


PRICE_SQL = "SELECT count(*), avg(age) FROM health GROUP BY region"


def _compile(**options):
    return compile_query(
        PRICE_SQL, query_id="price", snapshot_cardinality=60,
        privacy=PrivacyParameters(max_raw_per_edgelet=30), **options,
    )


def _launch(failure_plan: FailurePlan | None = None):
    """A Backup r=1 aggregate through the one launch path."""
    config = ScenarioConfig(
        n_contributors=30, n_processors=20,
        rows=generate_health_rows(60, seed=3), schema=HEALTH_SCHEMA,
        device_mix=(1.0, 0.0, 0.0), seed=3, scenario_tag="price",
        failure_plan=failure_plan,
    )
    compiled = _compile(
        resiliency=ResiliencyParameters(replicas=1)
    )
    return Scenario(config).run_compiled(compiled)


class TestPriceIsWhatRuns:
    def test_takeover_lands_at_the_planned_price(self, capsys):
        # the same tag and seed rebuild the same swarm and assignment
        victim = _launch().plan.operator("builder[0]").assigned_to
        executor = _launch(FailurePlan().crash(victim, 1.0)).executor
        [(at, rank)] = [
            (at, rank) for at, base, rank in takeovers(executor.evidence())
            if base == "builder[0]"
        ]
        assert rank == 1
        measured = at - executor.collect_end
        assert measured == worst_case_delay(1)

        explain = _compile(
            optimizer=OPTIMIZER_COST, substrate=SUBSTRATE_PROFILES["residential"]
        ).explain
        [candidate] = [
            report for report in explain.candidates
            if report.key == "backup/raw30/r1/packed"
        ]
        assert candidate.cost.extra_latency == measured

        assert main(["advise", "--n", "4"]) == 0
        assert f"worst extra latency: {measured:.0f}s" in capsys.readouterr().out
