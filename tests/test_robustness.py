"""Correlated-failure robustness: detection, fencing, split-brain.

End-to-end coverage of the robustness issue's acceptance bar:

* the combiner's one acceptance rule (generation-monotone
  replace/reject), as a property over every arrival order;
* the φ-accrual detector reprovisioning a *partitioned* Computer the
  fixed watchdog cannot see (the device stays nominally online);
* a reprovision racing a slow zombie: the takeover's higher generation
  fences the zombie's stragglers out and ``no_split_brain`` stays green;
* a seeded campaign mixing partitions, correlated regional crashes,
  and gray failures with every invariant green;
* legacy byte-identity: runs without the new machinery draw nothing
  from it.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.campaign import CampaignConfig, RunSpec, run_campaign, run_single
from repro.chaos.invariants import RunRecord, check_no_split_brain
from repro.core.overcollection import OvercollectionConfig
from repro.core.runtime.combiner import CombinerState
from repro.network.failures import (
    FailurePlan,
    GrayWindow,
    Partition,
    RegionalCrash,
)
from repro.network.outages import OutageSpec
from repro.telemetry import Telemetry

BASE = dict(seed=13, tag="robust", reliability=True)


def _probe_victim():
    """One clean run to learn a safe victim: a Computer-assigned device
    hosting no builder/combiner operator whose cell actually fires in
    the clean run (partitions that drew no contributions have nothing
    to starve)."""
    outcome = run_single(RunSpec(**BASE))
    assert outcome.ok
    executor = outcome.result.executor
    ctx = executor.ctx
    reserved = {ctx.device_of(ctx.plan.operator("combiner")).device_id}
    for op in executor.builder.builder_by_partition.values():
        reserved.add(ctx.device_of(op).device_id)
    fired = {device for _t, _cell, device, _gen in executor.fire_log}
    for op in sorted(executor.computer.computers, key=lambda o: o.op_id):
        device = op.assigned_to
        if device and device not in reserved and device in fired:
            cell = (
                op.params["partition_index"],
                op.params.get("group_index", 0),
            )
            return device, cell
    raise RuntimeError("no dedicated firing Computer device found")


@pytest.fixture(scope="module")
def victim():
    return _probe_victim()


def _state():
    return CombinerState(
        name="combiner",
        config=OvercollectionConfig(n=2, m=1, snapshot_cardinality=8),
        n_groups=1,
        query=None,
    )


@settings(max_examples=200, deadline=None)
@given(generations=st.lists(st.integers(0, 3), min_size=1, max_size=8))
def test_the_combiner_holds_the_first_arrival_of_the_highest_generation(
    generations,
):
    # partial ``i`` is the ``i``-th arrival, at ``generations[i]``
    state = _state()
    for index, generation in enumerate(generations):
        disposition = state.record_partial(0, 0, index, generation=generation)
        held = generations[:index]
        if not held:
            assert disposition == "accepted"
        elif generation > max(held):
            assert disposition == "replaced"
        else:
            assert disposition == "rejected"
    highest = max(generations)
    assert state.partials[(0, 0)] == generations.index(highest)
    assert state.accepted_generations[(0, 0)] == highest
    # a replacement holds the same cell: it is tallied once
    assert state.tally_summary()["received"] == 1


class TestFencedCombinerState:
    def test_fenced_higher_generation_replaces_without_retally(self):
        state = _state()
        assert state.record_partial(0, 0, "old", generation=0) == "accepted"
        tally_after_accept = state.tally_summary()["received"]
        assert state.record_partial(0, 0, "new", generation=1) == "replaced"
        assert state.partials[(0, 0)] == "new"
        assert state.accepted_generations[(0, 0)] == 1
        # the replacement holds the same cell — received count unchanged
        assert state.tally_summary()["received"] == tally_after_accept

    def test_fenced_equal_generation_is_first_wins(self):
        state = _state()
        state.record_partial(0, 0, "first", generation=2)
        assert state.record_partial(0, 0, "second", generation=2) == "rejected"
        assert state.partials[(0, 0)] == "first"

    def test_fenced_stale_generation_is_rejected(self):
        state = _state()
        state.record_partial(0, 0, "current", generation=3)
        assert state.record_partial(0, 0, "zombie", generation=1) == "rejected"
        assert state.partials[(0, 0)] == "current"
        assert state.accepted_generations[(0, 0)] == 3


def _record(fire_log, arrival_log, events=(), combiners=None):
    evidence = SimpleNamespace(
        fire_log=list(fire_log),
        arrival_log=list(arrival_log),
        combiners=combiners or {},
    )
    result = SimpleNamespace(evidence=evidence, failure_events=list(events))
    return RunRecord(result=result)


class TestNoSplitBrainInvariant:
    CELL = (2, 0)

    def _conflicting_logs(self):
        fire_log = [
            (25.0, self.CELL, "dev-a", 0),
            (31.0, self.CELL, "dev-b", 0),
        ]
        arrival_log = [
            (31.5, self.CELL, "combiner", "dev-b", 0, "accepted"),
            (38.0, self.CELL, "combiner", "dev-a", 0, "rejected"),
        ]
        return fire_log, arrival_log

    def test_same_generation_two_owners_is_a_violation(self):
        fire_log, arrival_log = self._conflicting_logs()
        violation = check_no_split_brain(_record(fire_log, arrival_log))
        assert violation is not None
        assert violation.invariant == "no_split_brain"
        assert violation.data["senders"] == ["dev-a", "dev-b"]

    def test_outage_evidence_alone_arms_the_check(self):
        fire_log, arrival_log = self._conflicting_logs()
        events = [SimpleNamespace(kind="partition_start")]
        assert check_no_split_brain(
            _record(fire_log, arrival_log, events=events)
        ) is not None

    def test_distinct_generations_are_legitimate(self):
        # backup replicas fire at distinct ranks; a fenced takeover
        # fires at a strictly higher generation — neither is ambiguous
        fire_log = [
            (25.0, self.CELL, "dev-a", 0),
            (31.0, self.CELL, "dev-b", 1),
        ]
        arrival_log = [
            (31.5, self.CELL, "combiner", "dev-b", 1, "accepted"),
            (38.0, self.CELL, "combiner", "dev-a", 0, "rejected"),
        ]
        assert check_no_split_brain(_record(fire_log, arrival_log)) is None

    def test_single_device_duplicates_are_legitimate(self):
        fire_log = [(25.0, self.CELL, "dev-a", 0)]
        arrival_log = [
            (25.5, self.CELL, "combiner", "dev-a", 0, "accepted"),
            (26.0, self.CELL, "combiner", "dev-a", 0, "rejected"),
        ]
        assert check_no_split_brain(_record(fire_log, arrival_log)) is None

    def test_fenced_combiner_holding_stale_generation_is_a_violation(self):
        fire_log = [
            (25.0, self.CELL, "dev-a", 0),
            (31.0, self.CELL, "dev-b", 1),
        ]
        arrival_log = [
            (31.5, self.CELL, "combiner", "dev-b", 1, "accepted"),
        ]
        stale = SimpleNamespace(accepted_generations={self.CELL: 0})
        violation = check_no_split_brain(
            _record(fire_log, arrival_log, combiners={"combiner": stale})
        )
        assert violation is not None
        assert "stale generation" in violation.detail


class TestDetectorDrivenRecovery:
    def _partition_spec(self, victim_id, adaptive, duration=30.0):
        plan = FailurePlan(
            partitions=[
                Partition(
                    start=18.0, end=18.0 + duration, islands=((victim_id,),)
                )
            ]
        )
        return RunSpec(**BASE, failure_plan=plan, detector=adaptive)

    def test_partition_is_invisible_to_the_fixed_watchdog(self, victim):
        victim_id, _cell = victim
        outcome = run_single(self._partition_spec(victim_id, adaptive=False))
        # the cut device stays nominally online, so the watchdog keeps
        # ruling "maybe just slow" and never reprovisions the cell
        assert outcome.result.report.reprovisions == []

    def test_detector_reprovisions_the_partitioned_cell(self, victim):
        victim_id, cell = victim
        outcome = run_single(self._partition_spec(victim_id, adaptive=True))
        report = outcome.result.report
        assert outcome.ok, [str(v) for v in outcome.violations]
        assert report.success
        reprovisioned = [old for _t, _op, old, _new in report.reprovisions]
        assert victim_id in reprovisioned
        # the takeover fired under a fencing token and its partial landed
        executor = outcome.result.executor
        generations = {
            gen for _t, c, _dev, gen in executor.fire_log if c == cell
        }
        assert max(generations) >= 1
        arrived = {
            c for _t, c, _op, _s, _g, disp in executor.arrival_log
            if disp in ("accepted", "replaced")
        }
        assert cell in arrived

    def test_detector_adds_no_false_positives_on_a_clean_run(self, victim):
        # acceptance bar: the adaptive detector matches the fixed
        # watchdog on a healthy run — same cells, same evicted devices,
        # no extra kills from over-eager suspicion
        fixed = run_single(RunSpec(**BASE))
        adaptive = run_single(RunSpec(**BASE, detector=True))
        assert adaptive.ok
        evicted = lambda outcome: [  # noqa: E731
            (op, old)
            for _t, op, old, _new in outcome.result.report.reprovisions
        ]
        assert evicted(adaptive) == evicted(fixed)


class TestSplitBrainNegative:
    """A gray zombie's stale partial races the fenced takeover: the
    takeover's higher generation wins at the combiner, so the
    ``no_split_brain`` invariant has no same-generation pair to flag."""

    def _gray_zombie_spec(self, victim_id):
        # latency x200 makes the victim receive its partition shipment,
        # fire, and then crawl: the partial is still in flight when the
        # detector reprovisions the cell, and arrives after the
        # standby's — the classic zombie resurfacing
        plan = FailurePlan(
            gray_windows=[
                GrayWindow(
                    device_id=victim_id,
                    start=10.0,
                    end=68.0,
                    latency_factor=200.0,
                    extra_loss=0.0,
                )
            ]
        )
        return RunSpec(
            **BASE,
            failure_plan=plan,
            detector=True,
            # two standby reprovisions may concentrate operators; the
            # liability share cap is not what this test is about
            liability_max_share=1.0,
        )

    def test_fencing_rejects_the_zombie_and_clears_the_violation(self, victim):
        victim_id, cell = victim
        outcome = run_single(self._gray_zombie_spec(victim_id))
        # no split brain, and the evicted zombie's tuples count against
        # the operator it hosted (no crowd-liability over-exposure)
        assert outcome.violations == [], [str(v) for v in outcome.violations]
        executor = outcome.result.executor
        # the standby's generation-1 partial holds the cell; the
        # zombie's generation-0 stragglers were fenced out
        dispositions = [
            (gen, disp)
            for _t, c, _op, sender, gen, disp in executor.arrival_log
            if c == cell and sender == victim_id
        ]
        assert dispositions and all(
            disp == "rejected" for _gen, disp in dispositions
        )
        assert executor.ctx.generations[cell] == 1


class TestMixedKindShrink:
    """One ddmin over every atom kind: the gray zombie plus noise of all
    five kinds on devices the query never uses shrinks to the guilty
    gray window alone, through the campaign's artifact path."""

    def test_scripted_artifact_keeps_only_the_guilty_gray_window(
        self, victim, monkeypatch
    ):
        import json

        from repro.chaos import invariants
        from repro.chaos.artifact import ReproArtifact
        from repro.chaos.campaign import _build_artifact
        from repro.chaos.invariants import Violation

        victim_id, _cell = victim

        def check_zombie_evicted(record):
            # the test's own invariant: the gray window alone makes the
            # detector evict the zombie (fencing leaves the shipped
            # invariants nothing to flag)
            reprovisions = record.report.reprovisions
            if victim_id in [old for _t, _op, old, _new in reprovisions]:
                return Violation("zombie_evicted", f"{victim_id} evicted")
            return None

        monkeypatch.setitem(
            invariants.INVARIANTS, "zombie_evicted", check_zombie_evicted
        )
        clean = run_single(RunSpec(**BASE))
        used = {op.assigned_to for op in clean.result.plan.operators()}
        idle = [
            device
            for device in (f"robust-proc-{i:05d}" for i in range(20))
            if device not in used
        ]
        assert len(idle) >= 5
        spec = TestSplitBrainNegative()._gray_zombie_spec(victim_id)
        guilty = spec.failure_plan.gray_windows[0]
        plan = FailurePlan(
            partitions=[Partition(start=15.0, end=45.0, islands=((idle[-4],),))],
            regional_crashes=[
                RegionalCrash(at=30.0, region="region-x", devices=(idle[-5],))
            ],
            gray_windows=[
                guilty, GrayWindow(device_id=idle[-3], start=5.0, end=30.0)
            ],
        )
        plan.crash(idle[-1], 12.0).disconnect(idle[-2], 8.0, 20.0)
        spec = dataclasses.replace(spec, failure_plan=plan)
        outcome = run_single(spec)
        violation = next(
            v for v in outcome.violations if v.invariant == "zombie_evicted"
        )

        artifact = _build_artifact(
            CampaignConfig(), spec, outcome, violation, ReproArtifact
        )
        assert artifact.spec.failure_plan.to_dict() == FailurePlan(
            gray_windows=[guilty]
        ).to_dict()
        loaded = ReproArtifact.from_dict(json.loads(artifact.to_json()))
        assert loaded.to_dict() == artifact.to_dict()
        assert loaded.reproduced(loaded.replay())


class TestOutageCampaign:
    def test_mixed_outage_campaign_keeps_every_invariant(self):
        config = CampaignConfig(
            base=RunSpec(
                seed=7,
                tag="chaos",
                reliability=True,
                detector=True,
                validity_tolerance=1.5,
                outage_spec=OutageSpec(
                    partition_probability=0.3,
                    region_crash_probability=0.1,
                    gray_probability=0.25,
                ),
            ),
            runs=6,
            replicas=(0, 1),
            crash_probabilities=(0.0,),
        )
        result = run_campaign(config, telemetry=Telemetry())
        assert len(result.outcomes) == 6
        assert result.ok, [str(v) for _i, v in result.violations]
        # the campaign actually drew outages, not a clean sweep in disguise
        kinds = [
            event.kind
            for outcome in result.outcomes
            for event in outcome.result.failure_events
        ]
        assert any(
            kind in ("partition_start", "gray_start", "crash")
            for kind in kinds
        )


class TestLegacyByteIdentity:
    def _fingerprint(self, outcome):
        report = outcome.result.report
        rows = report.result.all_rows() if report.result is not None else None
        return (report.success, repr(rows), repr(report.network_stats))

    def test_empty_outage_plan_draws_nothing(self):
        baseline = run_single(RunSpec(seed=21, tag="legacy", message_loss=0.2))
        with_empty = run_single(
            RunSpec(
                seed=21,
                tag="legacy",
                message_loss=0.2,
                failure_plan=FailurePlan(),
                outage_spec=OutageSpec(),  # no-op spec: never expanded
            )
        )
        assert self._fingerprint(with_empty) == self._fingerprint(baseline)

    def test_outage_run_replays_bit_for_bit(self, victim):
        victim_id, _cell = victim
        plan = FailurePlan(
            partitions=[
                Partition(start=18.0, end=48.0, islands=((victim_id,),))
            ]
        )
        spec = RunSpec(**BASE, failure_plan=plan, detector=True)
        first = run_single(spec)
        second = run_single(spec)
        assert self._fingerprint(first) == self._fingerprint(second)
        assert (
            first.result.report.reprovisions
            == second.result.report.reprovisions
        )
