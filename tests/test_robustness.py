"""Correlated-failure robustness: detection, fencing, split-brain.

End-to-end coverage of the robustness issue's acceptance bar:

* fenced combiner acceptance (generation-monotone replace/reject);
* the φ-accrual detector reprovisioning a *partitioned* Computer the
  fixed watchdog cannot see (the device stays nominally online);
* the negative harness test — with fencing off, a reprovision racing a
  slow zombie demonstrably trips the ``no_split_brain`` invariant, and
  turning fencing on removes exactly that violation;
* a seeded campaign mixing partitions, correlated regional crashes,
  and gray failures with every invariant green;
* legacy byte-identity: runs without the new machinery draw nothing
  from it.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest

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


class TestFencedCombinerState:
    def _state(self):
        return CombinerState(
            name="combiner",
            config=OvercollectionConfig(n=2, m=1, snapshot_cardinality=8),
            n_groups=1,
            query=None,
        )

    def test_unfenced_path_is_first_wins(self):
        state = self._state()
        assert state.record_partial(0, 0, "first") == "accepted"
        assert state.record_partial(0, 0, "second") == "duplicate"
        assert state.partials[(0, 0)] == "first"
        assert state.fenced_rejections == 0
        assert state.accepted_generations == {}

    def test_fenced_higher_generation_replaces_without_retally(self):
        state = self._state()
        assert state.record_partial(0, 0, "old", generation=0, fenced=True) == (
            "accepted"
        )
        tally_after_accept = state.tally_summary()["received"]
        assert state.record_partial(0, 0, "new", generation=1, fenced=True) == (
            "replaced"
        )
        assert state.partials[(0, 0)] == "new"
        assert state.accepted_generations[(0, 0)] == 1
        assert state.fenced_replacements == 1
        # the replacement holds the same cell — received count unchanged
        assert state.tally_summary()["received"] == tally_after_accept

    def test_fenced_equal_generation_is_first_wins(self):
        state = self._state()
        state.record_partial(0, 0, "first", generation=2, fenced=True)
        assert state.record_partial(0, 0, "second", generation=2, fenced=True) == (
            "rejected"
        )
        assert state.partials[(0, 0)] == "first"
        assert state.fenced_rejections == 1

    def test_fenced_stale_generation_is_rejected(self):
        state = self._state()
        state.record_partial(0, 0, "current", generation=3, fenced=True)
        assert state.record_partial(0, 0, "zombie", generation=1, fenced=True) == (
            "rejected"
        )
        assert state.partials[(0, 0)] == "current"
        assert state.accepted_generations[(0, 0)] == 3


def _record(fire_log, arrival_log, fencing=False, detector=False,
            events=(), combiners=None):
    executor = SimpleNamespace(
        fire_log=list(fire_log),
        arrival_log=list(arrival_log),
        ctx=SimpleNamespace(fencing=fencing, detector=detector or None),
        combiners=combiners or {},
    )
    result = SimpleNamespace(executor=executor, failure_events=list(events))
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
            (38.0, self.CELL, "combiner", "dev-a", 0, "duplicate"),
        ]
        return fire_log, arrival_log

    def test_gated_off_without_fencing_detector_or_outages(self):
        # the legacy disconnect-reconnect reprovision race predates
        # fencing and is benign; the check must not flag old runs
        fire_log, arrival_log = self._conflicting_logs()
        assert check_no_split_brain(_record(fire_log, arrival_log)) is None

    def test_same_generation_two_owners_is_a_violation(self):
        fire_log, arrival_log = self._conflicting_logs()
        violation = check_no_split_brain(
            _record(fire_log, arrival_log, detector=True)
        )
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
        assert check_no_split_brain(
            _record(fire_log, arrival_log, fencing=True, detector=True)
        ) is None

    def test_single_device_duplicates_are_legitimate(self):
        fire_log = [(25.0, self.CELL, "dev-a", 0)]
        arrival_log = [
            (25.5, self.CELL, "combiner", "dev-a", 0, "accepted"),
            (26.0, self.CELL, "combiner", "dev-a", 0, "duplicate"),
        ]
        assert check_no_split_brain(
            _record(fire_log, arrival_log, detector=True)
        ) is None

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
            _record(
                fire_log,
                arrival_log,
                fencing=True,
                combiners={"combiner": stale},
            )
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
        return RunSpec(
            **BASE, failure_plan=plan, detector=adaptive, fencing=adaptive
        )

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
        adaptive = run_single(RunSpec(**BASE, detector=True, fencing=True))
        assert adaptive.ok
        evicted = lambda outcome: [  # noqa: E731
            (op, old)
            for _t, op, old, _new in outcome.result.report.reprovisions
        ]
        assert evicted(adaptive) == evicted(fixed)


class TestSplitBrainNegative:
    """The issue's negative harness test: fencing off, a gray zombie's
    stale partial races the fenced takeover and the ``no_split_brain``
    invariant catches it; fencing on removes exactly that ambiguity."""

    def _gray_zombie_spec(self, victim_id, fencing):
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
            fencing=fencing,
            # two standby reprovisions may concentrate operators; the
            # liability share cap is not what this test is about
            liability_max_share=1.0,
        )

    def test_without_fencing_the_harness_catches_the_split_brain(self, victim):
        victim_id, cell = victim
        outcome = run_single(self._gray_zombie_spec(victim_id, fencing=False))
        names = [v.invariant for v in outcome.violations]
        assert "no_split_brain" in names, names
        violation = next(
            v for v in outcome.violations if v.invariant == "no_split_brain"
        )
        assert victim_id in violation.data["senders"]
        # both owners really did fire the same cell at generation 0
        firers = {
            dev for _t, c, dev, gen in outcome.result.executor.fire_log
            if c == cell and gen == 0
        }
        assert len(firers) == 2

    def test_fencing_rejects_the_zombie_and_clears_the_violation(self, victim):
        victim_id, cell = victim
        outcome = run_single(self._gray_zombie_spec(victim_id, fencing=True))
        names = [v.invariant for v in outcome.violations]
        assert "no_split_brain" not in names, names
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
    """One ddmin over every atom kind: the split-brain gray zombie plus
    noise of all five kinds on devices the query never uses shrinks to
    the guilty gray window alone, through the campaign's artifact path."""

    def test_scripted_artifact_keeps_only_the_guilty_gray_window(self, victim):
        import json

        from repro.chaos.artifact import ReproArtifact
        from repro.chaos.campaign import _build_artifact

        victim_id, _cell = victim
        clean = run_single(RunSpec(**BASE))
        used = {op.assigned_to for op in clean.result.plan.operators()}
        idle = [
            device
            for device in (f"robust-proc-{i:05d}" for i in range(20))
            if device not in used
        ]
        assert len(idle) >= 5
        spec = TestSplitBrainNegative()._gray_zombie_spec(victim_id, fencing=False)
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
            v for v in outcome.violations if v.invariant == "no_split_brain"
        )

        artifact = _build_artifact(
            CampaignConfig(), spec, outcome, violation, ReproArtifact
        )
        assert artifact.mode == "scripted"
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
                fencing=True,
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
        spec = RunSpec(**BASE, failure_plan=plan, detector=True, fencing=True)
        first = run_single(spec)
        second = run_single(spec)
        assert self._fingerprint(first) == self._fingerprint(second)
        assert (
            first.result.report.reprovisions
            == second.result.report.reprovisions
        )
