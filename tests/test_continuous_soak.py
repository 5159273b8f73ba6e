"""Acceptance soak: 30+ consecutive windows under churn + message faults.

The issue's bar: a standing query survives at least thirty consecutive
windows over a churning population with message-level faults and
reliable delivery enabled, and *every* window meets the full invariant
suite (Resiliency, Validity, Crowd Liability, dedup, takeover) plus the
run-level conservation identities.
"""

from __future__ import annotations

from repro.chaos import run_soak
from repro.continuous import StandingQuerySpec
from repro.devices.churn import ChurnSpec
from repro.network.faults import parse_fault_mix
from repro.network.failures import FailurePlan, GrayWindow, Partition
from repro.telemetry import Telemetry


def _soak_spec(windows: int, seed: int) -> StandingQuerySpec:
    return StandingQuerySpec(
        name="soak",
        max_windows=windows,
        seed=seed,
        reliability=True,
        snapshot_cardinality=192,
    )


class TestThirtyWindowSoak:
    def test_32_windows_churn_and_faults_all_invariants(self):
        spec = _soak_spec(32, seed=7)
        outcome = run_soak(
            spec,
            churn=ChurnSpec(
                departure_probability=0.10,
                data_change_probability=0.20,
                seed=7,
            ),
            fault_specs=tuple(parse_fault_mix("drop=0.05")),
            standby_count=2,
            telemetry=Telemetry(),
        )
        assert outcome.result.completed + outcome.result.skipped >= 30
        assert outcome.ok, [str(v) for v in outcome.violations]
        for window in outcome.units:
            assert window.ok, (window.unit_id, window.violations)
        # the soak actually exercised chaos, not a clean run in disguise
        assert not outcome.clean

    def test_soak_survives_partition_and_gray_outages(self):
        # topology-level outages on top of churn: one processor cut off
        # across windows 2-3, another gray-degraded across windows 5-7
        # (cadence is 20s, so 8 windows span 160s of virtual time)
        spec = _soak_spec(8, seed=11)
        plan = FailurePlan(
            partitions=[
                Partition(
                    start=40.0, end=70.0, islands=(("soak11-proc-00003",),)
                )
            ],
            gray_windows=[
                GrayWindow(
                    device_id="soak11-proc-00005",
                    start=100.0,
                    end=160.0,
                    latency_factor=6.0,
                    extra_loss=0.2,
                )
            ],
        )
        outcome = run_soak(
            spec,
            churn=ChurnSpec(departure_probability=0.10, seed=11),
            failure_plan=plan,
            standby_count=2,
            telemetry=Telemetry(),
        )
        assert outcome.ok, [str(v) for v in outcome.violations]
        assert outcome.result.completed + outcome.result.skipped == 8
        assert not outcome.clean
        # the outage evidence made it into the failure-event record
        kinds = {e.kind for e in outcome.failure_events}
        assert "partition_start" in kinds and "gray_start" in kinds

    def test_soak_replays_deterministically(self):
        spec = _soak_spec(8, seed=11)
        options = dict(
            churn=ChurnSpec(departure_probability=0.15, seed=11),
            fault_specs=tuple(parse_fault_mix("drop=0.05")),
        )
        a = run_soak(spec, telemetry=Telemetry(), **options)
        b = run_soak(spec, telemetry=Telemetry(), **options)
        assert a.result.fingerprints() == b.result.fingerprints()
        assert [w.outcome for w in a.units] == [w.outcome for w in b.units]


class TestCleanSoak:
    def test_no_chaos_no_churn_is_flagged_clean(self):
        spec = _soak_spec(5, seed=3)
        outcome = run_soak(spec, telemetry=Telemetry())
        assert outcome.ok, [str(v) for v in outcome.violations]
        assert outcome.result.completed == 5

    def test_summary_rows_cover_every_window(self):
        spec = _soak_spec(5, seed=3)
        outcome = run_soak(spec, telemetry=Telemetry())
        assert len(outcome.summary_rows()) == len(outcome.units)
