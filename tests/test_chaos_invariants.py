"""Tests for the executable property invariants (repro.chaos.invariants)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.chaos.invariants import (
    RunRecord,
    check_crowd_liability,
    check_liability_max_share,
    check_no_double_takeover,
    check_resiliency,
    check_validity,
    no_fault_observed,
)
from repro.core.overcollection import OvercollectionConfig
from repro.core.resiliency import replicas_for
from repro.core.runtime import CombinerState
from repro.core.runtime.events import Event, EventKind
from repro.errors import SpecError
from repro.network.opnet import LOSS_COUNTERS, NetworkStats
from repro.query.aggregates import AggregateSpec
from repro.query.groupby import (
    GroupByQuery,
    evaluate_group_by,
    finalize_partials,
)

QUERY = GroupByQuery(
    grouping_sets=(("g",),),
    aggregates=(AggregateSpec("count"), AggregateSpec("avg", "x")),
)


def _result_over(rows):
    return finalize_partials(QUERY, evaluate_group_by(QUERY, rows))


def _record(
    *,
    success=True,
    result_rows=None,
    reference_rows=None,
    clean=False,
    evidence=None,
    failure_events=(),
    fault_injector=None,
    network_stats=None,
    liability=None,
    exposure=None,
    tuples_per_device=None,
    reprovisions=(),
    validity_tolerance=0.75,
):
    report = SimpleNamespace(
        success=success,
        result=_result_over(result_rows) if result_rows is not None else None,
        kmeans=None,
        network_stats=network_stats or {},
        tuples_per_device=tuples_per_device or {},
        reprovisions=list(reprovisions),
    )
    result = SimpleNamespace(
        report=report,
        evidence=evidence,
        failure_events=list(failure_events),
        fault_injector=fault_injector,
        liability=liability,
        exposure=exposure,
    )
    return RunRecord(
        result=result,
        reference=(
            _result_over(reference_rows) if reference_rows is not None else None
        ),
        clean=clean,
        validity_tolerance=validity_tolerance,
    )


ROWS = [{"g": "a", "x": 10.0}, {"g": "a", "x": 20.0}, {"g": "b", "x": 30.0}]


class TestCleanVerdict:
    def test_every_loss_counter_is_a_network_stat(self):
        assert set(LOSS_COUNTERS) <= set(NetworkStats().as_dict())

    def test_any_single_piece_of_evidence_demotes_the_run(self):
        assert no_fault_observed([], None, {"sent": 9, "delivered": 9})
        assert no_fault_observed([], SimpleNamespace(decisions=[]), {})
        assert not no_fault_observed([object()], None, {})
        assert not no_fault_observed([], SimpleNamespace(decisions=[1]), {})
        for counter in LOSS_COUNTERS:
            assert not no_fault_observed([], None, {counter: 1}), counter


class TestResiliency:
    def test_successful_run_passes(self):
        record = _record(success=True, result_rows=ROWS, clean=True)
        assert check_resiliency(record) is None

    def test_clean_failure_is_a_violation(self):
        record = _record(success=False, clean=True)
        violation = check_resiliency(record)
        assert violation is not None
        assert violation.invariant == "resiliency"

    def test_lossy_failure_is_graceful(self):
        record = _record(
            success=False, clean=False, network_stats={"lost": 3}
        )
        assert check_resiliency(record) is None

    def test_success_without_result_is_a_violation(self):
        record = _record(success=True, result_rows=None, clean=False)
        violation = check_resiliency(record)
        assert violation is not None


class TestResiliencyTolerance:
    """A crash-only failure whose damage a live combiner shows to be
    within the plan's tolerance is a violation; more damage, or any
    message-level loss, explains the failure."""

    CONFIG = OvercollectionConfig(n=3, m=2, snapshot_cardinality=60)
    CRASH = SimpleNamespace(kind="crash", time=20.0)

    def _evidence(self, received: int):
        """Both combiners alive; ``received`` of the 5 partitions each."""
        combiners = {}
        for name in ("combiner", "combiner-backup"):
            state = CombinerState(name, self.CONFIG, 1, QUERY)
            for partition in range(received):
                state.record_partial(partition, 0, object())
            combiners[name] = state
        network = SimpleNamespace(
            is_dead=lambda device: False, is_online=lambda device: True
        )
        return SimpleNamespace(
            combiners=combiners,
            network=network,
            processors={name: f"{name}-dev" for name in combiners},
            querier="querier-dev",
        )

    def _failed(self, received: int, **overrides):
        return _record(
            success=False,
            evidence=self._evidence(received),
            failure_events=[self.CRASH],
            **overrides,
        )

    def test_crash_only_failure_within_tolerance_is_a_violation(self):
        violation = check_resiliency(self._failed(received=3))  # lost 2 <= m
        assert violation is not None
        assert violation.invariant == "resiliency"
        assert "within tolerance" in violation.detail
        assert violation.data["combiner"] == "combiner"
        assert violation.data["tally"]["received"] == 3

    def test_damage_past_tolerance_is_graceful(self):
        assert check_resiliency(self._failed(received=2)) is None  # lost 3 > m

    def test_message_level_loss_is_graceful(self):
        record = self._failed(received=3, network_stats={"lost": 1})
        assert check_resiliency(record) is None

    def test_devices_are_read_from_the_evidence(self):
        # the querier's and each combiner's device come from the
        # evidence's operator -> device map: a dead querier explains the
        # failure, and so does a combiner whose device is offline
        record = self._failed(received=3)
        network = record.evidence.network
        network.is_dead = lambda device: device == "querier-dev"
        assert check_resiliency(record) is None
        network.is_dead = lambda device: False
        network.is_online = lambda device: device != "combiner-dev"
        violation = check_resiliency(record)
        assert violation is not None
        assert violation.data["combiner"] == "combiner-backup"


class TestValidity:
    def test_matching_results_pass(self):
        record = _record(result_rows=ROWS, reference_rows=ROWS, clean=True)
        assert check_validity(record) is None

    def test_clean_mismatch_is_a_violation(self):
        skewed = [dict(row, x=row["x"] * 2) for row in ROWS]
        record = _record(result_rows=skewed, reference_rows=ROWS, clean=True)
        violation = check_validity(record)
        assert violation is not None
        assert violation.invariant == "validity"

    def test_faulty_run_within_bound_passes(self):
        # 25% error on avg_x, under the 0.75 bound
        skewed = [dict(row, x=row["x"] * 1.25) for row in ROWS]
        record = _record(result_rows=skewed, reference_rows=ROWS, clean=False)
        assert check_validity(record) is None

    def test_faulty_run_beyond_bound_is_a_violation(self):
        skewed = [dict(row, x=row["x"] * 10) for row in ROWS]
        record = _record(result_rows=skewed, reference_rows=ROWS, clean=False)
        violation = check_validity(record)
        assert violation is not None
        assert "approximation bound" in violation.detail

    def test_missing_group_is_graceful_when_dirty(self):
        # a whole group lost to failures: fewer rows, no violation
        record = _record(
            result_rows=ROWS[:2], reference_rows=ROWS, clean=False
        )
        assert check_validity(record) is None

    def test_failed_run_skipped(self):
        record = _record(success=False, reference_rows=ROWS)
        assert check_validity(record) is None


class TestCrowdLiability:
    def _liability(self, max_share, per_device=None):
        return SimpleNamespace(
            max_share=max_share,
            operators_per_device=per_device or {},
            is_crowd_liable=lambda cap: max_share <= cap,
            summary=lambda: f"max share {max_share:.0%}",
        )

    def _exposure(self, cap):
        return SimpleNamespace(max_raw_tuples_per_edgelet=cap)

    def test_spread_assignment_passes(self):
        record = _record(
            result_rows=ROWS,
            liability=self._liability(0.10, {"d1": 1}),
            exposure=self._exposure(10),
            tuples_per_device={"d1": 8},
        )
        assert check_crowd_liability(record) is None

    def test_concentrated_assignment_is_a_violation(self):
        record = _record(
            result_rows=ROWS,
            liability=self._liability(0.80),
            exposure=self._exposure(10),
        )
        violation = check_crowd_liability(record)
        assert violation is not None
        assert violation.invariant == "crowd_liability"

    def test_over_exposed_device_is_a_violation(self):
        record = _record(
            result_rows=ROWS,
            liability=self._liability(0.10, {"d1": 2}),
            exposure=self._exposure(10),
            tuples_per_device={"d1": 25},  # cap is 2 ops x 10
        )
        violation = check_crowd_liability(record)
        assert violation is not None
        assert "d1" in violation.detail

    def test_a_reprovisioned_away_device_keeps_its_operator_cap(self):
        # d1 folded its partition, then lost the operator to a standby:
        # the tuples it handled count against the operator it hosted
        displaced = [(21.0, "computer[6,g0]", "d1", "d2")]
        record = _record(
            result_rows=ROWS,
            liability=self._liability(0.10, {"d2": 1}),
            exposure=self._exposure(10),
            tuples_per_device={"d1": 8, "d2": 8},
            reprovisions=displaced,
        )
        assert check_crowd_liability(record) is None
        over = _record(
            result_rows=ROWS,
            liability=self._liability(0.10, {"d2": 1}),
            exposure=self._exposure(10),
            tuples_per_device={"d1": 11, "d2": 8},  # cap is 1 op x 10
            reprovisions=displaced,
        )
        violation = check_crowd_liability(over)
        assert violation is not None
        assert "d1" in violation.detail


class TestLiabilityMaxShare:
    """The cap is a share of the plan's operators, so it must lie in
    (0, 1]; every entry point refuses another before it runs anything."""

    BAD = [0, -0.5, 1.5, float("nan")]

    @pytest.mark.parametrize("share", [0.01, 0.5, 1])
    def test_a_share_in_range_passes(self, share):
        check_liability_max_share(share)

    @pytest.mark.parametrize("share", BAD)
    def test_a_share_out_of_range_is_a_spec_error(self, share):
        from repro.chaos.campaign import RunSpec

        with pytest.raises(SpecError, match=r"liability_max_share must be in \(0, 1\]"):
            check_liability_max_share(share)
        with pytest.raises(SpecError, match="liability_max_share"):
            RunSpec(seed=0, tag="bad", liability_max_share=share)

    @pytest.mark.parametrize("share", BAD)
    def test_workload_and_soak_refuse_it_before_running(self, monkeypatch, share):
        from repro.chaos import continuous, run_soak, run_workload, workload
        from repro.continuous import StandingQuerySpec
        from repro.workload import WorkloadSpec

        def no_engine(*args, **kwargs):
            raise AssertionError("an engine was built")

        monkeypatch.setattr(workload, "WorkloadEngine", no_engine)
        monkeypatch.setattr(continuous, "ContinuousEngine", no_engine)
        with pytest.raises(SpecError, match="liability_max_share"):
            run_workload(WorkloadSpec(n_queries=1), liability_max_share=share)
        with pytest.raises(SpecError, match="liability_max_share"):
            run_soak(StandingQuerySpec(), liability_max_share=share)


def _takeovers(*records):
    """Evidence holding one ``TAKEOVER`` per ``(time, base, rank)``."""
    return SimpleNamespace(events=[
        Event(time, EventKind.TAKEOVER, f"{base}.b{rank}", {"base": base, "rank": rank})
        for time, base, rank in records
    ])


class TestNoDoubleTakeover:
    def test_unique_takeovers_pass(self):
        evidence = _takeovers((20.0, "builder[0]", 1), (25.0, "builder[1]", 1))
        record = _record(result_rows=ROWS, evidence=evidence)
        assert check_no_double_takeover(record) is None

    def test_duplicate_rank_is_a_violation(self):
        evidence = _takeovers((20.0, "builder[0]", 1), (21.0, "builder[0]", 1))
        record = _record(result_rows=ROWS, evidence=evidence)
        violation = check_no_double_takeover(record)
        assert violation is not None
        assert violation.invariant == "no_double_takeover"
        assert violation.data == {
            "takeover_log": [[20.0, "builder[0]", 1], [21.0, "builder[0]", 1]]
        }

    def test_no_evidence_passes(self):
        record = _record(result_rows=ROWS, evidence=None)
        assert check_no_double_takeover(record) is None


class TestOnRealRuns:
    """Invariants over actual scenario executions (both strategies)."""

    def test_benign_runs_hold_every_invariant(self):
        from repro.chaos.campaign import RunSpec, run_single

        for strategy in ("overcollection", "backup"):
            outcome = run_single(
                RunSpec(
                    seed=3, tag=f"inv-{strategy}", replicas=replicas_for(strategy)
                )
            )
            assert outcome.result.report.success
            assert outcome.violations == []

    def test_combiner_dedup_checked_on_real_partials(self):
        from repro.chaos.campaign import RunSpec, run_single
        from repro.chaos.invariants import check_combiner_dedup

        outcome = run_single(RunSpec(seed=4, tag="inv-dedup"))
        executor = outcome.result.executor
        assert any(
            runtime.partials for runtime in executor.combiners.values()
        )
        record = RunRecord(result=outcome.result, reference=outcome.reference)
        assert check_combiner_dedup(record) is None


#: the legs that used to run under ``engine="columnar"`` only
vector_kernel = pytest.mark.parametrize("fold_kernel", ["vector"], indirect=True)


class TestFoldKernelLegs:
    """The chaos surface re-run under each fold kernel.

    Resilience machinery (dedup, takeover, corruption drops, churn)
    must behave identically whichever kernel folds the tuples — the
    kernel changes *how* partials are computed, never *what* ships.
    """

    def test_benign_runs_hold_every_invariant(self, fold_kernel):
        from repro.chaos.campaign import RunSpec, run_single

        for strategy in ("overcollection", "backup"):
            outcome = run_single(
                RunSpec(
                    seed=3, tag=f"inv-{strategy}", replicas=replicas_for(strategy)
                )
            )
            assert outcome.result.report.success
            assert outcome.violations == []

    def test_run_is_bit_for_bit_identical_under_every_kernel(self, monkeypatch):
        from repro.chaos.campaign import RunSpec, run_single
        from repro.workload.fingerprint import report_fingerprint
        from tests.differential.harness import (
            assert_identical_under_every_kernel,
        )

        assert_identical_under_every_kernel(
            monkeypatch,
            lambda: report_fingerprint(
                run_single(RunSpec(seed=6, tag="inv-eng")).result.report
            ),
        )

    @vector_kernel
    def test_seeded_campaign_under_the_vector_kernel(self, fold_kernel):
        from repro.chaos.campaign import CampaignConfig, RunSpec, run_campaign
        from repro.telemetry import Telemetry

        config = CampaignConfig(
            base=RunSpec(seed=19, tag="chaos"),
            runs=4,
            replicas=(0, 1),
            crash_probabilities=(0.0, 0.002),
        )
        result = run_campaign(config, telemetry=Telemetry())
        assert len(result.outcomes) == 4
        assert result.ok

    @vector_kernel
    def test_eight_window_churn_soak_under_the_vector_kernel(self, fold_kernel):
        from repro.chaos.continuous import run_soak
        from repro.continuous import StandingQuerySpec
        from repro.devices.churn import ChurnSpec
        from repro.telemetry import Telemetry

        spec = StandingQuerySpec(
            name="colsoak",
            max_windows=8,
            seed=23,
            snapshot_cardinality=96,
        )
        outcome = run_soak(
            spec,
            churn=ChurnSpec(
                departure_probability=0.1,
                data_change_probability=0.25,
                seed=23,
            ),
            telemetry=Telemetry(),
        )
        assert len(outcome.units) == 8
        assert outcome.violations == []

    @vector_kernel
    def test_corruption_drop_telemetry_still_fires(self, fold_kernel):
        """Tampered sealed envelopes are rejected and *counted* before
        any kernel sees the partition rows."""
        from repro.chaos.campaign import RunSpec, run_single
        from repro.network.faults import FaultSpec

        outcome = run_single(
            RunSpec(
                seed=8,
                tag="inv-corrupt",
                secure_channels=True,
                fault_specs=(
                    FaultSpec(kinds=("partition",), corrupt_probability=1.0),
                ),
            )
        )
        executor = outcome.result.executor
        dropped = executor.telemetry.metrics.value(
            "executor.payloads_dropped",
            query="inv-corrupt-q",
            reason="unauthenticated",
        )
        assert dropped > 0
        assert not outcome.result.report.success
