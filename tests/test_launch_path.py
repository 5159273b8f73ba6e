"""The one launch path: what must not move, and what nobody ran.

Every query — one-shot, workload arrival, standing-query window, serial
replay — is wired by ``Scenario.launch`` and concluded by
``Scenario.conclude``; every fault source is installed by
``Scenario.install_chaos``.  These tests pin

* behaviour, as literals computed before the four hand-copied wirings
  were folded into one (one per driver, the riskier legs switched on);
* the pairwise feature matrix through that one path;
* that the path really is the only one (a spy on the coordinator's
  constructor);
* the departure-listener leak the one-shot copy had.
"""

from __future__ import annotations

import hashlib
import itertools
import sys

import pytest

from repro.chaos import run_soak, run_workload
from repro.chaos.campaign import RunSpec, run_single
from repro.continuous import ContinuousEngine, StandingQuerySpec
from repro.core.resiliency import replicas_for
from repro.core.runtime import ExecutionCoordinator
from repro.data.health import HEALTH_SCHEMA, generate_health_rows
from repro.devices.churn import ChurnSpec
from repro.manager.scenario import Scenario, ScenarioConfig
from repro.network.faults import parse_fault_mix
from repro.network.failures import FailurePlan, GrayWindow, Partition
from repro.network.outages import OutageSpec
from repro.network.reliable import ReliableTransport
from repro.plan.compile import compile_query
from repro.telemetry import Telemetry
from repro.workload import WorkloadEngine, WorkloadSpec
from repro.workload.engine import serial_fingerprints
from repro.workload.fingerprint import report_fingerprint


def _digest(fingerprints: dict[str, str]) -> str:
    document = "\n".join(f"{k}:{v}" for k, v in sorted(fingerprints.items()))
    return hashlib.sha256(document.encode()).hexdigest()[:16]


def _events(log) -> list[tuple[float, str, str]]:
    return sorted((round(e.time, 9), e.device_id, e.kind) for e in log)


def _events_digest(log) -> str:
    document = "\n".join(repr(event) for event in _events(log))
    return hashlib.sha256(document.encode()).hexdigest()[:16]


class TestPinnedFingerprints:
    """Literals computed at the commit before the launch paths merged."""

    def test_one_shot_with_every_hardening_leg_on(self):
        spec = RunSpec(
            seed=13,
            tag="pin-one",
            reliability=True,
            detector=True,
            outage_spec=OutageSpec(
                partition_probability=0.5,
                region_crash_probability=0.2,
                gray_probability=0.15,
            ),
            fault_specs=tuple(parse_fault_mix("drop=0.05,delay=0.05")),
        )
        outcome = run_single(spec)
        result = outcome.result
        assert outcome.ok
        assert report_fingerprint(
            result.report, base_time=result.executor.start_time
        ) == "39a0612b970a9ed7e66e4b361932e7976d3adf3fda0de31ccafd978b691a9882"
        assert len(result.failure_events) == 24
        assert _events_digest(result.failure_events) == "924062c0f73c04e0"
        assert _events(result.failure_events)[0] == (
            18.731808341, "pin-one-proc-00015", "gray_start"
        )

    WORKLOAD = WorkloadSpec(
        n_queries=10,
        arrival_process="poisson",
        arrival_rate=0.5,
        max_concurrent=4,
        queue_capacity=6,
        seed=6,
        reliability=True,
    )

    def test_lossy_crashing_reliable_workload(self):
        outcome = run_workload(
            self.WORKLOAD,
            standby_count=2,
            message_loss=0.1,
            crash_probability=0.002,
            telemetry=Telemetry(),
        )
        # re-pinned when the failure slider began to resolve into plan
        # atoms before the first arrival.  A workload attaches a
        # processor when it first leases it, and the clock-driven draws
        # skipped the disconnect draw of every processor not yet
        # attached, so they followed lease history (digest
        # 2695cfc35c372d07, crashes at 4, 9, 12, 19, 21, 30, 47, 55 s).
        # Under the new draws q008 loses 1 of its 3 partitions: its tally
        # is valid, yet the result is 0.786 from the whole-dataset
        # oracle, past the fixed 0.75 bound.  The bound is uncalibrated
        # (ROADMAP item 2, whose calibrated bound turns this back to ok).
        assert [(unit, v.invariant) for unit, v in outcome.violations] == [
            ("wl6-q008", "validity")
        ]
        q008 = next(r for r in outcome.result.records if r.unit_id == "wl6-q008")
        tally = q008.report.tally
        assert tally["valid"] and tally["lost"] == 1 <= tally["m"]
        fingerprints = outcome.result.fingerprints()
        assert len(fingerprints) == 10
        assert _digest(fingerprints) == "538201375fee3529"
        assert _events(outcome.failure_events) == [
            (2.0, "wl6-proc-00025", "crash"),
            (9.0, "wl6-proc-00009", "crash"),
            (17.0, "wl6-proc-00002", "crash"),
            (25.0, "wl6-proc-00019", "crash"),
            (41.0, "wl6-proc-00018", "crash"),
            (48.0, "wl6-proc-00016", "crash"),
            (58.0, "wl6-proc-00027", "crash"),
        ]

    def test_serial_replay_of_the_chaos_free_variant(self):
        engine = WorkloadEngine(
            self.WORKLOAD,
            n_contributors=24,
            n_processors=40,
            telemetry=Telemetry(),
            standby_count=2,
        )
        result = engine.run()
        solo = serial_fingerprints(engine, result)
        assert solo == result.fingerprints()
        assert len(solo) == 10
        assert _digest(solo) == "416dcc0fb70f5dd6"

    def test_churning_incremental_reliable_standing_query_with_outages(self):
        spec = StandingQuerySpec(
            name="pin",
            max_windows=8,
            seed=11,
            reliability=True,
            incremental=True,
            snapshot_cardinality=192,
        )
        plan = FailurePlan(
            partitions=[
                Partition(start=40.0, end=70.0, islands=(("pin11-proc-00003",),))
            ],
            gray_windows=[
                GrayWindow(
                    device_id="pin11-proc-00005",
                    start=100.0,
                    end=160.0,
                    latency_factor=6.0,
                    extra_loss=0.2,
                )
            ],
        )
        outcome = run_soak(
            spec,
            churn=ChurnSpec(
                departure_probability=0.10,
                data_change_probability=0.2,
                seed=11,
            ),
            failure_plan=plan,
            standby_count=2,
            telemetry=Telemetry(),
        )
        assert outcome.ok
        fingerprints = outcome.result.fingerprints()
        assert len(fingerprints) == 8
        assert _digest(fingerprints) == "b878a0a1c6468d48"
        assert outcome.result.summary()["incremental_stamped"] == 103
        assert _events(outcome.failure_events) == [
            (40.0, "pin11-proc-00003", "partition_start"),
            (70.0, "pin11-proc-00003", "partition_heal"),
            (100.0, "pin11-proc-00005", "gray_start"),
            (160.0, "pin11-proc-00005", "gray_end"),
        ]


#: The shipped hardening / chaos options, as RunSpec fields.
FEATURES = {
    "reliability": dict(reliability=True),
    "reliability+detector": dict(reliability=True, detector=True),
    "secure_channels": dict(secure_channels=True),
    "message_loss": dict(message_loss=0.05),
    "outage_spec": dict(
        outage_spec=OutageSpec(partition_probability=0.5, gray_probability=0.1)
    ),
    "crash_probability": dict(crash_probability=0.002),
}
PAIRS = list(itertools.combinations(FEATURES, 2))


def _pair_spec(pair: tuple[str, str], strategy: str) -> RunSpec:
    fields = {**FEATURES[pair[0]], **FEATURES[pair[1]]}
    tag = "mx-" + "-".join(pair).replace("+", "_")
    return RunSpec(
        seed=29, tag=f"{tag}-{strategy}", replicas=replicas_for(strategy), **fields
    )


class TestPairwiseFeatureMatrix:
    """Every pair of options, both strategies, the default topology:
    all chaos invariants hold (sealed channels were never combined
    with reliability or the detector before)."""

    @pytest.mark.parametrize("strategy", ["overcollection", "backup"])
    @pytest.mark.parametrize("pair", PAIRS, ids=["+".join(p) for p in PAIRS])
    def test_pair_holds_every_invariant(self, pair, strategy):
        outcome = run_single(_pair_spec(pair, strategy))
        assert outcome.ok, [str(v) for v in outcome.violations]

    @pytest.mark.parametrize(
        "pair, strategy",
        [
            (("reliability+detector", "secure_channels"), "overcollection"),
            (("reliability", "outage_spec"), "backup"),
            (("message_loss", "crash_probability"), "overcollection"),
        ],
    )
    def test_same_seed_rerun_is_identical(self, pair, strategy):
        def fingerprint():
            result = run_single(_pair_spec(pair, strategy)).result
            return (
                report_fingerprint(
                    result.report, base_time=result.executor.start_time
                ),
                _events(result.failure_events),
            )

        assert fingerprint() == fingerprint()


class TestSingleLaunchSite:
    def test_every_driver_constructs_the_coordinator_in_launch(self, monkeypatch):
        callers = []
        real_init = ExecutionCoordinator.__init__

        def spying_init(self, *args, **kwargs):
            callers.append(sys._getframe(1).f_code)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(ExecutionCoordinator, "__init__", spying_init)

        engine = WorkloadEngine(
            WorkloadSpec(
                n_queries=3, arrival_process="closed", target_in_flight=2,
                max_concurrent=2, seed=3,
            ),
            telemetry=Telemetry(),
        )
        result = engine.run()
        assert result.completed == 3
        assert len(callers) == 3
        serial_fingerprints(engine, result)
        assert len(callers) == 6
        standing = ContinuousEngine(
            StandingQuerySpec(name="spy", max_windows=2, seed=3),
            telemetry=Telemetry(),
        ).run()
        assert standing.completed == 2
        assert len(callers) == 8
        assert set(callers) == {Scenario.launch.__code__}


class TestDepartureListenerLeak:
    def test_sequential_reliable_queries_leave_no_listener_behind(
        self, monkeypatch
    ):
        notified: list[str] = []
        monkeypatch.setattr(
            ReliableTransport,
            "_on_peer_departed",
            lambda self, device_id: notified.append(device_id),
        )
        scenario = Scenario(
            ScenarioConfig(
                n_contributors=12,
                n_processors=16,
                rows=generate_health_rows(24, seed=2),
                schema=HEALTH_SCHEMA,
                device_mix=(1.0, 0.0, 0.0),
                collection_window=10.0,
                deadline=40.0,
                reliability=True,
                seed=2,
                scenario_tag="leak",
            ),
            telemetry=Telemetry(),
        )
        sql = "SELECT count(*) FROM health GROUP BY GROUPING SETS ((region), ())"
        for index in range(5):
            compiled = compile_query(
                sql, query_id=f"leak-q{index}", snapshot_cardinality=48
            )
            assert scenario.run_compiled(compiled).report.success
            assert len(scenario.network._departure_listeners) <= 1
        scenario.network.leave(scenario.contributors[0].device_id)
        assert notified == []  # no finished transport was called

    def test_close_leaves_timers_and_receipts_alone(self):
        scenario = Scenario(
            ScenarioConfig(
                n_contributors=4,
                n_processors=4,
                rows=generate_health_rows(8, seed=2),
                schema=HEALTH_SCHEMA,
                seed=2,
                scenario_tag="close",
            ),
            telemetry=Telemetry(),
        )
        transport = ReliableTransport(scenario.network, seed=1)
        assert len(scenario.network._departure_listeners) == 1
        before = transport.stats.as_dict()
        transport.close()
        transport.close()  # idempotent
        assert scenario.network._departure_listeners == []
        assert transport.stats.as_dict() == before
        assert transport.receipts == []
