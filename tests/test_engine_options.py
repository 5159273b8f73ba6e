"""Every ScenarioConfig option through every engine and chaos harness.

Both engines forward any ``ScenarioConfig`` field they do not derive
from their spec, so sealed channels, the φ-accrual detector and a
seeded outage spec run under a multi-query workload and a
standing query exactly as they do one-shot.  These tests hold those
runs to every invariant, pin that a chaos-free sealed workload is still
serial-equivalent, and pin that a campaign stamps the same RunSpecs
from its ``base`` template as it did when it re-declared every field
(literals computed before the change), and that a RunSpec serialized
with a strategy name still loads to the same run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

import repro.chaos as chaos
import repro.chaos.workload as chaos_workload
from repro.chaos import (
    CampaignConfig,
    RunSpec,
    run_single,
    run_soak,
    run_workload,
    shrink_workload_plan,
)
from repro.cli import main
from repro.continuous import ContinuousEngine, StandingQuerySpec
from repro.data.health import HEALTH_SCHEMA
from repro.devices.churn import ChurnSpec
from repro.manager.scenario import ScenarioConfig
from repro.network.failures import FailurePlan
from repro.network.outages import OutageSpec
from repro.telemetry import Telemetry
from repro.workload import WorkloadEngine, WorkloadSpec
from repro.workload.engine import serial_fingerprints
from repro.workload.fingerprint import report_fingerprint

HARDENED = dict(secure_channels=True, detector=True)
OUTAGES = OutageSpec(partition_probability=0.5, gray_probability=0.3)

WORKLOAD = WorkloadSpec(
    n_queries=10,
    arrival_process="closed",
    target_in_flight=4,
    max_concurrent=4,
    queue_capacity=6,
    seed=6,
    reliability=True,
)


def _standing(seed: int) -> StandingQuerySpec:
    return StandingQuerySpec(
        name="opt", max_windows=6, seed=seed, reliability=True,
        snapshot_cardinality=192,
    )


def _churn(seed: int) -> ChurnSpec:
    return ChurnSpec(
        departure_probability=0.10, data_change_probability=0.2, seed=seed
    )


def _kinds(outcome) -> set[str]:
    return {event.kind for event in outcome.failure_events}


@pytest.fixture
def built_engines(monkeypatch):
    """The WorkloadEngines ``run_workload`` builds, in order."""
    engines = []

    class Recording(WorkloadEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(chaos_workload, "WorkloadEngine", Recording)
    return engines


class TestSealedHardenedRuns:
    def test_workload_holds_every_invariant_and_replays_serially(
        self, built_engines
    ):
        outcome = run_workload(
            WORKLOAD, telemetry=Telemetry(), standby_count=2, **HARDENED
        )
        assert outcome.ok, [str(v) for v in outcome.violations]
        assert outcome.result.completed == 10
        engine = built_engines[0]
        assert engine.scenario_config.secure_channels
        assert engine.scenario_config.detector
        fingerprints = outcome.result.fingerprints()
        assert len(fingerprints) == 10
        assert serial_fingerprints(engine, outcome.result) == fingerprints

    def test_churning_soak_holds_every_invariant(self):
        outcome = run_soak(
            _standing(7), telemetry=Telemetry(), churn=_churn(7),
            standby_count=2, **HARDENED,
        )
        assert outcome.ok, [str(v) for v in outcome.violations]
        assert outcome.result.completed + outcome.result.skipped == 6
        assert outcome.result.completed >= 5


class TestOutageSpecRuns:
    def test_workload_resolves_outages_over_the_pool(self):
        outcome = run_workload(
            WORKLOAD, telemetry=Telemetry(), standby_count=2,
            outage_spec=OUTAGES, detector=True,
        )
        assert outcome.ok, [str(v) for v in outcome.violations]
        assert not outcome.clean
        assert {"partition_start", "gray_start"} <= _kinds(outcome)

    def test_workload_shrinks_to_the_resolved_gray_window(self):
        # a failure one resolved gray window causes shrinks to a plan
        # that carries that window and reproduces with the spec dropped
        spec = dataclasses.replace(WORKLOAD, n_queries=4)
        outcome = run_workload(spec, telemetry=Telemetry(), outage_spec=OUTAGES)
        installed = outcome.installed_plan
        guilty = installed.gray_windows[0].device_id

        def failing(rerun) -> bool:
            return any(
                event.kind == "gray_start" and event.device_id == guilty
                for event in rerun.failure_events
            )

        assert failing(outcome)
        shrunk = shrink_workload_plan(outcome, failing, max_attempts=12)
        assert guilty in {window.device_id for window in shrunk.gray_windows}
        assert len(shrunk.atoms()) < len(installed.atoms())
        replay = run_workload(spec, telemetry=Telemetry(), failure_plan=shrunk)
        assert replay.installed_plan.to_dict() == shrunk.to_dict()
        assert failing(replay)

    def test_soak_resolves_outages_over_the_pool(self):
        outcome = run_soak(
            _standing(11), telemetry=Telemetry(), churn=_churn(11),
            standby_count=2, outage_spec=OUTAGES,
        )
        assert outcome.ok, [str(v) for v in outcome.violations]
        assert not outcome.clean
        assert {"partition_start", "gray_start"} <= _kinds(outcome)

    def test_same_seed_reruns_are_identical(self):
        def soak():
            outcome = run_soak(
                _standing(11), telemetry=Telemetry(), churn=_churn(11),
                outage_spec=OUTAGES, **HARDENED,
            )
            return outcome.result.fingerprints(), sorted(
                (e.time, e.device_id, e.kind) for e in outcome.failure_events
            )

        first = soak()
        assert len(first[0]) >= 5
        assert first == soak()


class TestOneDeclaration:
    def test_spec_owned_fields_cannot_be_passed_again(self):
        with pytest.raises(TypeError, match="reliability"):
            WorkloadEngine(WORKLOAD, reliability=True)
        with pytest.raises(TypeError, match="scenario_tag"):
            ContinuousEngine(_standing(1), scenario_tag="other")
        with pytest.raises(TypeError, match="collection_window"):
            run_soak(_standing(1), collection_window=3.0)

    @pytest.mark.parametrize("option", [
        dict(detector=True), dict(phase_deadline=30.0),
    ])
    def test_recovery_options_without_reliability_are_rejected(self, option):
        (name,) = option
        with pytest.raises(ValueError, match=f"^{name} requires reliability"):
            ScenarioConfig(
                n_contributors=2, n_processors=2, rows=[],
                schema=HEALTH_SCHEMA, **option,
            )
        with pytest.raises(ValueError, match=f"^{name} requires reliability"):
            WorkloadEngine(WorkloadSpec(n_queries=1), **option)
        # a campaign base fails where it is built, not midway through
        with pytest.raises(ValueError, match=f"^{name} requires reliability"):
            RunSpec(seed=1, tag="chaos", **option)

    def test_a_non_noop_outage_spec_is_chaos(self):
        def config(**options):
            return ScenarioConfig(
                n_contributors=2, n_processors=2, rows=[],
                schema=HEALTH_SCHEMA, **options,
            )

        assert not config().any_chaos
        assert not config(outage_spec=OutageSpec()).any_chaos
        assert config(outage_spec=OUTAGES).any_chaos


class _Captured(Exception):
    pass


def _cli_campaign(monkeypatch) -> CampaignConfig:
    captured = []

    def capture(config, telemetry=None):
        captured.append(config)
        raise _Captured

    monkeypatch.setattr(chaos, "run_campaign", capture)
    with pytest.raises(_Captured):
        main([
            "chaos", "--seed", "7", "--runs", "4", "--strategy", "both",
            "--failure-probability", "0.0,0.002",
            "--disconnect-probability", "0.01", "--message-loss", "0.05",
            "--reliability", "--detector", "--phase-deadline", "30",
            "--contributors", "30", "--processors", "25", "--rows", "60",
            "--backup-replicas", "2", "--optimizer", "cost",
            "--validity-tolerance", "1.5",
            "--fault-mix", "drop=0.05;partition=0.3,gray=0.2",
            "--no-shrink", "--shrink-budget", "12",
        ])
    return captured[0]


def _specs_digest(config: CampaignConfig) -> str:
    document = json.dumps(
        [config.spec_for(i).to_dict() for i in range(8)], sort_keys=True
    )
    return hashlib.sha256(document.encode()).hexdigest()[:16]


#: ``spec_for(1).to_dict()`` of the CLI-shaped campaign, as computed when
#: CampaignConfig still re-declared every RunSpec field and a RunSpec
#: spelled its replica count as ``strategy`` + ``backup_replicas``
CLI_SPEC_1 = {
    "seed": 100010, "tag": "chaos-7-1", "strategy": "overcollection",
    "topology": {
        "n_contributors": 30, "n_processors": 25, "n_rows": 60,
        "device_mix": [1.0, 0.0, 0.0],
    },
    "crash_probability": 0.002, "disconnect_probability": 0.01,
    "disconnect_duration": 10.0, "message_loss": 0.05,
    "fault_specs": [{
        "kinds": None, "drop_probability": 0.05,
        "duplicate_probability": 0.0, "delay_probability": 0.0,
        "delay_range": [1.0, 5.0], "corrupt_probability": 0.0,
        "corrupt_scale": 4.0,
    }],
    "failure_plan": None,
    "sql": "SELECT count(*), avg(age), avg(bmi) FROM health WHERE age > 65 "
           "GROUP BY GROUPING SETS ((region), (sex), ())",
    "cardinality": 96, "max_raw": 12, "backup_replicas": 2,
    "planner_fault_rate": 0.1, "target_success": 0.99,
    "collection_window": 20.0, "deadline": 70.0, "secure_channels": False,
    "validity_tolerance": 1.5, "liability_max_share": 0.5,
    "reliability": True, "phase_deadline": 30.0, "optimizer": "cost",
    "outage_spec": {
        "regions": 4, "partition_probability": 0.3,
        "partition_duration": [10.0, 30.0], "region_crash_probability": 0.0,
        "gray_probability": 0.2, "gray_latency_factor": 4.0,
        "gray_extra_loss": 0.3, "gray_duration": [10.0, 40.0],
    },
    "detector": True, "fencing": True,
}


def _respelled(legacy: dict, replicas: int) -> dict:
    """A strategy-spelled RunSpec dict as written since ``replicas``
    and without the ``fencing`` flag every run now implies."""
    data = {
        key: value for key, value in legacy.items()
        if key not in ("strategy", "backup_replicas", "fencing")
    }
    return {**data, "replicas": replicas}


class TestCampaignTemplate:
    """The three digests were re-pinned when ``replicas`` replaced
    ``strategy`` + ``backup_replicas``, and again when ``fencing`` left
    the spec: each time, each of their 24 specs, loaded from the dict
    written before, equals the spec stamped now."""

    def test_default_campaign_stamps_the_same_specs(self):
        config = CampaignConfig()
        assert (config.runs, config.shrink, config.shrink_budget) == (25, True, 24)
        assert config.spec_for(1).tag == "chaos-0-1"
        assert _specs_digest(config) == "50be8dbc7011392d"

    def test_cli_campaign_stamps_the_same_specs(self, monkeypatch):
        config = _cli_campaign(monkeypatch)
        assert (config.runs, config.shrink, config.shrink_budget) == (4, False, 12)
        assert RunSpec.from_dict(CLI_SPEC_1) == config.spec_for(1)
        assert config.spec_for(1).to_dict() == _respelled(CLI_SPEC_1, 0)
        assert config.spec_for(2).replicas == 2  # --backup-replicas 2
        assert _specs_digest(config) == "0d0f176478048965"

    def test_outage_campaign_stamps_the_same_specs(self):
        config = CampaignConfig(
            base=RunSpec(
                seed=7, tag="chaos", reliability=True, detector=True,
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
        assert _specs_digest(config) == "0d63eda621d56440"

    @pytest.mark.parametrize("field", [
        dict(replicas=1), dict(crash_probability=0.01),
        # not a grid axis, but its atoms name one run's devices
        dict(failure_plan=FailurePlan().crash("chaos-1-0-proc-00000", 1.0)),
    ])
    def test_a_base_value_the_grid_overwrites_is_rejected(self, field):
        (name,) = field
        with pytest.raises(ValueError, match=f"base.{name}"):
            CampaignConfig(base=RunSpec(seed=1, tag="chaos", **field))


class TestStrategySpelledSpecs:
    """A RunSpec written with a strategy name loads to its replica count."""

    @pytest.mark.parametrize("strategy, backup_replicas, replicas", [
        ("backup", 2, 2),
        ("backup", None, 1),  # the old field default
        ("overcollection", 1, 0),
        ("overcollection", 2, 0),
    ])
    def test_the_spelling_loads_to_replicas(
        self, strategy, backup_replicas, replicas
    ):
        legacy = {**CLI_SPEC_1, "strategy": strategy}
        if backup_replicas is None:
            del legacy["backup_replicas"]
        else:
            legacy["backup_replicas"] = backup_replicas
        spec = RunSpec.from_dict(legacy)
        assert spec.replicas == replicas
        assert spec.to_dict() == _respelled(legacy, replicas)

    def test_a_zero_replica_backup_spec_is_refused(self):
        legacy = {**CLI_SPEC_1, "strategy": "backup", "backup_replicas": 0}
        with pytest.raises(ValueError, match="at least one replica"):
            RunSpec.from_dict(legacy)

    def test_a_backup_spec_replays_the_run_it_recorded(self):
        legacy = {
            "seed": 5, "tag": "legacy-spell",
            "strategy": "backup", "backup_replicas": 2,
        }
        spec = RunSpec.from_dict(json.loads(json.dumps(legacy)))
        assert spec == RunSpec(seed=5, tag="legacy-spell", replicas=2)
        result = run_single(spec).result
        # computed from the strategy-spelled RunSpec before the change
        assert report_fingerprint(
            result.report, base_time=result.executor.start_time
        ) == "6661348174701bd9137c7ae770ef22a959be26d7f3291bdee8c5166e5137e237"
