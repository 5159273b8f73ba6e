"""Tests for chaos campaigns, shrinking, and repro artifacts.

Ends with the acceptance-criterion test: a campaign seeded to violate
Validity produces a shrunk ``FailurePlan`` JSON artifact that, replayed
alone through the CLI, reproduces the same invariant violation
deterministically.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.chaos import (
    CampaignConfig,
    ReproArtifact,
    RunSpec,
    parse_fault_mix,
    run_campaign,
    run_single,
    shrink_failure_plan,
)
from repro.network.failures import FailurePlan
from repro.telemetry import Telemetry


def _result_fingerprint(outcome):
    report = outcome.result.report
    rows = report.result.all_rows() if report.result is not None else None
    return (
        report.success,
        repr(rows),
        repr(report.network_stats),
        [(v.invariant, v.detail) for v in outcome.violations],
    )


class TestRunDeterminism:
    def test_same_spec_reproduces_bit_for_bit(self):
        spec = RunSpec(
            seed=21,
            tag="det",
            replicas=0,
            crash_probability=0.004,
            fault_specs=parse_fault_mix("drop=0.05;partition:duplicate=0.3"),
        )
        assert _result_fingerprint(run_single(spec)) == _result_fingerprint(
            run_single(spec)
        )

    def test_different_seeds_diverge(self):
        base = RunSpec(seed=21, tag="det", message_loss=0.2)
        other = RunSpec(seed=22, tag="det", message_loss=0.2)
        assert _result_fingerprint(run_single(base)) != _result_fingerprint(
            run_single(other)
        )

    def test_spec_round_trips_through_json(self):
        spec = RunSpec(
            seed=5,
            tag="rt",
            replicas=2,
            crash_probability=0.01,
            fault_specs=parse_fault_mix("control:drop=0.5"),
            failure_plan=FailurePlan().crash("d", 3.0).disconnect("e", 1.0, 4.0),
        )
        clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.to_dict() == spec.to_dict()

    def test_reliability_fields_round_trip(self):
        spec = RunSpec(seed=5, tag="rel", reliability=True, phase_deadline=42.0)
        clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.reliability is True
        assert clone.phase_deadline == 42.0

    def test_reliability_defaults_for_old_artifacts(self):
        # artifacts written before the reliability fields existed must
        # still load, defaulting to the legacy (disabled) behaviour
        data = RunSpec(seed=5, tag="old").to_dict()
        del data["reliability"]
        del data["phase_deadline"]
        clone = RunSpec.from_dict(data)
        assert clone.reliability is False
        assert clone.phase_deadline is None

    def test_reliability_spec_runs_under_heavy_loss(self):
        spec = RunSpec(seed=11, tag="rel-run", message_loss=0.25, reliability=True)
        outcome = run_single(spec)
        assert outcome.violations == []
        assert outcome.result.transport is not None

    def test_outage_defaults_for_old_artifacts(self):
        # artifacts written before the correlated-failure substrate must
        # still load with outages and the detector off; the ``fencing``
        # flag artifacts carried while fencing was optional loads either
        # way, because every run fences now
        for fencing in (False, True):
            data = RunSpec(seed=5, tag="old").to_dict()
            del data["outage_spec"]
            del data["detector"]
            data["fencing"] = fencing
            clone = RunSpec.from_dict(data)
            assert clone.outage_spec is None
            assert clone.failure_plan is None
            assert clone.detector is False
            assert clone == RunSpec(seed=5, tag="old")

    def test_legacy_artifact_replays_identically_to_full_fields(self):
        # a pre-outage artifact and the same spec serialized today must
        # execute the same run: the new fields default to no-ops and
        # draw nothing from the seeded streams
        spec = RunSpec(seed=21, tag="legacy-art", message_loss=0.2)
        data = spec.to_dict()
        for field in ("outage_spec", "detector"):
            del data[field]
        legacy = RunSpec.from_dict(json.loads(json.dumps(data)))
        assert _result_fingerprint(run_single(legacy)) == _result_fingerprint(
            run_single(spec)
        )

    #: a RunSpec as serialized before topology atoms joined FailurePlan:
    #: the crash under ``failure_plan``, the partition and the gray window
    #: under their own ``outage_plan`` key
    LEGACY_SPLIT_PLAN = {
        "seed": 13,
        "tag": "legacy-merge",
        "strategy": "overcollection",
        "topology": {
            "n_contributors": 24, "n_processors": 20, "n_rows": 48,
            "device_mix": [1.0, 0.0, 0.0],
        },
        "reliability": True,
        "detector": True,
        "fencing": True,
        "failure_plan": {
            "crashes": {"legacy-merge-proc-00007": 25.0},
            "disconnections": {},
        },
        "outage_plan": {
            "partitions": [
                {"start": 18.0, "end": 40.0,
                 "islands": [["legacy-merge-proc-00003"]]},
            ],
            "regional_crashes": [],
            "gray_windows": [
                {"device_id": "legacy-merge-proc-00011", "start": 12.0,
                 "end": 50.0, "latency_factor": 6.0, "extra_loss": 0.2},
            ],
        },
    }

    def test_split_plan_artifact_loads_into_one_plan_and_replays(self):
        from repro.workload.fingerprint import report_fingerprint

        spec = RunSpec.from_dict(json.loads(json.dumps(self.LEGACY_SPLIT_PLAN)))
        plan = spec.failure_plan
        assert plan.crashes == {"legacy-merge-proc-00007": 25.0}
        assert [p.islands for p in plan.partitions] == [
            (("legacy-merge-proc-00003",),)
        ]
        assert [g.device_id for g in plan.gray_windows] == ["legacy-merge-proc-00011"]
        data = spec.to_dict()
        assert "outage_plan" not in data
        assert RunSpec.from_dict(json.loads(json.dumps(data))) == spec
        result = run_single(spec).result
        # computed by replaying this payload with the two plans kept apart
        assert report_fingerprint(
            result.report, base_time=result.executor.start_time
        ) == "aea9af2dcc23304d4b635080c502559f8e022ca7b3750457667b2996d1163710"
        assert sorted(
            (e.time, e.device_id, e.kind) for e in result.failure_events
        ) == [
            (12.0, "legacy-merge-proc-00011", "gray_start"),
            (18.0, "legacy-merge-proc-00003", "partition_start"),
            (25.0, "legacy-merge-proc-00007", "crash"),
            (40.0, "legacy-merge-proc-00003", "partition_heal"),
            (50.0, "legacy-merge-proc-00011", "gray_end"),
        ]

    def test_outage_spec_and_scripted_outages_exclude_each_other(self):
        from repro.network.failures import Partition
        from repro.network.outages import OutageSpec

        spec = RunSpec(
            seed=1,
            tag="both",
            outage_spec=OutageSpec(gray_probability=0.2),
            failure_plan=FailurePlan(
                partitions=[Partition(start=1.0, end=2.0, islands=(("x",),))]
            ),
        )
        with pytest.raises(ValueError, match="already scripts topology outages"):
            run_single(spec)
        # device atoms compose with a seeded outage spec: the one plan the
        # run installs is the scripted crash plus the resolved gray windows
        installed = run_single(
            dataclasses.replace(spec, failure_plan=FailurePlan().crash("x", 1.0))
        ).result.failure_plan
        assert installed.crashes == {"x": 1.0}
        assert installed.gray_windows and not installed.partitions

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"seed": 1}, "'tag'"),
            ({"seed": "one", "tag": "t"}, "'seed'"),
            ({"seed": 1, "tag": "t", "topology": {"n_rows": 1}}, "'n_contributors'"),
            ({"seed": 1, "tag": "t", "fault_specs": 3}, "'fault_specs'"),
        ],
    )
    def test_loader_errors_name_the_field(self, payload, field):
        with pytest.raises(ValueError, match=field):
            RunSpec.from_dict(payload)

    @pytest.mark.parametrize("engine", ["row", "columnar"])
    def test_artifact_with_the_removed_engine_key_replays_identically(
        self, engine
    ):
        # artifacts written while RunSpec carried an ``engine`` field:
        # the key is ignored on load, never written back, and the replay
        # is the same run (the two engines were byte-identical)
        spec = RunSpec(seed=21, tag="engine-art", message_loss=0.2)
        data = json.loads(json.dumps(spec.to_dict()))
        assert "engine" not in data
        data["engine"] = engine
        old = RunSpec.from_dict(data)
        assert "engine" not in old.to_dict()
        assert _result_fingerprint(run_single(old)) == _result_fingerprint(
            run_single(spec)
        )


class TestCampaign:
    def test_grid_sweeps_every_cell_and_stays_ok(self):
        config = CampaignConfig(
            base=RunSpec(seed=3, tag="chaos"),
            runs=4,
            replicas=(0, 1),
            crash_probabilities=(0.0,),
        )
        telemetry = Telemetry()
        result = run_campaign(config, telemetry=telemetry)
        assert len(result.outcomes) == 4
        assert {o.spec.replicas for o in result.outcomes} == {0, 1}
        assert result.ok
        # telemetry wiring: the runs counter matched the run count
        assert telemetry.metrics.total("chaos.runs") == 4

    def test_spec_for_is_stable(self):
        config = CampaignConfig(base=RunSpec(seed=9, tag="chaos"), runs=8)
        specs = [config.spec_for(i).to_dict() for i in range(8)]
        again = [config.spec_for(i).to_dict() for i in range(8)]
        assert specs == again
        assert len({spec["seed"] for spec in specs}) == 8

    def test_reliability_campaign_survives_heavy_loss(self):
        config = CampaignConfig(
            base=RunSpec(
                seed=11, tag="chaos", message_loss=0.25,
                reliability=True, validity_tolerance=1.5,
            ),
            runs=4, replicas=(0,),
            crash_probabilities=(0.0,),
        )
        result = run_campaign(config, telemetry=Telemetry())
        assert result.ok
        assert all(o.spec.reliability for o in result.outcomes)

    def test_summary_rows_cover_all_cells(self):
        config = CampaignConfig(
            base=RunSpec(seed=1, tag="chaos"), runs=4,
            replicas=(0,),
            crash_probabilities=(0.0, 0.01),
        )
        result = run_campaign(config, telemetry=Telemetry())
        rows = result.summary_rows()
        assert {row[1] for row in rows} == {0.0, 0.01}
        assert sum(row[3] for row in rows) == 4


class TestShrinking:
    def test_shrinks_to_the_single_relevant_crash(self):
        plan = FailurePlan()
        for index in range(8):
            plan.crash(f"noise-{index}", float(index + 1))
        plan.crash("culprit", 4.0)
        plan.disconnect("other", 1.0, 6.0)

        attempts = []

        def reproduces(candidate):
            attempts.append(candidate)
            return "culprit" in candidate.crashes

        shrunk = shrink_failure_plan(plan, reproduces, max_attempts=64)
        assert list(shrunk.crashes) == ["culprit"]
        assert shrunk.disconnections == {}

    def test_pure_noise_shrinks_to_empty(self):
        plan = FailurePlan().crash("a", 1.0).disconnect("b", 2.0, 5.0)
        shrunk = shrink_failure_plan(plan, lambda _: True, max_attempts=16)
        assert shrunk.crashes == {} and shrunk.disconnections == {}

    def test_budget_bounds_reexecutions(self):
        plan = FailurePlan()
        for index in range(30):
            plan.crash(f"d{index}", 1.0)
        calls = []

        def reproduces(candidate):
            calls.append(1)
            return "d0" in candidate.crashes

        shrink_failure_plan(plan, reproduces, max_attempts=10)
        assert len(calls) <= 10


class TestArtifacts:
    def test_round_trip_and_replay(self, tmp_path):
        spec = RunSpec(seed=2, tag="art", replicas=0)
        outcome = run_single(spec)
        artifact = ReproArtifact(
            invariant="validity",
            detail="synthetic",
            spec=spec,
            data={"k": 1},
        )
        path = artifact.save(tmp_path / "artifact.json")
        loaded = ReproArtifact.load(path)
        assert loaded.to_dict() == artifact.to_dict()
        replayed = loaded.replay()
        assert _result_fingerprint(replayed) == _result_fingerprint(outcome)

    @pytest.mark.parametrize("mode", ["scripted", "stochastic"])
    def test_artifact_with_a_mode_key_loads(self, mode):
        artifact = ReproArtifact(
            invariant="validity", detail="", spec=RunSpec(seed=2, tag="old")
        )
        payload = {**artifact.to_dict(), "mode": mode}
        assert ReproArtifact.from_dict(payload).to_dict() == artifact.to_dict()

    def test_version_gate(self, tmp_path):
        import pytest

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99}), encoding="utf-8")
        with pytest.raises(ValueError):
            ReproArtifact.load(path)

    @pytest.mark.parametrize(
        "run_patch, field",
        [
            ({"tag": None}, "'tag'"),
            (
                {"outage_plan": {"partitions": [{"start": 1.0, "islands": [["a"]]}]}},
                "'end'",
            ),
            # accepted before detector required reliability
            ({"detector": True}, "detector requires reliability"),
            # accepted before the load checked its sign
            (
                {"reliability": True, "phase_deadline": -5.0},
                "phase_deadline must be positive",
            ),
            # accepted before the plan loader built its atoms through
            # the checks a plan built in code gets: the device went
            # offline at 5 and never came back
            (
                {"failure_plan": {"disconnections": {"d": [[5.0, 3.0]]}}},
                "need 0 <= start < end",
            ),
            # a traceback from the simulator before the same change
            (
                {"failure_plan": {"crashes": {"d": -1.0}}},
                "crash time must be non-negative",
            ),
            (
                {"failure_plan": {"disconnections": {"d": [[-2.0, 3.0]]}}},
                "need 0 <= start < end",
            ),
            (
                {"failure_plan": {"message_faults": [
                    {"spec": {"drop_probability": 0.5}, "start": 4.0, "end": 1.0}
                ]}},
                "need 0 <= start < end",
            ),
            (
                {"failure_plan": {"message_faults": [
                    {"spec": {"corrupt_probability": 2.0}}
                ]}},
                "corrupt_probability must be in",
            ),
        ],
        ids=[
            "run-without-tag",
            "partition-without-end",
            "detector-without-reliability",
            "non-positive-phase-deadline",
            "inverted-window",
            "negative-crash-time",
            "negative-window-start",
            "inverted-message-fault-window",
            "message-fault-probability-out-of-range",
        ],
    )
    def test_malformed_artifact_replay_exits_2_with_one_line(
        self, tmp_path, capsys, run_patch, field
    ):
        from repro.cli import main

        payload = ReproArtifact(
            invariant="validity", detail="",
            spec=RunSpec(seed=2, tag="bad"),
        ).to_dict()
        payload["run"].update(run_patch)
        payload["run"] = {k: v for k, v in payload["run"].items() if v is not None}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["chaos", "--replay", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("--replay: ")
        assert field in captured.err
        assert captured.err.count("\n") == 1


class TestAcceptanceCriterion:
    """Seeded Validity violation -> shrunk JSON artifact -> CLI replay
    reproduces the same violation deterministically."""

    def test_violation_to_artifact_to_cli_replay(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = tmp_path / "artifacts"
        exit_code = main(
            [
                "chaos",
                "--seed", "11",
                "--runs", "1",
                "--strategy", "overcollection",
                "--failure-probability", "0.003",
                "--fault-mix", "partial_result:corrupt=0.6,corrupt_scale=50",
                "--repro-out", str(out_dir),
            ]
        )
        assert exit_code == 1  # the campaign saw the violation
        campaign_out = capsys.readouterr().out
        assert "validity" in campaign_out
        artifacts = sorted(out_dir.glob("repro-validity-*.json"))
        assert artifacts, "no repro artifact was written"

        payload = json.loads(artifacts[0].read_text(encoding="utf-8"))
        assert payload["invariant"] == "validity"
        assert "mode" not in payload
        # the shrunk plan is the replay's only fault source, and it
        # keeps the corrupting rule as one of its atoms
        run = payload["run"]
        assert run["crash_probability"] == 0.0
        assert run["disconnect_probability"] == 0.0
        assert run["outage_spec"] is None
        assert run["fault_specs"] == []
        rules = run["failure_plan"]["message_faults"]
        assert [rule["spec"]["kinds"] for rule in rules] == [["partial_result"]]
        assert rules[0]["spec"]["corrupt_probability"] == 0.6

        # replay the artifact alone, through the CLI, twice: the same
        # violation fires deterministically both times
        for _ in range(2):
            exit_code = main(["chaos", "--replay", str(artifacts[0])])
            replay_out = capsys.readouterr().out
            assert exit_code == 1
            assert "reproduced: yes" in replay_out
            assert "validity" in replay_out
